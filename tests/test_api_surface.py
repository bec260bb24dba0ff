"""Every public module-level function and every public method of a
posetrep class has a caller, no module reads the environment, and the
order masks of a Poset are read only inside poset.py.

A public function or method counts as used when its name appears in src/
or tests/ anywhere outside its own definition: a call, an import, an
attribute access, or a registry entry.  A recursive call inside its own
body does not count.  Settings come from arguments only, so that a result
never depends on an environment variable.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import posetrep

PACKAGE_DIR = Path(posetrep.__file__).resolve().parent
ROOTS = [PACKAGE_DIR, Path(__file__).resolve().parent]


METHOD_KINDS = (classmethod, staticmethod, property)


def _public_definitions():
    """(module name, path of enclosing definition names) for every public
    module-level function and every public method, classmethod,
    staticmethod or property of a class defined in posetrep."""
    out = []
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"posetrep.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((module.__name__, (name,)))
            elif inspect.isclass(obj):
                out += [(module.__name__, (name, attr)) for attr, member in vars(obj).items()
                        if not attr.startswith("_")
                        and (inspect.isfunction(member) or isinstance(member, METHOD_KINDS))]
    return out


def _names_used(tree, skip=()):
    """Identifiers referenced in tree, leaving out the body of the
    definition whose enclosing class and function names are skip."""
    used = set()
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            path += (node.name,)
            if path == skip:
                continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        stack.extend((child, path) for child in ast.iter_child_nodes(node))
    return used


def test_every_public_function_is_referenced():
    """Module-level functions and the methods of posetrep classes alike."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in ROOTS for path in sorted(root.glob("*.py"))}
    everywhere = {path: _names_used(tree) for path, tree in trees.items()}
    unused = []
    for module_name, skip in _public_definitions():
        home = PACKAGE_DIR / (module_name.rsplit(".", 1)[-1] + ".py")
        found = any(skip[-1] in (_names_used(tree, skip) if path == home
                                 else everywhere[path])
                    for path, tree in trees.items())
        if not found:
            unused.append(f"{module_name}.{'.'.join(skip)}")
    assert not unused, f"public functions and methods nothing references: {unused}"


ENVIRONMENT_READERS = {"environ", "getenv", "environb", "getenvb"}


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                readers.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno} from os import {a.name}"
                            for a in node.names if a.name in ENVIRONMENT_READERS]
    assert not readers, f"modules that read the environment: {readers}"


POSET_INTERNALS = {"_up", "_down", "_i", "_mask", "_members", "_width_in",
                   "_antichains", "_matching"}


def test_poset_internals_stay_in_poset_module():
    """Bitsets are an internal detail of poset.py: no other module of the
    package or of the tests reads a Poset's masks or its mask helpers."""
    readers = []
    for root in ROOTS:
        for path in sorted(root.glob("*.py")):
            if path == PACKAGE_DIR / "poset.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and node.attr in POSET_INTERNALS:
                    readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, f"private Poset attributes read outside poset.py: {readers}"
