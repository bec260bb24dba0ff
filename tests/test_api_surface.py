"""Every public module-level function and every public method of a
posetrep class has a caller in the program, no module reads the
environment, and the order masks of a Poset are read only inside poset.py.

Only the package (src/posetrep) and the benchmark harness (bench/) count as
callers; a test is not one.  The package's __init__.py only re-exports
names, so it is not read either.  A module-level function counts as used
when its name is read (a bare name or a ``.name`` attribute) outside its
own definition; a recursive call inside its own body does not count.  A
method, classmethod, staticmethod or property counts as used only through
an attribute access ``.name``, so a local variable, a flag or an imported
function of the same spelling does not hide it.  An attribute read in
bench/ whose name is a function that bench/ defines itself is taken as a
call of that function (``gauge.scale()`` calls the bench's own
``Gauge.scale``), so it does not hide a program method of the same name.
Settings come from arguments only, so that a result never depends on an
environment variable.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import posetrep

PACKAGE_DIR = Path(posetrep.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
ROOTS = [PACKAGE_DIR, TESTS_DIR]
BENCH_DIR = TESTS_DIR.parent / "bench"
CALLERS = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"]
CALLERS += sorted(BENCH_DIR.glob("*.py"))


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
    """(bare names, attribute names) read in tree, leaving out the body of
    the definition whose enclosing class and function names are skip."""
    names, attributes = set(), set()
    stack = [(tree, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            path += (node.name,)
            if path == skip:
                continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend((child, path) for child in ast.iter_child_nodes(node))
    return names, attributes


def test_every_public_function_is_referenced():
    """Module-level functions and the methods of posetrep classes alike."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    everywhere = {path: _names_used(tree) for path, tree in trees.items()}
    bench_own = {node.name for path, tree in trees.items() if path.parent == BENCH_DIR
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for path, (names, attributes) in everywhere.items():
        if path.parent == BENCH_DIR:
            attributes -= bench_own
    unused = []
    for module_name, skip in _public_definitions():
        home = PACKAGE_DIR / (module_name.rsplit(".", 1)[-1] + ".py")
        used = [_names_used(tree, skip) if path == home else everywhere[path]
                for path, tree in trees.items()]
        found = any(skip[-1] in attributes or (len(skip) == 1 and skip[-1] in names)
                    for names, attributes in used)
        if not found:
            unused.append(f"{module_name}.{'.'.join(skip)}")
    assert not unused, f"public functions and methods nothing in the program calls: {unused}"


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
                   "_antichains", "_matching", "_applicable", "_width", "_hash",
                   "_carrier", "_assemble"}


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
