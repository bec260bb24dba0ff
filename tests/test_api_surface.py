"""Every public module-level function of posetrep has a caller, and no
module reads the environment.

A public function counts as used when its name appears in src/ or tests/
anywhere outside its own definition: a call, an import, an attribute
access, or a registry entry.  A recursive call inside its own body does
not count.  Settings come from arguments only, so that a result never
depends on an environment variable.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import posetrep

PACKAGE_DIR = Path(posetrep.__file__).resolve().parent
ROOTS = [PACKAGE_DIR, Path(__file__).resolve().parent]


def _public_functions():
    out = []
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        module = importlib.import_module(f"posetrep.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                out.append((module.__name__, name))
    return out


def _names_used(tree, skip_def=None):
    """Identifiers referenced in tree, leaving out the body of the
    module-level function named skip_def."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip_def:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_function_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in ROOTS for path in sorted(root.glob("*.py"))}
    everywhere = {path: _names_used(tree) for path, tree in trees.items()}
    unused = []
    for module_name, name in _public_functions():
        home = PACKAGE_DIR / (module_name.rsplit(".", 1)[-1] + ".py")
        found = any(name in (_names_used(tree, skip_def=name) if path == home
                             else everywhere[path])
                    for path, tree in trees.items())
        if not found:
            unused.append(f"{module_name}.{name}")
    assert not unused, f"public functions nothing references: {unused}"


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
