"""The runtime depends on numpy alone: importing every torusvae module in a
fresh interpreter loads nothing outside numpy and the standard library. No
module reaches past numpy to the C allocator, and every definition is used
by the program itself."""
import ast
import sys
from collections import Counter
from pathlib import Path

import torusvae
from helpers import run_fresh

# Prints the top-level names of the modules that importing all of torusvae loads.
_IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import torusvae
for info in pkgutil.iter_modules(torusvae.__path__):
    importlib.import_module("torusvae." + info.name)
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    # multiprocessing registers the main module again as __mp_main__.
    loaded = set(run_fresh(_IMPORT_ALL).split()) - {"__mp_main__"}
    assert {"torusvae", "numpy"} <= loaded
    assert loaded - {"torusvae", "numpy"} - sys.stdlib_module_names == set()


def test_no_module_tunes_the_allocator():
    """Memory reuse comes from the program's own buffers: no module loads ctypes,
    sets a MALLOC_ environment variable or calls mallopt, which would change
    the process for every caller of the library instead."""
    sources = sorted(Path(torusvae.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for word in ("ctypes", "MALLOC_", "mallopt"):
            assert word not in text, f"{path.name} mentions {word}"


# Definitions that only callers outside src/ reach: the criterion-2 angle
# recovery, the in-memory 2dshapes render, and the hook argparse calls.
OUTSIDE_CALLERS = {"recover_angles_batch", "ShapesSource.render", "_Parser.error"}


def _references(tree, bare=True) -> Counter:
    """Each name that tree reads as an attribute and, if bare, as a bare name."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   or bare and isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _definitions(tree, prefix="", in_class=False):
    """(qualified name, node, whether it is a method) of every function, class
    and method in tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child, in_class
            yield from _definitions(child, f"{prefix}{child.name}.",
                                    isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def test_every_definition_is_referenced_elsewhere_in_src():
    """A function, class or method that no other code in src/ names is
    reached only from tests; it goes, or its tests move to the path the
    commands run. A method counts only as an attribute (a local variable of
    its name does not reach it), and dunders are called by Python itself."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(torusvae.__file__).parent.glob("*.py"))]
    names = {bare: sum((_references(tree, bare) for tree in trees), Counter())
             for bare in (True, False)}
    unused = sorted(
        qualname for tree in trees for qualname, node, method in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and names[not method][node.name] == _references(node, not method)[node.name])
    assert unused == sorted(OUTSIDE_CALLERS)
