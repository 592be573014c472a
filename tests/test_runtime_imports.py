"""The runtime depends on numpy alone: importing every torusvae module in a
fresh interpreter loads nothing outside numpy and the standard library."""
import sys

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
