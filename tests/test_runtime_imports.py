"""The runtime depends on numpy alone: importing every torusvae module in a
fresh interpreter loads nothing outside numpy and the standard library. No
module reaches past numpy to the C allocator."""
import sys
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
