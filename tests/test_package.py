import json
import os
import pathlib
import subprocess
import sys

import blochvec


def test_every_export_resolves():
    # a name left in __all__ after its function is gone breaks `import *`
    missing = [name for name in blochvec.__all__ if not hasattr(blochvec, name)]
    assert missing == []
    assert len(set(blochvec.__all__)) == len(blochvec.__all__)


def test_import_loads_only_the_standard_library_and_numpy():
    # Import is most of a cold `python -m blochvec` run, so a new heavy
    # dependency shows here first.  Modules the bare interpreter loads
    # before the import (site hooks of the environment) are not counted.
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import blochvec, blochvec.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(pathlib.Path(blochvec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = json.loads(out)
    assert {"blochvec", "numpy"} <= set(loaded)
    extra = [m for m in loaded
             if m not in sys.stdlib_module_names and m not in ("numpy", "blochvec")]
    assert extra == []
