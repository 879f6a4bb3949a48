import json
import os
import pathlib
import subprocess
import sys

import numpy as np

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


def test_argument_rules_live_in_su_basis_only():
    # every integer argument passes su_basis.checked_int and every real
    # coefficient array su_basis.checked_real; a second copy of either rule
    # drifts from the first
    src = pathlib.Path(blochvec.__file__).parent
    copies = [path.name for path in sorted(src.glob("*.py")) if path.name != "su_basis.py"
              and any(rule in path.read_text(encoding="utf-8")
                      for rule in ("np.integer", "np.iscomplexobj"))]
    assert copies == []


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    from blochvec import AffineMap, CoherenceState, CompositeLayout, SymFnSequence, Verdict
    from blochvec.composite import CorrelationBlock
    from blochvec.documents import MatrixDocument

    n = np.full(3, 0.1)
    makers = [
        lambda: CoherenceState(dim=2, n=n),
        lambda: SymFnSequence(dim=2, S=[1.0, 0.2], sign_changes=2, verdict=Verdict.PSD),
        lambda: AffineMap(dim=2, T=np.eye(3), t=n),
        lambda: CorrelationBlock(layout=CompositeLayout(dims=(2, 2)), nA=n, nB=n,
                                 C=np.eye(3)),
        lambda: MatrixDocument(dim=2, dims=None, matrix=None, coherence=n),
    ]
    for make in makers:
        a, b = make(), make()
        assert (a == b) is False and (a != b) is True
        assert a == a
        assert len({a, b, a}) == 2
