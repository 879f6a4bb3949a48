import json
import os
import pathlib
import re
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
    # every integer argument passes su_basis.checked_int, every real scalar
    # checked_float, every real coefficient array or sequence checked_real
    # and every complex operand checked_complex; a second copy of a rule
    # drifts from the first.  The marks: numpy scalar and dtype-class tests,
    # a finiteness test of one number, a conversion of an operand to complex.
    marks = re.compile(r"np\.(integer|floating|iscomplexobj)\b|dtype\.kind|math\.isfinite\("
                       r"|(asarray|ascontiguousarray)\([^()\n]*dtype=complex")
    src = pathlib.Path(blochvec.__file__).parent
    copies = [path.name for path in sorted(src.glob("*.py")) if path.name != "su_basis.py"
              and marks.search(path.read_text(encoding="utf-8"))]
    assert copies == []


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    from blochvec import (
        AffineMap,
        BasisSet,
        CoherenceState,
        CompositeLayout,
        SymFnSequence,
        Verdict,
        build_gellmann_basis,
        casimirs,
        closed_invariants,
    )
    from blochvec.composite import CorrelationBlock
    from blochvec.documents import MatrixDocument
    from blochvec.invariants import CasimirSet

    n = np.full(3, 0.1)
    makers = [
        lambda: CoherenceState(dim=2, n=n),
        lambda: SymFnSequence(dim=2, S=[1.0, 0.2], sign_changes=2, verdict=Verdict.PSD),
        lambda: AffineMap(dim=2, T=np.eye(3), t=n),
        lambda: CorrelationBlock(layout=CompositeLayout(dims=(2, 2)), nA=n, nB=n,
                                 C=np.eye(3)),
        lambda: MatrixDocument(dim=2, dims=None, matrix=None, coherence=n),
        lambda: CasimirSet(dim=3, values={2: 0.5}),
        lambda: casimirs(CoherenceState(dim=3, n=np.full(8, 0.1)), build_gellmann_basis(3), 2),
        # a new basis instance each time: the memo keeps one report per key
        lambda: closed_invariants(CoherenceState(dim=3, n=np.full(8, 0.1)),
                                  BasisSet(dim=3, elements=build_gellmann_basis(3).elements)),
    ]
    for make in makers:
        a, b = make(), make()
        assert (a == b) is False and (a != b) is True
        assert a == a
        assert len({a, b, a}) == 2
