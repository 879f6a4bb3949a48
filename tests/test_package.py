import blochvec


def test_every_export_resolves():
    # a name left in __all__ after its function is gone breaks `import *`
    missing = [name for name in blochvec.__all__ if not hasattr(blochvec, name)]
    assert missing == []
    assert len(set(blochvec.__all__)) == len(blochvec.__all__)
