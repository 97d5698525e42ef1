import sphfit


def test_every_public_name_resolves():
    # a stale __all__ entry breaks ``from sphfit import *``
    missing = [name for name in sphfit.__all__ if not hasattr(sphfit, name)]
    assert missing == []
    namespace = {}
    exec("from sphfit import *", namespace)
    assert set(sphfit.__all__) <= set(namespace)
