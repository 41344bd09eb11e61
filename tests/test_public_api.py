"""The package's public names: everything ``__all__`` lists is importable."""

import hatguess


def test_every_public_name_resolves():
    missing = [name for name in hatguess.__all__ if not hasattr(hatguess, name)]
    assert not missing, missing
    assert len(set(hatguess.__all__)) == len(hatguess.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from hatguess import *", namespace)
    assert set(hatguess.__all__) <= namespace.keys()
