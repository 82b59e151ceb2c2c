import types

import psiest


def test_all_lists_every_public_name():
    # Every name the package resolves is exported, and nothing else: a name
    # dropped from the package must leave __all__ too.  The package binds
    # its names only on access, so they are read through dir() and getattr.
    public = {name for name in dir(psiest)
              if not name.startswith("_")
              and not isinstance(getattr(psiest, name), types.ModuleType)}
    assert sorted(psiest.__all__) == sorted(public)
    assert len(psiest.__all__) == len(set(psiest.__all__))
