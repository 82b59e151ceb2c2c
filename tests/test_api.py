import types

import psiest


def test_all_lists_every_public_name():
    # Every name the package imports is exported, and nothing else: a name
    # dropped from the imports must leave __all__ too.
    public = {name for name, value in vars(psiest).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(psiest.__all__) == sorted(public)
    assert len(psiest.__all__) == len(set(psiest.__all__))
