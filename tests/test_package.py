import types

import memobs


def test_export_list_names_every_public_name_once():
    # A name deleted from the package must leave __all__ too, and a public
    # name the package imports must be listed.
    public = {
        name
        for name, value in vars(memobs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(memobs.__all__) - {"__version__"} == public
    assert len(memobs.__all__) == len(set(memobs.__all__))
