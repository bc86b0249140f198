import types

import genensemble


def test_all_names_every_public_binding():
    # a name imported into the package but not listed in __all__ fails here
    public = {name for name, value in vars(genensemble).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(genensemble.__all__) == sorted(public | {"__version__"})
    assert len(set(genensemble.__all__)) == len(genensemble.__all__)
