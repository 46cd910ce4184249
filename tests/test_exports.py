"""`homshift.__all__` lists exactly the public names the package binds."""

import types

import homshift


def test_all_lists_every_public_name_the_package_binds():
    bound = {name for name, value in vars(homshift).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(homshift.__all__) == len(set(homshift.__all__))
    # `bound` holds only names the package binds, so equality also shows
    # that every listed name resolves
    assert set(homshift.__all__) == bound
