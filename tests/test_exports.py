"""Every name a package exports resolves, so a deletion cannot leave a
dangling entry in ``__all__``."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["relrank.autodiff", "relrank.config",
                                    "relrank.models"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
