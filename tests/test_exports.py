"""Every submodule's ``__all__`` names only what the module defines."""

import pkgutil

import pytest

import gaborflow


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(gaborflow.__path__)))
def test_star_import(name):
    exec(f"from gaborflow.{name} import *", {})
