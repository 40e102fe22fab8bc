"""The package namespace re-exports every public name of its modules."""

import pytest

import ttinfer
from ttinfer import chancode, cross, harness, mimo, posterior, tt


@pytest.mark.parametrize("module", [tt, cross, posterior, mimo, chancode, harness],
                         ids=lambda m: m.__name__)
def test_every_module_export_resolves_from_the_package(module):
    for name in module.__all__:
        assert getattr(ttinfer, name, None) is getattr(module, name), name
