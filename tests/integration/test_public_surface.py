"""The public surface: every star import succeeds and every name a
package lists in ``__all__`` resolves, so a removal that leaves a name
behind fails here."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.gateway", "repro.errors"])
def test_star_import_resolves_all(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert [name for name in exported if name not in namespace] == []
