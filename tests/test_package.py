import importlib

import pytest

MODULES = (
    "spinctrl",
    "spinctrl._kernels",
    "spinctrl.linalg",
    "spinctrl.model",
    "spinctrl.lindblad",
    "spinctrl.optim",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tracing tools wrap every __all__ name by getattr, so a stale entry
    # breaks them
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
