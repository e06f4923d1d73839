"""The benchmark's layer tracing hooks names that exist.

``perfbench/tracing.py`` patches each ``_FUNCTIONS`` entry in its
defining module and checks that every ``CALL_SITES`` module holds the
wrapper afterwards.  A refactor that renames a traced function or drops
an import it hooks fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, attr", [entry[:2] for entry in tracing._FUNCTIONS]
)
def test_traced_function_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, attr", tracing.CALL_SITES)
def test_call_site_binds_a_traced_function(module_name, attr):
    originals = {
        (name, getattr(importlib.import_module(mod), name))
        for mod, name, *_ in tracing._FUNCTIONS
    }
    fn = getattr(importlib.import_module(module_name), attr)
    assert (attr, fn) in originals
