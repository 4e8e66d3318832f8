"""The names the benchmark harness looks up in the library must keep resolving.

``bench/tracing.py`` rebinds every ``(module, attribute)`` in ``WRAPPED`` and
``bench/run.py`` calls the atom codec and ``window_check`` directly, so a
refactor that drops one of these names breaks the benchmark.
"""

import importlib
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from bench.tracing import WRAPPED


@pytest.mark.parametrize(
    "module, attribute", sorted({(m, a) for m, a, _name, _attrs in WRAPPED})
)
def test_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


@pytest.mark.parametrize("attribute", ["atoms_from_bytes", "atoms_to_bytes",
                                       "window_check"])
def test_run_uses_measures_name(attribute):
    measures = importlib.import_module("polytorus.measures")
    assert callable(getattr(measures, attribute))
