"""The traced benchmark run patches package attributes by name.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its
``WRAPPED`` table with a timing wrapper and stops at the first name that
does not resolve, so every such binding must stay importable.  Its count
extractors also read fixed argument positions.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from arclink.covariance import attach_covariances
from arclink.selection import select_solutions

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", sorted(_load_tracing().WRAPPED))
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_count_extractor_argument_positions():
    assert list(inspect.signature(attach_covariances).parameters)[:2] == [
        "pair", "solution"]
    assert list(inspect.signature(select_solutions).parameters)[0] == "solutions"
