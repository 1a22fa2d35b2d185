"""The solution summary of ``scripts/compare_documents.py``: a solution
that moved a little is one moved solution, not one lost and one gained."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_documents.py"
MU = 2.9591220828559115e-04


@pytest.fixture(scope="module")
def compare_documents():
    sys.path.insert(0, str(SCRIPT.parent))  # for its sibling module base_tree
    try:
        spec = importlib.util.spec_from_file_location("compare_documents", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return module


def solution(rho1, rho2, scale=1.0):
    """A solution record of pair (0, 1) with both ranges times ``scale``."""
    return {"pair": [0, 1], "rho1": rho1 * scale, "rho2": rho2 * scale,
            "lenz_residual": 1e-12,
            "state1": {"r": [1.0, 0.1, 0.0], "v": [0.0, 0.017, 0.001]},
            "state2": {"r": [0.2, 1.1, 0.0], "v": [-0.016, 0.002, 0.001]},
            "elliptic": True, "selected": None}


def documents(scale):
    """A base document with two solutions, and a change whose first
    solution has both ranges times ``scale``."""
    base = {"mu": MU, "solutions": [solution(1.5, 2.0), solution(3.0, 0.5)]}
    change = {"mu": MU, "solutions": [solution(1.5, 2.0, scale), solution(3.0, 0.5)]}
    return {"batch0": (base, change)}


def test_a_small_move_is_a_moved_solution(compare_documents):
    lines = compare_documents._solution_summary(documents(1.0 + 5e-9))
    assert "1 matched" in lines[0]
    assert lines[0].endswith("1 moved within 1e-06, 0 gained, 0 lost")
    assert len(lines) == 2 and lines[1].startswith("  moved: batch0 pair [0, 1] rho1=1.5 -> ")
    assert "lenz_residual/(|L1|+|L2|)=" in lines[1] and lines[1].count(" -> ") == 3


def test_a_large_move_is_one_lost_and_one_gained(compare_documents):
    lines = compare_documents._solution_summary(documents(1.0 + 1e-3))
    assert lines[0].endswith("0 moved within 1e-06, 1 gained, 1 lost")
    assert [line.split(":")[0] for line in lines[1:]] == ["  lost", "  gained"]
