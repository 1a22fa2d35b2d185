import dataclasses

import numpy as np
import pytest

from arclink.solutions import LinkageSolution, SolutionRows


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def gather(solutions, pair=None, **columns):
    """Views of a new block holding the rows that the solution views
    ``solutions`` show, in order: every column of ``SolutionRows`` gathered
    row by row, each solution its own pair unless ``pair`` says otherwise,
    and each column named in ``columns`` then set to its value (broadcast
    over the rows)."""
    pair = np.arange(len(solutions)) if pair is None else np.asarray(pair)
    block = {f.name: np.array([getattr(s.rows, f.name)[s.k] for s in solutions])
             for f in dataclasses.fields(SolutionRows)
             if f.name not in ("errors", "pair", "method")}
    for name, value in columns.items():
        block[name][...] = value
    rows = SolutionRows(errors=[None] * (int(pair.max()) + 1), pair=pair,
                        method=solutions[0].method, **block)
    return [LinkageSolution(rows, k) for k in range(len(solutions))]


def rotated(rng, values):
    """A symmetric matrix of the given eigenvalues in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def record_rows(records):
    """The rows (B, n) of coefficient records (their ``row``), as the
    stacked linkers take them."""
    return np.array([record.row for record in records])
