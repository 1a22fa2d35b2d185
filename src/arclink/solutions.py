"""Linkage solutions: the columns of a block, and a view of one row.

A :class:`SolutionRows` holds the solutions of a block of pairs as columns:
both linkers assemble one per block, the covariance and selection stages
fill its annotation columns in place, and the command line writes each
block's records straight from it.  A :class:`LinkageSolution` is a
read-only view of one row of such a block, as the library's one-pair calls
return it: each field reads the columns when it is asked for, so the
covariance and selection calls on a view fill its block's columns and the
view shows them.  The columns are the one representation of a solution;
no object is built on the command line's path.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

import numpy as np

from .errors import DomainError, LinkageError
from .kepler import CartesianState, KeplerianElements

# The flags a solution can carry, in the order the stages set them, with
# the boolean column of SolutionRows that holds each.
_FLAGS = (("quartic_unconverged", "unconverged"),
          ("ill-conditioned-solution", "ill_conditioned"),
          ("selection-unavailable", "selection_unavailable"))


def _field(name: str, *index: int, has: str | None = None,
           make=methodcaller("item")) -> property:
    """A field of :class:`LinkageSolution`: ``make`` of the entry ``index``
    of its row of the column ``name`` (by default the Python scalar), or
    None where the mask ``has`` is False."""
    def get(self):
        at = (self.k, *index)
        if has is not None and not getattr(self.rows, has)[at]:
            return None
        return make(getattr(self.rows, name)[at])
    return property(get)


def _state(epoch: int) -> property:
    def get(self):
        rows, k = self.rows, self.k
        return CartesianState(rows.r[k, epoch], rows.v[k, epoch], rows.t[k, epoch].item())
    return property(get)


def _elements(epoch: int) -> property:
    return _field("elements", epoch, has="has_elements",
                  make=lambda el: KeplerianElements(*el.tolist()))


def _covariance(epoch: int) -> property:
    return _field("covariance", epoch, has="has_covariance", make=lambda cov: cov)


class LinkageSolution:
    """One linked orbit, row ``k`` of the block ``rows``: ranges/range
    rates at both epochs, the implied Cartesian states (epochs corrected
    for light time), elements, and acceptance diagnostics.  Covariance and
    selection fields are None until the downstream stages fill them.

    Every field is read-only and read from the columns: floats and bools
    are Python scalars, the states' vectors and the covariances are views
    of the columns, and ``flags`` is a new list."""

    __slots__ = ("rows", "k")

    def __init__(self, rows: SolutionRows, k: int):
        self.rows, self.k = rows, k

    rho1, rho2 = _field("rho", 0), _field("rho", 1)
    rhodot1, rhodot2 = _field("rhodot", 0), _field("rhodot", 1)
    state1, state2 = _state(0), _state(1)
    elements1, elements2 = _elements(0), _elements(1)
    elliptic = _field("elliptic")
    lenz_residual = _field("lenz_residual")
    compat_lenz = _field("compat_lenz")
    compat_anomaly = _field("compat_anomaly", has="has_compat_anomaly")
    energy_offset = _field("energy_offset")
    method = property(lambda self: self.rows.method)
    flags = property(lambda self: self.rows.flags(slice(self.k, self.k + 1))[0])
    covariance1, covariance2 = _covariance(0), _covariance(1)
    chi4 = _field("chi4", has="has_chi4")
    selected = _field("selected", has="has_selected")
    unselectable = _field("unselectable")

    def __repr__(self) -> str:
        return f"LinkageSolution({', '.join(f'{n}={getattr(self, n)!r}' for n in FIELDS)})"


#: The fields of a :class:`LinkageSolution`, in order.
FIELDS = tuple(name for name, value in vars(LinkageSolution).items()
               if isinstance(value, property))


@dataclass
class SolutionRows:
    """The solutions of a block of pairs as columns, one row per solution,
    sorted by pair.  Both linkers assemble it, the covariance and
    selection stages fill its annotation columns in place, and the command
    line writes its records from it.

    ``errors[k]`` is the error that stopped pair k of the block, or None,
    and ``pair`` (K,) is each solution's pair.  Every field of
    :class:`LinkageSolution` is read from a column: rho and rhodot (K, 2),
    the states' r and v (K, 2, 3) at the epochs t (K, 2), both element
    sets (K, 2, 7: a, e, i, Omega, omega, ell, epoch), the diagnostics
    (K,), both covariances (K, 2, 6, 6), chi4, selected and unselectable
    (K,), and one boolean column per flag (``_FLAGS``); ``method`` is the
    block's.  A field that can be None has a mask ``has_<field>``, False
    where it is None."""

    errors: list
    pair: np.ndarray
    method: str
    rho: np.ndarray
    rhodot: np.ndarray
    r: np.ndarray
    v: np.ndarray
    t: np.ndarray
    elements: np.ndarray
    has_elements: np.ndarray
    elliptic: np.ndarray
    lenz_residual: np.ndarray
    compat_lenz: np.ndarray
    compat_anomaly: np.ndarray
    has_compat_anomaly: np.ndarray
    energy_offset: np.ndarray
    unconverged: np.ndarray
    # The columns that the covariance and selection stages fill: given all
    # together, or blank when the linkers assemble the rows.
    covariance: np.ndarray | None = None
    has_covariance: np.ndarray | None = None
    ill_conditioned: np.ndarray | None = None
    chi4: np.ndarray | None = None
    has_chi4: np.ndarray | None = None
    selected: np.ndarray | None = None
    has_selected: np.ndarray | None = None
    unselectable: np.ndarray | None = None
    selection_unavailable: np.ndarray | None = None

    def __post_init__(self):
        if self.covariance is None:
            n = len(self.pair)
            self.covariance, self.chi4 = np.zeros((n, 2, 6, 6)), np.zeros(n)
            self.has_covariance = np.zeros((n, 2), dtype=bool)
            (self.ill_conditioned, self.has_chi4, self.selected, self.has_selected,
             self.unselectable, self.selection_unavailable) = np.zeros((6, n), dtype=bool)

    @classmethod
    def empty(cls, errors: list, method: str) -> SolutionRows:
        """The columns of a block whose pairs have no solution, with each
        pair's error or None."""
        z = np.zeros  # every column with no row, in the order of the fields
        return cls(errors, z(0, dtype=int), method, z((0, 2)), z((0, 2)), z((0, 2, 3)),
                   z((0, 2, 3)), z((0, 2)), z((0, 2, 7)), z((0, 2), dtype=bool),
                   z(0, dtype=bool), z(0), z(0), z(0), z(0, dtype=bool), z(0), z(0, dtype=bool))

    def flags(self, rows=slice(None)) -> list[list[str]]:
        """The flags of the solutions ``rows`` (all by default), in the
        order the stages set them."""
        columns = [getattr(self, column)[rows].tolist() for _, column in _FLAGS]
        if not any(map(any, columns)):
            return [[] for _ in columns[0]]
        names = [name for name, _ in _FLAGS]
        return [[name for name, on in zip(names, row) if on] for row in zip(*columns)]

    def per_pair(self) -> list[list[LinkageSolution] | LinkageError]:
        """Each pair's solutions, as views of their rows, or its error."""
        out = [[] if error is None else error for error in self.errors]
        for k, pair in enumerate(self.pair.tolist()):
            if self.errors[pair] is None:
                out[pair].append(LinkageSolution(self, k))
        return out


def block_of(solutions: list) -> tuple[SolutionRows, np.ndarray]:
    """The block that the views ``solutions`` are rows of (an empty block
    of one pair if there are none), and their rows; DomainError if they
    are rows of different blocks."""
    if not solutions:
        return SolutionRows.empty([None], "optical"), np.zeros(0, dtype=int)
    rows = solutions[0].rows
    if any(sol.rows is not rows for sol in solutions):
        raise DomainError("the solutions of one call must be rows of one block")
    return rows, np.array([sol.k for sol in solutions])


def optional(values: np.ndarray, has: np.ndarray) -> list:
    """The rows of a column, ``values.tolist()``, with None where ``has``
    (a mask of the same length) is False."""
    has = has.tolist()
    if not any(has):
        return [None] * len(has)
    return [value if ok else None for value, ok in zip(values.tolist(), has)]
