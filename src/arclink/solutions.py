"""Linkage solutions, as objects and as columns.

A :class:`LinkageSolution` is one linked orbit, as the library's one-pair
calls return it.  A :class:`SolutionRows` holds the solutions of a block of
pairs as columns: both linkers assemble one per block, the covariance and
selection stages fill its annotation columns in place, and the command line
writes each block's records straight from it, so no object is built on that
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LinkageError
from .kepler import CartesianState, KeplerianElements


@dataclass
class LinkageSolution:
    """One linked orbit: ranges/range rates at both epochs, the implied
    Cartesian states (epochs corrected for light time), elements, and
    acceptance diagnostics.  Covariance and selection fields are attached
    by the downstream stages."""

    rho1: float
    rho2: float
    rhodot1: float
    rhodot2: float
    state1: CartesianState
    state2: CartesianState
    elements1: KeplerianElements | None
    elements2: KeplerianElements | None
    elliptic: bool
    lenz_residual: float
    compat_lenz: float
    compat_anomaly: float | None
    energy_offset: float
    method: str = "optical"
    flags: list = field(default_factory=list)
    covariance1: np.ndarray | None = None
    covariance2: np.ndarray | None = None
    chi4: float | None = None
    selected: bool | None = None
    unselectable: bool = False


# The flags a solution can carry, in the order the stages set them, with
# the boolean column of SolutionRows that holds each.
_FLAGS = (("quartic_unconverged", "unconverged"),
          ("ill-conditioned-solution", "ill_conditioned"),
          ("selection-unavailable", "selection_unavailable"))
# The element set and covariance stacked for a solution without them.
_NO_ELEMENTS, _NO_COVARIANCE = np.zeros(7), np.zeros((6, 6))


@dataclass
class SolutionRows:
    """The solutions of a block of pairs as columns, one row per solution,
    sorted by pair.  Both linkers assemble it, the covariance and
    selection stages fill its annotation columns in place, and the command
    line writes its records from it.

    ``errors[k]`` is the error that stopped pair k of the block, or None,
    and ``pair`` (K,) is each solution's pair.  Every field of
    :class:`LinkageSolution` is a column: rho and rhodot (K, 2), the
    states' r and v (K, 2, 3) at the epochs t (K, 2), both element sets
    (K, 2, 7: a, e, i, Omega, omega, ell, epoch), the diagnostics (K,),
    both covariances (K, 2, 6, 6), chi4, selected and unselectable (K,),
    and one boolean column per flag (``_FLAGS``); ``method`` is the
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
    def from_solutions(cls, solutions: list, one_pair: bool = False) -> SolutionRows:
        """The columns of ``solutions``, all of one pair (``one_pair``) or
        each of its own; only the flags of ``_FLAGS`` are kept."""
        n = len(solutions)
        floats = np.array([(s.rho1, s.rho2, s.rhodot1, s.rhodot2, s.state1.epoch, s.state2.epoch,
                            s.lenz_residual, s.compat_lenz, s.compat_anomaly or 0.0,
                            s.energy_offset, s.chi4 or 0.0) for s in solutions]).reshape(n, 11)
        bools = np.array([(s.elements1 is not None, s.elements2 is not None,
                           s.covariance1 is not None, s.covariance2 is not None, s.elliptic,
                           s.compat_anomaly is not None, s.chi4 is not None, bool(s.selected),
                           s.selected is not None, s.unselectable,
                           *(flag in s.flags for flag, _ in _FLAGS))
                          for s in solutions], dtype=bool).reshape(n, 10 + len(_FLAGS))
        states = np.array([(s.state1.r, s.state2.r, s.state1.v, s.state2.v)
                           for s in solutions]).reshape(n, 4, 3)
        elements = np.array([_NO_ELEMENTS if el is None else
                             (el.a, el.e, el.i, el.Omega, el.omega, el.ell, el.epoch)
                             for s in solutions for el in (s.elements1, s.elements2)])
        covariance = np.array([_NO_COVARIANCE if c is None else c
                               for s in solutions for c in (s.covariance1, s.covariance2)])
        return cls(
            errors=[None] * (1 if one_pair else n),
            pair=np.zeros(n, dtype=int) if one_pair else np.arange(n),
            method=solutions[0].method if n else "optical",
            rho=floats[:, 0:2], rhodot=floats[:, 2:4], r=states[:, 0:2], v=states[:, 2:4],
            t=floats[:, 4:6], elements=elements.reshape(n, 2, 7), has_elements=bools[:, 0:2],
            elliptic=bools[:, 4], lenz_residual=floats[:, 6], compat_lenz=floats[:, 7],
            compat_anomaly=floats[:, 8], has_compat_anomaly=bools[:, 5],
            energy_offset=floats[:, 9], covariance=covariance.reshape(n, 2, 6, 6),
            has_covariance=bools[:, 2:4], chi4=floats[:, 10], has_chi4=bools[:, 6],
            selected=bools[:, 7], has_selected=bools[:, 8], unselectable=bools[:, 9],
            **{name: bools[:, 10 + m] for m, (_, name) in enumerate(_FLAGS)})

    @classmethod
    def empty(cls, errors: list, method: str) -> SolutionRows:
        """The columns of a block whose pairs have no solution, with each
        pair's error or None."""
        rows = cls.from_solutions([])
        rows.errors, rows.method = errors, method
        return rows

    def annotate(self, solutions: list) -> None:
        """Write what the covariance and selection stages filled in back
        onto ``solutions``, the objects the rows were read from
        (:meth:`from_solutions`): both covariances, chi4 and selected where
        they are set, unselectable, and each flag that is set and not yet
        in the solution's list."""
        for k, (sol, has_covariance, chi4, selected, unselectable, flags) in enumerate(zip(
                solutions, self.has_covariance[:, 0].tolist(), optional(self.chi4, self.has_chi4),
                optional(self.selected, self.has_selected), self.unselectable.tolist(),
                self.flags())):
            if has_covariance:
                sol.covariance1, sol.covariance2 = self.covariance[k]
            if chi4 is not None:
                sol.chi4 = chi4
            if selected is not None:
                sol.selected = selected
            sol.unselectable = unselectable
            sol.flags += [flag for flag in flags if flag not in sol.flags]

    def flags(self, rows=slice(None)) -> list[list[str]]:
        """The flags of the solutions ``rows`` (all by default), in the
        order the stages set them."""
        columns = [getattr(self, column)[rows].tolist() for _, column in _FLAGS]
        if not any(map(any, columns)):
            return [[] for _ in columns[0]]
        names = [name for name, _ in _FLAGS]
        return [[name for name, on in zip(names, row) if on] for row in zip(*columns)]

    def per_pair(self) -> list[list[LinkageSolution] | LinkageError]:
        """Each pair's solutions as :class:`LinkageSolution` objects (their
        states' vectors are views of the columns), or its error."""
        if not len(self.pair):
            return [[] if error is None else error for error in self.errors]
        elements = [None if values is None else KeplerianElements(*values) for values in
                    optional(self.elements.reshape(-1, 7), self.has_elements.ravel())]
        covariance = optional(self.covariance.reshape(-1, 6, 6), self.has_covariance.ravel(),
                              list)
        r, v = self.r, self.v
        solutions = [LinkageSolution(
            rho1=rho1, rho2=rho2, rhodot1=rhodot1, rhodot2=rhodot2,
            state1=CartesianState(r[k, 0], v[k, 0], t1),
            state2=CartesianState(r[k, 1], v[k, 1], t2),
            elements1=elements[2 * k], elements2=elements[2 * k + 1], elliptic=elliptic,
            lenz_residual=residual, compat_lenz=lenz, compat_anomaly=anomaly,
            energy_offset=offset, method=self.method, flags=flags,
            covariance1=covariance[2 * k], covariance2=covariance[2 * k + 1],
            chi4=chi4, selected=selected, unselectable=unselectable)
            for k, ((rho1, rho2), (rhodot1, rhodot2), (t1, t2), elliptic, residual, lenz, anomaly,
                    offset, flags, chi4, selected, unselectable) in enumerate(zip(
                self.rho.tolist(), self.rhodot.tolist(), self.t.tolist(), self.elliptic.tolist(),
                self.lenz_residual.tolist(), self.compat_lenz.tolist(),
                optional(self.compat_anomaly, self.has_compat_anomaly),
                self.energy_offset.tolist(), self.flags(), optional(self.chi4, self.has_chi4),
                optional(self.selected, self.has_selected), self.unselectable.tolist()))]
        out = [[] if error is None else error for error in self.errors]
        for k, solution in zip(self.pair.tolist(), solutions):
            if self.errors[k] is None:
                out[k].append(solution)
        return out


def optional(values: np.ndarray, has: np.ndarray, items=np.ndarray.tolist) -> list:
    """The rows of a column, ``items(values)``, with None where ``has``
    (a mask of the same length) is False."""
    has = has.tolist()
    if not any(has):
        return [None] * len(has)
    return [value if ok else None for value, ok in zip(items(values), has)]
