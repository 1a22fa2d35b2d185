"""Unit systems and tunable options for the linkage pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import constants
from .errors import DomainError


@dataclass(frozen=True)
class UnitSystem:
    """Consistent (length, time) units with the matching constants.

    Epochs cross the I/O boundary as MJD days in both systems;
    ``epoch_scale`` converts MJD days to internal time units.
    """

    name: str
    length_unit: str
    time_unit: str
    mu_default: float
    c_light: float
    epoch_scale: float  # internal time units per day

    def mjd_to_internal(self, mjd: float) -> float:
        return mjd * self.epoch_scale

    def internal_to_mjd(self, t: float) -> float:
        return t / self.epoch_scale


AU_DAY = UnitSystem(
    name="au-day",
    length_unit="au",
    time_unit="day",
    mu_default=constants.GM_SUN_AU3_DAY2,
    c_light=constants.C_LIGHT_AU_DAY,
    epoch_scale=1.0,
)

KM_S = UnitSystem(
    name="km-s",
    length_unit="km",
    time_unit="s",
    mu_default=constants.GM_EARTH_KM3_S2,
    c_light=constants.C_LIGHT_KM_S,
    epoch_scale=constants.SECONDS_PER_DAY,
)

UNIT_SYSTEMS = {u.name: u for u in (AU_DAY, KM_S)}


def unit_system(name: str) -> UnitSystem:
    try:
        return UNIT_SYSTEMS[name]
    except KeyError:
        raise DomainError(
            f"unknown unit system {name!r}; expected one of {sorted(UNIT_SYSTEMS)}"
        ) from None


@dataclass(frozen=True)
class LinkOptions:
    """Numerical knobs of the linkage solvers.

    spurious_tol
        Threshold on the normalized unsquared Lenz residual above which a
        candidate pair is discarded as an artifact of squaring.
    """

    spurious_tol: float = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by the command-line entry points."""

    units: UnitSystem = AU_DAY
    mu: float | None = None
    chi4_threshold: float = 100.0
    seed: int | None = None
    options: LinkOptions = field(default_factory=LinkOptions)

    @property
    def mu_value(self) -> float:
        return self.units.mu_default if self.mu is None else self.mu

    def with_options(self, **kwargs) -> "RunConfig":
        return replace(self, options=replace(self.options, **kwargs))
