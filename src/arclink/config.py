"""Unit systems and the run configuration of the linkage pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from . import constants
from .errors import DomainError


@dataclass(frozen=True)
class UnitSystem:
    """Consistent (length, time) units with the matching constants.

    Epochs cross the I/O boundary as MJD days in both systems;
    ``epoch_scale`` converts MJD days to internal time units.
    """

    name: str
    mu_default: float
    c_light: float
    epoch_scale: float  # internal time units per day

    def mjd_to_internal(self, mjd: float) -> float:
        return mjd * self.epoch_scale

    def internal_to_mjd(self, t: float) -> float:
        return t / self.epoch_scale


AU_DAY = UnitSystem(
    name="au-day",
    mu_default=constants.GM_SUN_AU3_DAY2,
    c_light=constants.C_LIGHT_AU_DAY,
    epoch_scale=1.0,
)

KM_S = UnitSystem(
    name="km-s",
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
class RunConfig:
    """Configuration of the linkage pipeline, and the defaults of the
    command-line options that set its fields: the unit system, mu (None
    takes the unit system's default, see ``mu_value``) and the chi4
    acceptance threshold.  Every tolerance is a module constant; the Lenz
    screen of optical candidates is scale-free (``optical._SCREEN_REL``).
    Set a field with :func:`dataclasses.replace`."""

    units: UnitSystem = AU_DAY
    mu: float | None = None
    chi4_threshold: float = 100.0

    @property
    def mu_value(self) -> float:
        return self.units.mu_default if self.mu is None else self.mu
