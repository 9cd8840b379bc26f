"""Conversions between event-counting quantities and conventional units.

The lattice has two conversion factors: the minimum space distance between
gates (``topon_a``, metres) and the minimum time distance (``chronon_tau``,
seconds).  Their ratio is the causal speed.  A mass is encoded as the angular
frequency ``omega`` of the left/right flow coupling; ``hbar`` converts that
frequency (1/s) into kilograms via ``m = hbar * omega / c**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

# CODATA 2018 defaults.
HBAR_SI = 1.054571817e-34  # J s
C_SI = 2.99792458e8  # m/s

@dataclass(frozen=True)
class PhysicalUnits:
    """Conversion factors from event counts to SI units."""

    topon_a: float = C_SI  # metres per space step
    chronon_tau: float = 1.0  # seconds per time step
    hbar: float = HBAR_SI  # J s

    def __post_init__(self):
        for name in ("topon_a", "chronon_tau", "hbar"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.topon_a / self.chronon_tau):
            raise ValueError("causal speed a/tau must be finite")


def causal_speed(units: PhysicalUnits) -> float:
    """Maximum signal speed a/tau in m/s."""
    return units.topon_a / units.chronon_tau


def mass_from_omega(omega: float, units: PhysicalUnits) -> float:
    """Convert a coupling frequency (1/s) to a mass in kg.

    ``m = (tau/a)**2 * hbar * omega``, i.e. ``hbar * omega / c**2``.
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    ratio = units.chronon_tau / units.topon_a
    return ratio * ratio * units.hbar * omega


def omega_from_mass(mass: float, units: PhysicalUnits) -> float:
    """Inverse of :func:`mass_from_omega`."""
    if mass < 0:
        raise ValueError("mass must be non-negative")
    c = causal_speed(units)
    return mass * c * c / units.hbar


def omega_from_compton(compton_lambda: float, units: PhysicalUnits) -> float:
    """Coupling frequency c/lambda; an infinite wavelength means massless."""
    if math.isinf(compton_lambda):
        return 0.0
    if compton_lambda <= 0:
        raise ValueError("Compton wavelength must be positive (or inf)")
    return causal_speed(units) / compton_lambda


def compton_from_omega(omega: float, units: PhysicalUnits) -> float:
    """Wavelength c/omega; zero coupling gives an infinite wavelength."""
    if omega < 0:
        raise ValueError("omega must be non-negative")
    if omega == 0:
        return math.inf
    return causal_speed(units) / omega


def load_constants(path: str | Path | None = None) -> PhysicalUnits:
    """Build units from a key=value text file.

    Recognised keys: ``hbar``, ``c``, ``topon_a``, ``chronon_tau``.  When only
    ``c`` is given the topon/chronon pair defaults to (c, 1); only the ratio
    enters any conversion.  ``None`` yields CODATA defaults; a missing file
    raises ``FileNotFoundError``.
    """
    values: dict[str, float] = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in {"hbar", "c", "topon_a", "chronon_tau"}:
                raise ValueError(f"{path}:{lineno}: unknown constant {key!r}")
            try:
                values[key] = float(value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be a number, got {value.strip()!r}") from None

    hbar = values.get("hbar", HBAR_SI)
    if "topon_a" in values or "chronon_tau" in values:
        a = values.get("topon_a", C_SI)
        tau = values.get("chronon_tau", 1.0)
    else:
        a, tau = values.get("c", C_SI), 1.0
    return PhysicalUnits(topon_a=a, chronon_tau=tau, hbar=hbar)
