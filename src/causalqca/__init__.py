"""Event-counting relativity and zigzag field dynamics on causal networks.

The package splits into four layers:

* :mod:`causalqca.lattice` -- the homogeneous lightcone lattice (events,
  causal order, lightlike signals),
* :mod:`causalqca.observers` -- periodic observer chains, radar coordinates,
  foliations, boost fitting and the light-clock construction,
* :mod:`causalqca.walk` -- the two-component nearest-neighbour unitary walk
  (mass as chirality coupling): dispersion, front speed, position jitter and
  the coarse-grained generator checks,
* :mod:`causalqca.gates` -- the bipartite gate circuit behind the walk:
  transfer matrices, the speed/mass feasibility bound, and a brute-force
  Fock-space oracle built from anticommuting mode operators.

:mod:`causalqca.units` converts event counts to SI quantities and
:mod:`causalqca.recipes`/:mod:`causalqca.cli` bundle everything into
reproducible experiment runs.
"""

from .lattice import Event, causally_precedes, is_causal_chain, signal_trace, successors
from .observers import (
    BoostFit,
    ClockTicTac,
    CoordinateChart,
    FoliationLeaf,
    ObserverSpec,
    RadarCoordinate,
    Window,
    boost_map,
    default_scale,
    einstein_clock,
    fit_lorentz,
    foliation_leaf,
    radar_coordinates,
)
from .units import (
    PhysicalUnits,
    causal_speed,
    compton_from_omega,
    load_constants,
    mass_from_omega,
    omega_from_compton,
    omega_from_mass,
)

__version__ = "0.1.0"

__all__ = [
    "Event",
    "successors",
    "causally_precedes",
    "signal_trace",
    "is_causal_chain",
    "ObserverSpec",
    "RadarCoordinate",
    "FoliationLeaf",
    "CoordinateChart",
    "Window",
    "BoostFit",
    "ClockTicTac",
    "radar_coordinates",
    "foliation_leaf",
    "boost_map",
    "fit_lorentz",
    "einstein_clock",
    "default_scale",
    "PhysicalUnits",
    "causal_speed",
    "mass_from_omega",
    "omega_from_mass",
    "omega_from_compton",
    "compton_from_omega",
    "load_constants",
    "__version__",
]
