"""Event-counting relativity and zigzag field dynamics on causal networks.

The package splits into four layers:

* :mod:`causalqca.lattice` -- the homogeneous lightcone lattice (events and
  their causal order),
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
reproducible experiment runs.  Import every name from its submodule.
"""
