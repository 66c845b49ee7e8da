"""relayosc: prediction and analysis of relay feedback self-oscillations.

Library layout:

- ``plant``          parsing, classification, companion-form realization
- ``numerics``       matrix exponential, eigenvector condition, ODE
- ``relay_dynamics`` exact event-driven simulation, exit times and maps
- ``bounds``         decay envelopes, ultimate ball, inter-switch bounds
- ``poincare``       return-map jacobians, spectral surveys, fixed points
- ``limit_cycle``    symmetric orbits, monodromy matrices, Floquet data
- ``sfs``            smooth tanh loop: root locus, Hopf, hyperbolicity
- ``artifacts``      the CSV and JSON artifact formats
- ``cli``            command-line toolkit over all of the above
"""

__version__ = "0.1.0"

from .plant import PlantClass, StateSpace, TransferFunction, classify, parse_plant, realize

__all__ = [
    "__version__",
    "TransferFunction",
    "StateSpace",
    "PlantClass",
    "parse_plant",
    "realize",
    "classify",
]
