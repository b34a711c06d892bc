"""Photon-pressure coupled superconducting circuits: modeling, simulation
and fitting.

Subpackage map:

- :mod:`photonpressure.circuit` - circuit parameters from geometry
- :mod:`photonpressure.squid` - flux-tunable cavity and coupling rates
- :mod:`photonpressure.dynamics` - driven response, backaction, normal modes
- :mod:`photonpressure.noise` - sideband-pump spectra and calibration
- :mod:`photonpressure.fitting` - trace fits (engine in :mod:`.lsq`)
- :mod:`photonpressure.synth` - synthetic traces with background and noise
- :mod:`photonpressure.presets` - device parameter sets
- :mod:`photonpressure.cli` - command-line front end
"""

from . import (circuit, constants, dynamics, errors, fitting, lsq, noise,
               presets, squid, synth, traces)
from .presets import experiment_presets

__version__ = "0.1.0"

__all__ = [
    "circuit", "constants", "dynamics", "errors", "fitting", "lsq",
    "noise", "presets", "squid", "synth", "traces",
    "experiment_presets", "__version__",
]
