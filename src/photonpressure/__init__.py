"""Photon-pressure coupled superconducting circuits: modeling, simulation
and fitting.

Subpackage map:

- :mod:`photonpressure.circuit` - circuit parameters from geometry
- :mod:`photonpressure.squid` - flux-tunable cavity and coupling rates
- :mod:`photonpressure.dynamics` - driven response, backaction, normal modes
- :mod:`photonpressure.noise` - sideband-pump spectra and calibration
- :mod:`photonpressure.fitting` - trace fits (engine in :mod:`.lsq`)
- :mod:`photonpressure.synth` - synthetic traces with background and noise
- :mod:`photonpressure.presets` - device parameter sets, each read by a command
- :mod:`photonpressure.cli` - command-line front end

The submodules load on first attribute access (PEP 562), so
``import photonpressure`` loads no numpy, and each command loads only the
modules it runs.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("circuit", "constants", "dynamics", "errors", "fitting", "lsq",
               "noise", "presets", "squid", "synth", "traces")

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        # the import statement's own path, unlike importlib.import_module's,
        # is what ``python -X importtime`` reports
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
