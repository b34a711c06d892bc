import os
import sys

import pytest
from hypothesis import HealthCheck, settings

# allow running the tests from a checkout without installing the package
_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    try:
        import photonpressure  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def presets():
    from photonpressure.presets import _PRESETS, preset

    return {name: preset(name) for name in _PRESETS}
