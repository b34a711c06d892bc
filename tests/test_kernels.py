import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonpressure import kernels

TWO_PI = 2 * math.pi

ARGS = {
    "s11_bare": (TWO_PI * 5.844e9, TWO_PI * 163e3, TWO_PI * 28e3),
    "s11_pumped": (TWO_PI * 5.844e9, TWO_PI * 163e3, TWO_PI * 28e3,
                   TWO_PI * 391e6, TWO_PI * 22e3, TWO_PI * 250e3, -TWO_PI * 391e6),
    "lf_s11_pumped": (TWO_PI * 391e6, TWO_PI * 7.4e3, TWO_PI * 13.8e3,
                      TWO_PI * 30e3, -TWO_PI * 391e6, TWO_PI * 250e3),
    "psd_blue": (TWO_PI * 250e3, TWO_PI * 25e3, TWO_PI * 22e3, TWO_PI * 391e6,
                 TWO_PI * 27e3, TWO_PI * 391e6, 10.0, 0.0, 28.8),
}

GRIDS = {
    "s11_bare": TWO_PI * np.linspace(5.842e9, 5.846e9, 4001),
    "s11_pumped": TWO_PI * np.linspace(5.842e9, 5.846e9, 4001),
    "lf_s11_pumped": TWO_PI * np.linspace(390.5e6, 391.5e6, 4001),
    "psd_blue": TWO_PI * np.linspace(-391.3e6, -390.7e6, 4001),
}


# Values recorded from the kernels at fixed grid indices (symmetric about the
# resonance or the spectral peak); they pin the arithmetic, not just its shape.
GOLDEN_INDICES = [0, 1000, 1900, 2000, 2100, 3000, 4000]
GOLDEN = {
    "s11_bare": [
        0.999333020754366 - 0.013968151741023399j,
        0.9973501671381605 - 0.027746940961682287j,
        0.8601482721194035 - 0.14644159987450026j,
        0.7068062827225131 + 0j,
        0.8601482721194035 + 0.14644159987450026j,
        0.9973501671381605 + 0.027746940961682287j,
        0.999333020754366 + 0.013968151741023399j,
    ],
    "s11_pumped": [
        0.9993104397165375 - 0.014189292652293874j,
        0.9969671044373942 - 0.029557934537171832j,
        0.9844865066714388 + 0.04914770914084368j,
        0.9951534607035805 - 3.4631664902468906e-05j,
        0.9844418068605161 - 0.04924701180819021j,
        0.9969681985595416 + 0.02955269281745149j,
        0.9993105533635782 + 0.014188128135156129j,
    ],
    "lf_s11_pumped": [
        0.9993876535021681 - 0.027680350857823242j,
        0.9972856607737404 - 0.055711328482574735j,
        0.7203409443341484 - 0.3768707054428494j,
        0.22471909635199627 + 5.012736017316556e-05j,
        0.7203761007411216 + 0.37686005913550147j,
        0.997285711218704 + 0.05571081202154723j,
        0.9993876591564914 + 0.02768022312120196j,
    ],
    "psd_blue": [
        29.300457099366643,
        29.304934728836393,
        30.31650417703558,
        39.86860987836556,
        30.31650417703558,
        29.304934728836393,
        29.300457099366643,
    ],
}


@pytest.mark.parametrize("name", sorted(ARGS))
def test_kernel_golden_values(name):
    out = getattr(kernels, name)(GRIDS[name], *ARGS[name])
    assert out.shape == GRIDS[name].shape
    assert out.dtype == (np.float64 if name == "psd_blue" else np.complex128)
    np.testing.assert_allclose(out[GOLDEN_INDICES], GOLDEN[name], rtol=1e-13, atol=0)


def test_constants_are_codata_2022():
    from photonpressure import constants

    assert constants.epsilon_0 == 8.8541878188e-12
    assert constants.hbar == 1.0545718176461565e-34
    assert constants.k_B == 1.380649e-23
    assert constants.mu_0 == 1.25663706127e-06


def test_cli_import_loads_only_numpy_beyond_stdlib():
    # every package the CLI import pulls in is the standard library, numpy or
    # this package itself: a heavy optional dependency would show up here
    code = ("import sys; before = set(sys.modules); import photonpressure.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(kernels.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    loaded = set(out.stdout.split())
    stdlib = sys.stdlib_module_names
    third_party = {m for m in loaded if m not in stdlib and m.lstrip("_") not in stdlib}
    assert "photonpressure" in third_party
    assert third_party <= {"numpy", "photonpressure"}


def test_scalar_wrappers_match_kernels():
    from photonpressure.dynamics import s11_bare
    grid = GRIDS["s11_bare"]
    arr = s11_bare(grid, *ARGS["s11_bare"])
    one = s11_bare(grid[7], *ARGS["s11_bare"])
    assert isinstance(one, complex)
    assert one == arr[7]
