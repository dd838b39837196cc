import os
import subprocess
import sys
from pathlib import Path

import gwtrees


def test_import_skips_scipy_signal():
    # scipy.signal costs over a second at import; the FFT path needs only scipy.fft
    env = dict(os.environ, PYTHONPATH=str(Path(gwtrees.__file__).parents[1]))
    code = "import gwtrees, sys; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_stable_numerics_skip_scipy_interpolate():
    # scipy.interpolate costs import time and resident memory; p1 and the
    # passage integral read only the Hermite grid
    env = dict(os.environ, PYTHONPATH=str(Path(gwtrees.__file__).parents[1]))
    code = ("import gwtrees, sys; law = gwtrees.StableLaw(1.5); gwtrees.density_p1(law, 0.3); "
            "gwtrees.passage_integral(law, 0.5, 1.0); print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
