"""The guarantees on numpy's other CPU path.

Where the CPU has AVX-512, numpy sends ``exp`` and ``log`` to its own
AVX-512 loops; elsewhere it calls libm. The two differ in the last bits
(README, "Reproducibility"), and the order proof rests on both being
nondecreasing. The rest of the suite checks the path this host takes. The
test below reruns the tests that the order, max and accuracy guarantees
rest on in a fresh interpreter with the AVX-512 loops switched off.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
# numpy 2 names its AVX-512 dispatch targets X86_V4, AVX512_ICL and
# AVX512_SPR. numpy 1 names them AVX512F and AVX512_SKX; numpy 2 ignores
# those names, and numpy 1 the later ones.
AVX512 = (
    "X86_V4 AVX512_ICL AVX512_SPR"
    if int(np.__version__.split(".")[0]) >= 2
    else "AVX512F AVX512_SKX"
)
# The monotone scan that the order proof rests on, the accuracy bound
# against the 60-digit oracle, the order and max properties on seeded and
# drawn vectors, and ``achieved <= bound`` with ``p_star`` within ``TOL``
# of the root on seeded solves.
RERUN = (
    "tests/test_transforms.py::"
    "test_exp_and_log_are_nondecreasing_where_the_transform_uses_them",
    "tests/test_transforms.py::"
    "test_power_weights_within_its_error_bound_of_the_exact_quotient",
    "tests/test_transforms.py::test_power_guarantees_on_hard_vectors",
    "tests/test_acceptance.py::test_criterion_2_guarantee_suite",
    "tests/test_calibration.py::TestSolveExponent::test_achieved_never_exceeds_bound",
    "tests/test_calibration.py::TestSolveExponent::"
    "test_largest_feasible_within_tol_on_hard_cases",
)


def exp_digest() -> str:
    """A digest of the bits of ``np.exp`` and ``np.log`` on a fixed grid."""
    grid = np.linspace(0.0, 1.0, 100_001)[1:]
    bits = np.exp(-746.0 * grid).tobytes() + np.log(grid).tobytes()
    return hashlib.sha256(bits).hexdigest()


def test_the_guarantees_hold_with_the_avx512_loops_switched_off():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512}
    probe = subprocess.run(
        [sys.executable, "-c", "from test_cpu_paths import exp_digest; print(exp_digest())"],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
    )
    assert probe.returncode == 0, probe.stderr
    if probe.stdout.strip() == exp_digest():
        pytest.skip(
            f"NPY_DISABLE_CPU_FEATURES={AVX512!r} leaves the bits of np.exp and "
            f"np.log unchanged under numpy {np.__version__}: this host has no "
            "AVX-512, or numpy does not know these names"
        )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *RERUN],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert f"{len(RERUN)} passed" in run.stdout, run.stdout[-2000:]
