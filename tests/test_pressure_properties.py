"""Property tests of the pressure CG's preconditioner: symmetric and positive
in the Parseval inner product on zero-mean half-spectra."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from eulerlab.extensions import _DensityWork, _precondition  # noqa: E402
from eulerlab.grid_fields import _parseval_dot, make_grid  # noqa: E402

from _utils import random_band_limited_scalar, rng  # noqa: E402

GRID = make_grid(2, 16)
WORK = _DensityWork(GRID)


def zero_mean_spectrum(seed: int) -> np.ndarray:
    """The half-spectrum of a random real field, its mean mode removed."""
    hat = GRID.rfftn(rng(seed).standard_normal(GRID.shape))
    hat[0, 0] = 0.0
    return hat


def density(seed: int, amp: float) -> np.ndarray:
    return 1.0 + amp * random_band_limited_scalar(GRID, 3, seed).values


def dot(a: np.ndarray, b: np.ndarray) -> float:
    return _parseval_dot(a, b, GRID.parseval_weights)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 2**31), st.integers(0, 2**31),
       st.floats(0.0, 0.9))
def test_preconditioner_is_symmetric_and_positive(sx, sy, srho, amp):
    x, y = zero_mean_spectrum(sx), zero_mean_spectrum(sy)
    rho = density(srho, amp)
    px, py = _precondition(WORK, rho, x), _precondition(WORK, rho, y)
    assert dot(x, py) == pytest.approx(dot(px, y), rel=1e-12, abs=1e-14 * dot(x, px))
    assert dot(x, px) > 0.0
    assert dot(y, py) > 0.0

