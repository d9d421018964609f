"""The violin density: a Gaussian KDE with Silverman's bandwidth, in numpy."""

import math

import numpy as np
import pytest

from brierlab.figures import _kde_outline


def _normal_pdf(x, h):
    return math.exp(-0.5 * (x / h) ** 2) / (h * math.sqrt(2 * math.pi))


def test_two_samples_match_hand_computed_density():
    grid, density, bandwidth = _kde_outline(np.array([0.0, 1.0]))
    # sd = sqrt(1/2) with ddof=1; Silverman's factor is (3N/4) ** (-1/5) = 1.5 ** -0.2
    h = 1.5**-0.2 * math.sqrt(0.5)
    assert bandwidth == pytest.approx(h, rel=1e-15, abs=0)
    assert grid.size == 81
    assert grid[0] == pytest.approx(-2 * h, rel=1e-15, abs=0)
    assert grid[-1] == pytest.approx(1 + 2 * h, rel=1e-15, abs=0)
    for x, value in zip(grid, density):
        expected = (_normal_pdf(x, h) + _normal_pdf(x - 1.0, h)) / 2
        assert value == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("samples", [[0.3], [0.3, 0.3, 0.3], [0.0] * 50])
def test_zero_spread_has_no_outline(samples):
    assert _kde_outline(np.array(samples)) is None


@pytest.mark.parametrize("n", [2, 200, 1000, 5000])
def test_matches_scipy_gaussian_kde(n):
    stats = pytest.importorskip("scipy.stats")
    samples = np.random.default_rng(n).beta(2.0, 5.0, size=n)
    grid, density, bandwidth = _kde_outline(samples)
    kde = stats.gaussian_kde(samples, bw_method="silverman")
    reference = float(kde.factor) * np.std(samples, ddof=1)
    assert bandwidth == pytest.approx(reference, rel=1e-15, abs=0)
    np.testing.assert_allclose(density, kde(grid), rtol=1e-12, atol=0)
