import math

import numpy as np
import pytest

from relaxor.quadrature import _angle, sine_gauss


def test_smooth_integrands():
    f = lambda x, dl, dh: np.exp(x)
    assert sine_gauss(f, 0.0, 1.0, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-13)
    # a sub-interval uses the same map of the enclosing interval
    assert sine_gauss(f, -1.0, 2.0, 0.25, 1.5) == pytest.approx(
        math.exp(1.5) - math.exp(0.25), abs=1e-13)
    g = lambda x, dl, dh: x ** 3 - 2 * x + 1
    assert sine_gauss(g, -1.0, 2.0, -1.0, 2.0) == pytest.approx(3.75, abs=1e-12)


def test_inverse_square_root_endpoints():
    both = lambda x, dl, dh: 1.0 / np.sqrt(dl * dh)
    assert sine_gauss(both, 0.3, 2.1, 0.3, 2.1) == pytest.approx(math.pi, abs=1e-13)
    left = lambda x, dl, dh: 1.0 / np.sqrt(dl)
    for a in (1e-6, 0.4, 1.0):
        assert sine_gauss(left, 0.0, 1.0, 0.0, a) == pytest.approx(
            2.0 * math.sqrt(a), rel=1e-12)
    right = lambda x, dl, dh: 1.0 / np.sqrt(dh * (2.0 - dh))
    assert sine_gauss(right, 0.0, 1.0, 0.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_orientation_and_degenerate_interval():
    f = lambda x, dl, dh: 1.0 / np.sqrt(dl)
    forward = sine_gauss(f, 0.0, 1.0, 0.0, 0.6)
    assert forward > 0.0
    # offsets are measured from lo and hi whichever way the piece runs
    assert sine_gauss(f, 0.0, 1.0, 0.6, 0.0) == pytest.approx(-forward, abs=1e-14)
    assert sine_gauss(f, 0.0, 1.0, 0.3, 0.3) == 0.0


def test_endpoint_beyond_interval_is_clamped():
    lo, hi = 0.2, 3.7
    past_hi = np.nextafter(hi, np.inf)
    assert _angle(past_hi, lo, hi) == math.pi / 2.0
    assert _angle(np.nextafter(lo, -np.inf), lo, hi) == -math.pi / 2.0
    f = lambda x, dl, dh: 1.0 / np.sqrt(dl * dh)
    assert sine_gauss(f, lo, hi, hi, past_hi) == 0.0
    assert sine_gauss(f, lo, hi, lo, past_hi) == sine_gauss(f, lo, hi, lo, hi)


def test_endpoint_within_eight_ulps_is_snapped():
    # an end a few ulps inside is the same extremum computed elsewhere
    lo, hi = 0.2, 3.7
    assert _angle(hi - 8 * math.ulp(hi), lo, hi) == math.pi / 2.0
    assert _angle(lo + 8 * math.ulp(lo), lo, hi) == -math.pi / 2.0
    assert _angle(hi - 9 * math.ulp(hi), lo, hi) < math.pi / 2.0
    assert _angle(lo + 9 * math.ulp(lo), lo, hi) > -math.pi / 2.0


def test_offsets_are_consistent_with_coordinates():
    def f(x, dl, dh):
        assert np.all((dl > 0.0) & (dh > 0.0))
        assert np.allclose(x, 2.0 + dl, atol=1e-12)
        assert np.allclose(x, 5.0 - dh, atol=1e-12)
        return np.ones_like(x)

    assert sine_gauss(f, 2.0, 5.0, 2.0, 5.0) == pytest.approx(3.0, abs=1e-12)
