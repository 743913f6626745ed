import math

import numpy as np
import pytest

from relaxor.quadrature import phase, sine_gauss


def between(f, lo, hi, a, b):
    """Integral of f dx from the coordinate a to b along the first half."""
    return sine_gauss(f, lo, hi, phase(a, lo, hi), phase(b, lo, hi))


def test_smooth_integrands():
    f = lambda x, dl, dh, half: np.exp(x)
    assert between(f, 0.0, 1.0, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-13)
    # a sub-interval uses the same map of the enclosing interval
    assert between(f, -1.0, 2.0, 0.25, 1.5) == pytest.approx(
        math.exp(1.5) - math.exp(0.25), abs=1e-13)
    g = lambda x, dl, dh, half: x ** 3 - 2 * x + 1
    assert between(g, -1.0, 2.0, -1.0, 2.0) == pytest.approx(3.75, abs=1e-12)
    # there and back again along the second half cancels a single-valued f
    assert sine_gauss(f, -1.0, 2.0, 0.3, 2.0 * math.pi + 0.3) == pytest.approx(0.0, abs=1e-13)


def test_inverse_square_root_endpoints():
    both = lambda x, dl, dh, half: 1.0 / np.sqrt(dl * dh)
    assert sine_gauss(both, 0.3, 2.1, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-13)
    # dx is negative on the way back from hi to lo
    assert sine_gauss(both, 0.3, 2.1, math.pi, 2.0 * math.pi) == pytest.approx(
        -math.pi, abs=1e-13)
    left = lambda x, dl, dh, half: 1.0 / np.sqrt(dl)
    for a in (1e-6, 0.4, 1.0):
        assert between(left, 0.0, 1.0, 0.0, a) == pytest.approx(2.0 * math.sqrt(a), rel=1e-12)
    right = lambda x, dl, dh, half: 1.0 / np.sqrt(dh * (2.0 - dh))
    assert between(right, 0.0, 1.0, 0.0, 1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_orientation_and_degenerate_interval():
    f = lambda x, dl, dh, half: 1.0 / np.sqrt(dl)
    forward = between(f, 0.0, 1.0, 0.0, 0.6)
    assert forward > 0.0
    # offsets are measured from lo and hi whichever way the phases run
    assert between(f, 0.0, 1.0, 0.6, 0.0) == pytest.approx(-forward, abs=1e-14)

    def never(x, dl, dh, half):
        raise AssertionError("an empty phase interval evaluates nothing")

    assert between(never, 0.0, 1.0, 0.3, 0.3) == 0.0
    assert sine_gauss(never, 0.0, 1.0, math.pi, math.pi) == 0.0


def test_endpoint_beyond_interval_is_clamped():
    lo, hi = 0.2, 3.7
    past_hi = np.nextafter(hi, np.inf)
    assert phase(past_hi, lo, hi) == math.pi
    assert phase(np.nextafter(lo, -np.inf), lo, hi) == 0.0
    f = lambda x, dl, dh, half: 1.0 / np.sqrt(dl * dh)
    assert between(f, lo, hi, hi, past_hi) == 0.0
    assert between(f, lo, hi, lo, past_hi) == between(f, lo, hi, lo, hi)


def test_endpoint_within_eight_ulps_is_snapped():
    # an end a few ulps inside is the same extremum computed elsewhere
    lo, hi = 0.2, 3.7
    assert phase(hi - 8 * math.ulp(hi), lo, hi) == math.pi
    assert phase(lo + 8 * math.ulp(lo), lo, hi) == 0.0
    assert phase(hi - 9 * math.ulp(hi), lo, hi) < math.pi
    assert phase(lo + 9 * math.ulp(lo), lo, hi) > 0.0


def test_offsets_are_consistent_with_coordinates():
    seen = []

    def f(x, dl, dh, half):
        assert np.all((dl > 0.0) & (dh > 0.0))
        assert np.allclose(x, 2.0 + dl, atol=1e-12)
        assert np.allclose(x, 5.0 - dh, atol=1e-12)
        seen.append(np.unique(half).tolist())
        return np.ones_like(x)

    assert between(f, 2.0, 5.0, 2.0, 5.0) == pytest.approx(3.0, abs=1e-12)
    # a path over three halves is one call, each node tagged with its half
    assert sine_gauss(f, 2.0, 5.0, 0.5 * math.pi, 2.5 * math.pi) == pytest.approx(
        0.0, abs=1e-12)
    assert seen == [[0], [0, 1, 2]]
