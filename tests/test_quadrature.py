import math

import numpy as np
import pytest

from relaxor.quadrature import phase, sine_gauss


def between(f, lo, hi, a, b):
    """Integral of f du, u = ln x, from the coordinate a to b along the first half."""
    return sine_gauss(f, lo, hi, phase(a, lo, hi), phase(b, lo, hi))


def test_smooth_integrands():
    # x = lo e^(d_lo), so the integral of x du is the integral of dx
    lo, hi = 0.5, 4.0
    x = lambda dl, dh, half: lo * np.exp(dl)
    assert between(x, lo, hi, lo, hi) == pytest.approx(hi - lo, abs=1e-13)
    # a sub-interval uses the same map of the enclosing interval
    assert between(x, lo, hi, 0.75, 3.5) == pytest.approx(2.75, abs=1e-13)
    u = lambda dl, dh, half: math.log(lo) + dl
    cubic = lambda dl, dh, half: u(dl, dh, half) ** 3 - 2.0 * u(dl, dh, half) + 1.0
    antiderivative = lambda t: t ** 4 / 4.0 - t ** 2 + t
    assert between(cubic, lo, hi, lo, hi) == pytest.approx(
        antiderivative(math.log(hi)) - antiderivative(math.log(lo)), abs=1e-12)
    # there and back again along the second half cancels a single-valued f
    assert sine_gauss(x, lo, hi, 0.3, 2.0 * math.pi + 0.3) == pytest.approx(0.0, abs=1e-13)


def test_inverse_square_root_endpoints():
    both = lambda dl, dh, half: 1.0 / np.sqrt(dl * dh)
    assert sine_gauss(both, 0.3, 2.1, 0.0, math.pi) == pytest.approx(math.pi, abs=1e-13)
    # du is negative on the way back from hi to lo
    assert sine_gauss(both, 0.3, 2.1, math.pi, 2.0 * math.pi) == pytest.approx(
        -math.pi, abs=1e-13)
    left = lambda dl, dh, half: 1.0 / np.sqrt(dl)
    for a in (1.000001, 1.4, math.e):
        assert between(left, 1.0, math.e, 1.0, a) == pytest.approx(
            2.0 * math.sqrt(math.log(a)), rel=1e-12)
    right = lambda dl, dh, half: 1.0 / np.sqrt(dh * (2.0 - dh))
    assert between(right, 1.0, math.e, 1.0, math.e) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_a_prey_minimum_far_below_the_maximum_costs_no_accuracy():
    # the integrand dx / x of an orbit's prey minimum, with both end factors:
    # in u the minimum 1e-8 of the maximum is no spike for the rule
    lo, hi = 4e-8, 4.0
    both = lambda dl, dh, half: 1.0 / np.sqrt(dl * dh)
    assert sine_gauss(both, lo, hi, 0.0, math.pi) == pytest.approx(math.pi, rel=1e-14)
    assert between(lambda dl, dh, half: np.ones_like(dl), lo, hi, lo, 1.0) == pytest.approx(
        -math.log(lo), rel=1e-14)
    near_lo = between(lambda dl, dh, half: 1.0 / np.sqrt(dl), lo, hi, lo, 3.0 * lo)
    assert near_lo == pytest.approx(2.0 * math.sqrt(math.log(3.0)), rel=1e-12)


def test_orientation_and_degenerate_interval():
    f = lambda dl, dh, half: 1.0 / np.sqrt(dl)
    forward = between(f, 1.0, 2.0, 1.0, 1.6)
    assert forward > 0.0
    # offsets are measured from lo and hi whichever way the phases run
    assert between(f, 1.0, 2.0, 1.6, 1.0) == pytest.approx(-forward, abs=1e-14)

    def never(dl, dh, half):
        raise AssertionError("an empty phase interval evaluates nothing")

    assert between(never, 1.0, 2.0, 1.3, 1.3) == 0.0
    assert sine_gauss(never, 1.0, 2.0, math.pi, math.pi) == 0.0


def test_endpoint_beyond_interval_is_clamped():
    lo, hi = 0.2, 3.7
    past_hi = np.nextafter(hi, np.inf)
    assert phase(past_hi, lo, hi) == math.pi
    assert phase(np.nextafter(lo, -np.inf), lo, hi) == 0.0
    f = lambda dl, dh, half: 1.0 / np.sqrt(dl * dh)
    assert between(f, lo, hi, hi, past_hi) == 0.0
    assert between(f, lo, hi, lo, past_hi) == between(f, lo, hi, lo, hi)


def test_endpoint_within_eight_ulps_is_snapped():
    # an end a few ulps inside is the same extremum computed elsewhere;
    # the ulps are those of the prey value, also where ln x is near 0
    for lo, hi in ((0.2, 3.7), (1.0 - 1e-6, 1.0 + 1e-6)):
        assert phase(hi - 8 * math.ulp(hi), lo, hi) == math.pi
        assert phase(lo + 8 * math.ulp(lo), lo, hi) == 0.0
        assert phase(hi - 9 * math.ulp(hi), lo, hi) < math.pi
        assert phase(lo + 9 * math.ulp(lo), lo, hi) > 0.0


def test_phase_of_a_point_far_from_both_ends():
    # the offset to hi is taken from the point, not from hi: hi - x rounds
    # to hi when x is below an ulp of hi
    lo, hi = 3e-17, 41.0
    mid = math.sqrt(lo * hi)
    assert phase(mid, lo, hi) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert 0.0 < phase(1e-16, lo, hi) < phase(mid, lo, hi)


def test_offsets_are_consistent_with_coordinates():
    seen = []

    def f(dl, dh, half):
        assert np.all((dl > 0.0) & (dh > 0.0))
        assert np.allclose(2.0 * np.exp(dl), 5.0 * np.exp(-dh), rtol=1e-14, atol=0.0)
        seen.append(np.unique(half).tolist())
        return np.ones_like(dl)

    assert between(f, 2.0, 5.0, 2.0, 5.0) == pytest.approx(math.log(2.5), abs=1e-14)
    # a path over three halves is one call, each node tagged with its half
    assert sine_gauss(f, 2.0, 5.0, 0.5 * math.pi, 2.5 * math.pi) == pytest.approx(
        0.0, abs=1e-14)
    assert seen == [[0], [0, 1, 2]]


def test_one_rule_of_40_nodes_per_half():
    sizes = []
    sine_gauss(lambda dl, dh, half: sizes.append(dl.shape) or np.ones_like(dl),
               0.5, 2.0, 0.5 * math.pi, 2.5 * math.pi)
    assert sizes == [(3, 40)]
