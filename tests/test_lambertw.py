import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxor import Branch, BranchDomainError, lambert_w
from relaxor.lambertw import w_plus_one
from relaxor.model import fast_heteroclinic
import relaxor.lambertw as lambertw_module


def bisect_w(x, lo, hi, iterations=200):
    """Independent bisection oracle for w * exp(w) = x on [lo, hi]."""
    f = lambda w: w * math.exp(w) - x
    assert f(lo) * f(hi) <= 0.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_w0_of_zero_and_one():
    assert lambert_w(Branch.PRINCIPAL, 0.0) == 0.0
    # frozen from the bisection oracle on [0, 1]
    assert lambert_w(Branch.PRINCIPAL, 1.0) == pytest.approx(0.5671432904097838, abs=1e-13)
    assert lambert_w(Branch.PRINCIPAL, 1.0) == pytest.approx(bisect_w(1.0, 0.0, 1.0), abs=1e-13)


def test_branch_point_values():
    x = -1.0 / math.e
    assert lambert_w(Branch.PRINCIPAL, x) == pytest.approx(-1.0, abs=1e-8)
    assert lambert_w(Branch.LOWER, x) == pytest.approx(-1.0, abs=1e-8)


def test_round_trip_both_branches(rng):
    w = rng.uniform(-30.0, 30.0, 10000)
    x = w * np.exp(w)
    upper = w >= -1.0
    back0 = lambert_w(Branch.PRINCIPAL, x[upper])
    rel0 = np.abs(back0 - w[upper]) / np.maximum(np.abs(w[upper]), 1e-12)
    assert np.max(rel0) < 1e-10
    back1 = lambert_w(Branch.LOWER, x[~upper])
    rel1 = np.abs(back1 - w[~upper]) / np.abs(w[~upper])
    assert np.max(rel1) < 1e-10


def test_residual_tolerance_across_domains():
    x0 = np.concatenate([np.linspace(-1 / math.e + 1e-12, 50.0, 3000),
                         np.geomspace(1e-12, 1e12, 500)])
    w0 = lambert_w(Branch.PRINCIPAL, x0)
    assert np.max(np.abs(w0 * np.exp(w0) - x0) / np.maximum(np.abs(x0), 1e-300)) < 1e-13
    x1 = -np.geomspace(1e-12, 1 / math.e - 1e-12, 3000)
    w1 = lambert_w(Branch.LOWER, x1)
    assert np.max(np.abs(w1 * np.exp(w1) - x1) / np.abs(x1)) < 1e-13


def test_monotonicity():
    x = np.linspace(-1 / math.e + 1e-10, 10.0, 2000)
    assert np.all(np.diff(lambert_w(Branch.PRINCIPAL, x)) >= 0.0)
    xn = np.linspace(-1 / math.e + 1e-10, -1e-10, 2000)
    assert np.all(np.diff(lambert_w(Branch.LOWER, xn)) <= 0.0)


@given(st.floats(-1 / math.e + 1e-9, -1e-9))
@settings(max_examples=200, deadline=None)
def test_branch_ordering(x):
    assert lambert_w(Branch.LOWER, x) < -1.0 < lambert_w(Branch.PRINCIPAL, x) + 2e-8


def test_domain_errors_carry_branch_and_argument():
    with pytest.raises(BranchDomainError) as err:
        lambert_w(Branch.PRINCIPAL, -0.5)
    assert err.value.branch is Branch.PRINCIPAL
    assert err.value.x == -0.5
    with pytest.raises(BranchDomainError):
        lambert_w(Branch.LOWER, 0.1)
    with pytest.raises(BranchDomainError):
        lambert_w(Branch.LOWER, -0.5)
    with pytest.raises(BranchDomainError):
        lambert_w(Branch.PRINCIPAL, float("nan"))
    with pytest.raises(BranchDomainError) as err:
        w_plus_one(Branch.LOWER, np.array([0.5, 1.0]))
    assert err.value.branch is Branch.LOWER
    with pytest.raises(BranchDomainError):
        w_plus_one(Branch.PRINCIPAL, float("nan"))


def test_w_plus_one_on_mixed_branches_matches_single_branch_calls():
    # s = 0, both sides of the 1e-4 switch to scipy, and s near 1 on W0
    s = np.array([0.0, 1e-12, 9.999e-5, 1e-4, 1.0001e-4, 0.3, 0.999, 1.0, 1.5])
    k = np.array([0, -1, 0, -1, -1, 0, -1, 0, 0])
    mixed = w_plus_one(k, s)
    for branch in Branch:
        on = k == branch.value
        assert np.array_equal(mixed[on], w_plus_one(branch, s[on]))
    # one branch index broadcasts against many offsets, and one offset against both branches
    assert np.array_equal(w_plus_one(np.array(-1), s[:7]), w_plus_one(Branch.LOWER, s[:7]))
    assert w_plus_one(np.array([0, -1]), 0.25).tolist() == [
        w_plus_one(Branch.PRINCIPAL, 0.25), w_plus_one(Branch.LOWER, 0.25)]


def test_w_plus_one_mixed_call_equals_scalar_calls_bitwise():
    # elements on both sides of the 1e-4 series cutoff, on both branches
    s = np.array([0.0, 3e-13, 2e-9, 5e-5, 9.999e-5, 1e-4, 2e-4, 0.01, 0.4, 0.97])
    k = np.array([-1, 0, -1, 0, -1, 0, -1, 0, -1, 0])
    mixed = w_plus_one(k, s)
    for got, index, offset in zip(mixed, k, s):
        assert got == w_plus_one(Branch(int(index)), float(offset))


def test_w_plus_one_skips_the_series_at_and_above_the_cutoff(monkeypatch):
    calls = []
    series = lambertw_module._series_plus_one

    def counted(lower, s):
        calls.append(np.size(s))
        return series(lower, s)

    monkeypatch.setattr(lambertw_module, "_series_plus_one", counted)
    w_plus_one(Branch.PRINCIPAL, 1e-4)
    w_plus_one(Branch.LOWER, 0.5)
    w_plus_one(np.array([0, -1]), np.array([1e-4, 0.3]))
    w_plus_one(np.array([[0], [-1]]), np.geomspace(1e-4, 0.99, 64))
    assert calls == []
    w_plus_one(np.array([0, -1]), np.array([9.999e-5, 0.3]))
    assert calls == [2]


@pytest.mark.parametrize("bad", [1.0, 1.5, float("nan")])
def test_w_plus_one_names_the_lower_branch_of_a_bad_mixed_element(bad):
    with pytest.raises(BranchDomainError) as err:
        w_plus_one(np.array([0, -1, 0]), np.array([2.0, bad, 0.5]))
    assert err.value.branch is Branch.LOWER
    assert "W-1" in str(err.value)


def test_w_plus_one_matches_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for s in [1e-20, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.05, 0.5, 0.99]:
        x = (mpmath.mpf(s) - 1) / mpmath.e
        for branch, index in ((Branch.PRINCIPAL, 0), (Branch.LOWER, -1)):
            truth = float(mpmath.re(mpmath.lambertw(x, index)) + 1)
            got = w_plus_one(branch, s)
            assert got == pytest.approx(truth, rel=2e-12, abs=1e-300)


def test_lambert_w_matches_high_precision_oracle():
    # Offsets s = e*x + 1 straddle the 1e-4 switch between the branch-point
    # series and scipy.  |dW/dx| ~ 1/sqrt(2s), so the last bit of x costs
    # ~1e-16/sqrt(s) relative: the bar widens below s = 1e-8.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for s in np.geomspace(1e-14, 0.999, 60):
        x = float((mpmath.mpf(s) - 1) / mpmath.e)
        rel = 2e-12 if s >= 1e-8 else 2e-9
        for branch, index in ((Branch.PRINCIPAL, 0), (Branch.LOWER, -1)):
            truth = float(mpmath.re(mpmath.lambertw(mpmath.mpf(x), index)))
            assert lambert_w(branch, x) == pytest.approx(truth, rel=rel), (branch, s)
    for branch in Branch:
        assert lambert_w(branch, -1.0 / math.e) == -1.0


def test_scipy_side_is_bitwise_scipy_special():
    # above the series cutoff both functions call the ufunc behind
    # scipy.special.lambertw as that wrapper does, and fast_heteroclinic is expit
    from scipy import special

    s = np.concatenate([[1.0001e-4], np.geomspace(2e-4, 0.5, 40),
                        1.0 - np.geomspace(1e-2, 1e-15, 14)])
    x = (s - 1.0) / math.e
    assert np.all(math.e * x + 1.0 > 1e-4)
    for branch in Branch:
        want = special.lambertw(x, branch.value).real
        assert np.array_equal(lambert_w(branch, x), want)
        assert np.array_equal(w_plus_one(branch, s), want + 1.0)
        for offset, value, w in zip(s, x, want):
            assert lambert_w(branch, float(value)) == w
            assert w_plus_one(branch, float(offset)) == w + 1.0
    k = -((np.arange(s.size) + np.array([[0], [1]])) % 2)  # both branches in each row
    assert np.array_equal(w_plus_one(k, s), special.lambertw(x, k).real + 1.0)
    tau = np.linspace(-40.0, 40.0, 161)
    for p1, p2 in ((1.3, 0.7), (0.4, 2.2)):
        assert np.array_equal(fast_heteroclinic(tau, p1, p2), special.expit((p1 - p2) * tau))
        assert fast_heteroclinic(0.37, p1, p2) == special.expit((p1 - p2) * 0.37)


def test_w_plus_one_signs_and_zero():
    assert w_plus_one(Branch.PRINCIPAL, 0.0) == 0.0
    assert w_plus_one(Branch.LOWER, 0.0) == 0.0
    assert w_plus_one(Branch.PRINCIPAL, 1e-6) > 0.0
    assert w_plus_one(Branch.LOWER, 1e-6) < 0.0
