import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from relaxor import (
    ManifoldTag, Params, ParameterDomainError, SimConfig, SingularScalingError, State,
    UnscaledParams, UnsupportedManifoldError, characteristic_roots,
    coexistence_equilibrium, conserved_quantity, fast_heteroclinic, full_rhs,
    integrate, rescale, slow_rhs, vector_field,
)
from relaxor.model import h0, h1

from conftest import numpy_scalar_field


# ---------------------------------------------------------------- rescaling

def test_rescale_identity_on_parameters_when_r1_is_one():
    u = UnscaledParams(r1=1.0, r2=0.5, m=0.4, e=1.0, q2=1.0, V=1.0)
    params, scaling = rescale(u)
    assert params.r == pytest.approx(0.5, abs=0)
    assert params.m == pytest.approx(0.4, abs=0)
    assert scaling.to_rescaled_time(3.0) == pytest.approx(3.0)
    assert scaling.z_scale == 1.0


def _unscaled_rhs(y, u: UnscaledParams):
    # population and trait equations of the dimensional model (slow time),
    # written out independently of the package
    p1, p2, z, q = y
    dp1 = u.r1 * p1 - q * p1 * z
    dp2 = u.r2 * p2 - (1.0 - q) * p2 * z
    dz = u.e * q * p1 * z + u.e * (1.0 - q) * u.q2 * p2 * z - u.m * z
    dq = q * (1.0 - q) * u.V * u.e * (p1 - u.q2 * p2) / u.eps_raw
    return np.array([dp1, dp2, dz, dq])


def test_rescale_derived_example_and_round_trip():
    u = UnscaledParams(r1=2.0, r2=1.0, m=0.8, e=0.7, q2=0.6, V=1.3, eps_raw=0.05)
    params, scaling = rescale(u)
    assert params.r == pytest.approx(0.5, rel=1e-15)
    assert params.m == pytest.approx(0.4, rel=1e-15)

    # round trip state, time, eps
    s = State(1.7, 0.8, 1.1, 0.25)
    back = scaling.to_unscaled_state(scaling.to_rescaled_state(s))
    assert np.allclose(back.to_array(), s.to_array(), rtol=1e-15)
    assert scaling.to_unscaled_time(scaling.to_rescaled_time(2.7)) == pytest.approx(2.7)
    assert scaling.to_unscaled_eps(scaling.to_rescaled_eps(0.05)) == pytest.approx(0.05)

    # substituting the map into the dimensional equations must reproduce
    # the two-parameter vector field: d(resc)/d(resc time) = unscaled rhs
    # mapped through the coordinate scales and the time scale
    eps = scaling.to_rescaled_eps(u.eps_raw)
    rng = np.random.default_rng(7)
    for _ in range(25):
        y_tilde = np.array([rng.uniform(0.2, 3), rng.uniform(0.2, 3),
                            rng.uniform(0.2, 3), rng.uniform(0.05, 0.95)])
        s_tilde = State.from_array(y_tilde)
        y_orig = scaling.to_unscaled_state(s_tilde).to_array()
        scales = np.array([scaling.p1_scale, scaling.p2_scale, scaling.z_scale, 1.0])
        mapped = _unscaled_rhs(y_orig, u) * scaling.t_scale / scales
        assert np.allclose(mapped, full_rhs(s_tilde, params, eps), rtol=1e-12)


def test_rescale_rejects_violated_trade_off():
    with pytest.raises(ParameterDomainError):
        UnscaledParams(r1=1.0, r2=1.5, m=0.4, e=1.0, q2=1.0)


def test_rescale_rejects_zero_preference():
    u = UnscaledParams(r1=1.0, r2=0.5, m=0.4, e=1.0, q2=0.0)
    with pytest.raises(SingularScalingError):
        rescale(u)


def test_unscaled_params_require_unit_predation_rates():
    with pytest.raises(ParameterDomainError):
        UnscaledParams(r1=1.0, r2=0.5, m=0.4, e=1.0, q2=1.0, beta1=1.0, beta2=2.0)
    with pytest.raises(ParameterDomainError):
        UnscaledParams(r1=1.0, r2=0.5, m=0.4, e=1.0, q2=1.0, beta1=2.0, beta2=2.0)


# ---------------------------------------------------------------- vector field

def test_full_rhs_vanishes_at_coexistence_equilibrium():
    for r in np.linspace(0.1, 0.9, 9):
        for m in np.linspace(0.1, 2.0, 10):
            p = Params(float(r), float(m))
            eq = coexistence_equilibrium(p)
            assert np.max(np.abs(full_rhs(eq, p, eps=0.1))) < 1e-12


def test_full_rhs_on_q_zero_plane_matches_slow_flow():
    p = Params(0.5, 0.4)
    y = np.array([1.7, 0.9, 1.3, 0.0])
    deriv = full_rhs(y, p, eps=0.3)
    assert deriv[3] == 0.0
    assert np.allclose(deriv[:3], slow_rhs(y[:3], p, ManifoldTag.M0), rtol=1e-15)


def test_full_rhs_trait_frozen_on_switching_plane():
    p = Params(0.5, 0.4)
    deriv = full_rhs(np.array([1.2, 1.2, 0.8, 0.5]), p, eps=0.05)
    assert deriv[3] == 0.0


def test_full_rhs_rejects_singular_limit():
    p = Params(0.5, 0.4)
    with pytest.raises(ParameterDomainError, match="slow_rhs"):
        full_rhs(np.array([1, 1, 1, 0.5]), p, eps=0.0)


def test_vector_field_bitwise_equals_numpy_scalar_formula():
    rng = np.random.default_rng(20261018)
    states = np.column_stack([rng.uniform(0.0, 5.0, (1000, 3)), rng.uniform(0.0, 1.0, 1000)])
    states[:100, 3] = 0.0
    states[100:200, 3] = 1.0
    for p, eps in ((Params(0.5, 0.4), 0.025), (Params(0.8, 1.0), 0.3)):
        fast, reference = vector_field(p, eps), numpy_scalar_field(p, eps)
        for y in states:
            assert np.array(fast(0.0, y)).tobytes() == np.array(reference(0.0, y)).tobytes()


def test_slow_rhs_bitwise_equals_numpy_scalar_formula_on_slow_planes():
    rng = np.random.default_rng(20261019)
    slow = rng.uniform(0.0, 5.0, (1000, 3))
    for p in (Params(0.5, 0.4), Params(0.8, 1.0)):
        reference = numpy_scalar_field(p, 1.0)
        for man, q in ((ManifoldTag.M0, 0.0), (ManifoldTag.M1, 1.0)):
            for y3 in slow:
                expected = np.array(reference(0.0, np.append(y3, q))[:3])
                assert slow_rhs(y3, p, man).tobytes() == expected.tobytes()


def test_full_rhs_accepts_state_list_and_tuple():
    p = Params(0.5, 0.4)
    values = (1.3, 0.7, 1.1, 0.6)
    expected = full_rhs(np.array(values), p, eps=0.1)
    for s in (State(*values), list(values), values):
        assert np.array_equal(full_rhs(s, p, eps=0.1), expected)


@given(p1=st.floats(0.0, 5.0), p2=st.floats(0.0, 5.0), z=st.floats(0.0, 5.0),
       q=st.sampled_from([0.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_invariant_planes(p1, p2, z, q):
    deriv = full_rhs(np.array([p1, p2, z, q]), Params(0.5, 0.4), eps=0.1)
    assert deriv[3] == 0.0
    if p1 == 0.0:
        assert deriv[0] == 0.0
    if p2 == 0.0:
        assert deriv[1] == 0.0
    if z == 0.0:
        assert deriv[2] == 0.0


# ---------------------------------------------------------- first integral

def _full_integral(y, p, eps):
    """H_eps, conserved by the four equations for every eps > 0.

    H_eps = (p1 - ln p1) + (p2 - ln p2) + (z - (1+r) ln z)/m
            - eps (ln q + r ln(1-q)),
    returned with its gradient; ``y`` holds states along its last axis.
    """
    p1, p2, z, q = np.moveaxis(np.asarray(y, dtype=float), -1, 0)
    r, m = p.r, p.m
    value = ((p1 - np.log(p1)) + (p2 - np.log(p2)) + (z - (1.0 + r) * np.log(z)) / m
             - eps * (np.log(q) + r * np.log1p(-q)))
    grad = np.stack([1.0 - 1.0 / p1, 1.0 - 1.0 / p2, (1.0 - (1.0 + r) / z) / m,
                     -eps * (1.0 / q - r / (1.0 - q))], axis=-1)
    return value, grad


def test_vector_field_is_tangent_to_the_full_integral():
    rng = np.random.default_rng(5)
    for q in [1e-12, 1.0 - 1e-12, *rng.uniform(0.0, 1.0, 200)]:
        p = Params(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2.0)))
        eps = float(rng.choice([0.01, 0.025, 0.3, 1.0]))
        y = np.array([*rng.uniform(0.05, 5.0, 3), q])
        _, grad = _full_integral(y, p, eps)
        terms = grad * np.array(vector_field(p, eps)(0.0, y))
        assert abs(terms.sum()) <= 1e-12 * np.max(np.abs(terms))


@pytest.mark.parametrize("eps", [0.025, 0.01])
def test_full_integral_drift_along_integrate(eps):
    p = Params(0.5, 0.4)
    tr = integrate(State(1.18, 0.87, 1.5, 0.99), p, SimConfig(eps=eps, t_end=50.0))
    value, _ = _full_integral(tr.states, p, eps)
    assert np.max(np.abs(value - value[0])) < 1e-11


# ---------------------------------------------------------------- slow flows

def test_slow_rhs_lv_equilibria_and_decoupled_growth():
    p = Params(0.5, 0.4)
    assert np.allclose(slow_rhs((1.7, 1.0, 0.5), p, ManifoldTag.M0), [1.7, 0.0, 0.0])
    assert np.allclose(slow_rhs((1.0, 0.8, 1.0), p, ManifoldTag.M1), [0.0, 0.4, 0.0])
    assert np.allclose(slow_rhs((2.0, 1.0, 0.5), p, ManifoldTag.M0), [2.0, 0.0, 0.0])


def test_slow_rhs_rejects_switching_plane():
    with pytest.raises(UnsupportedManifoldError):
        slow_rhs((1.0, 1.0, 1.0), Params(0.5, 0.4), ManifoldTag.MSW)


# ---------------------------------------------------------------- fast layer

def test_fast_heteroclinic_gauge_and_limits():
    assert fast_heteroclinic(0.0, 2.0, 1.0) == pytest.approx(0.5, abs=0)
    assert fast_heteroclinic(123.4, 1.5, 1.5) == pytest.approx(0.5, abs=0)
    assert fast_heteroclinic(1e6, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert fast_heteroclinic(-1e6, 2.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # saturates without overflow
    assert np.isfinite(fast_heteroclinic(1e300, 3.0, 0.5))


def test_fast_heteroclinic_solves_layer_equation():
    h = 1e-4
    for p1, p2 in [(2.0, 0.5), (0.4, 1.3), (1.2, 1.1)]:
        for tau in (-3.0, -0.4, 0.0, 0.7, 2.5):
            q = fast_heteroclinic(tau, p1, p2)
            dq = (fast_heteroclinic(tau + h, p1, p2)
                  - fast_heteroclinic(tau - h, p1, p2)) / (2 * h)
            assert dq == pytest.approx(q * (1 - q) * (p1 - p2), abs=1e-6)


def test_fast_heteroclinic_monotone():
    taus = np.linspace(-30, 30, 501)
    q = fast_heteroclinic(taus, 2.0, 1.0)
    assert np.all(np.diff(q) >= 0.0)


# ------------------------------------------------------- conserved quantities

def test_conserved_quantity_center_values():
    p = Params(0.5, 0.4)
    expected0 = -p.m + p.r * np.log(p.r) - p.r
    assert conserved_quantity(ManifoldTag.M0, (2.2, 1.0, p.r), p) == pytest.approx(expected0)
    assert conserved_quantity(ManifoldTag.M1, (1.0, 3.3, 1.0), p) == pytest.approx(-p.m - 1.0)


def test_conserved_quantity_rejects_bad_input():
    p = Params(0.5, 0.4)
    with pytest.raises(ParameterDomainError):
        conserved_quantity(ManifoldTag.M0, (1.0, -0.5, 1.0), p)
    with pytest.raises(UnsupportedManifoldError):
        conserved_quantity(ManifoldTag.MSW, (1.0, 1.0, 1.0), p)


@pytest.mark.parametrize("man", [ManifoldTag.M0, ManifoldTag.M1])
def test_conserved_quantity_drift_along_slow_flow(man):
    p = Params(0.5, 0.4)
    y0 = np.array([1.4, 0.6, 0.9])
    sol = solve_ivp(lambda t, y: slow_rhs(y, p, man), (0.0, 10.0), y0,
                    rtol=1e-10, atol=1e-10, dense_output=True)
    samples = sol.sol(np.linspace(0.0, 10.0, 200)).T
    values = [conserved_quantity(man, s, p) for s in samples]
    assert np.ptp(values) < 1e-8


# ------------------------------------------------------------- linearization

def test_coexistence_equilibrium_values():
    eq = coexistence_equilibrium(Params(0.5, 0.4))
    assert (eq.p1, eq.p2, eq.z, eq.q) == (1.0, 1.0, 1.5, pytest.approx(2.0 / 3.0))
    eq8 = coexistence_equilibrium(Params(0.8, 1.0))
    assert (eq8.z, eq8.q) == (pytest.approx(1.8), pytest.approx(5.0 / 9.0))


def test_characteristic_roots_against_quadratic_oracle():
    p = Params(0.5, 0.4)
    roots = characteristic_roots(p)
    # independent oracle: numpy companion-matrix roots of the quartic
    b = (p.m + 2 * p.r + p.m * p.r ** 2) / (1 + p.r)
    assert b == pytest.approx(1.0)
    assert p.m * p.r == pytest.approx(0.2)
    ref = np.roots([1.0, 0.0, b, 0.0, p.m * p.r])
    assert np.allclose(sorted(roots.imag), sorted(ref.imag), atol=1e-12)
    assert np.allclose(np.abs(roots.imag)[:2], 0.5257311121, atol=1e-9)
    assert np.allclose(np.abs(roots.imag)[2:], 0.8506508083, atol=1e-9)


def test_characteristic_roots_purely_imaginary_on_grid():
    for r in np.linspace(0.1, 0.9, 9):
        for m in np.linspace(0.1, 2.0, 10):
            roots = characteristic_roots(Params(float(r), float(m)))
            assert np.max(np.abs(roots.real)) < 1e-12
            # conjugate, sign-symmetric pairs and Vieta's product
            assert roots[0] == np.conj(roots[1])
            assert roots[2] == np.conj(roots[3])
            prod = np.prod(roots)
            assert prod.real == pytest.approx(float(r) * float(m), rel=1e-12)


# ----------------------------------------------------------------- validation

def test_params_and_state_invariants():
    with pytest.raises(ParameterDomainError):
        Params(1.0, 0.4)
    with pytest.raises(ParameterDomainError):
        Params(0.5, 0.0)
    with pytest.raises(ParameterDomainError):
        State(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ParameterDomainError):
        State(1.0, 1.0, 1.0, 1.2)


def test_h0_h1_match_conserved_quantity():
    p = Params(0.7, 1.1)
    assert h0(0.8, 1.2, p) == conserved_quantity(ManifoldTag.M0, (9.9, 0.8, 1.2), p)
    assert h1(0.8, 1.2, p) == conserved_quantity(ManifoldTag.M1, (0.8, 9.9, 1.2), p)
