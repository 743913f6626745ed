import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from relaxor import (
    ManifoldTag, Params, ParameterDomainError, SimConfig, SingularScalingError, State,
    UnscaledParams, characteristic_roots,
    coexistence_equilibrium, conserved_quantity, fast_heteroclinic, full_integral,
    full_rhs, integrate, rescale, slow_rhs, vector_field,
)
from relaxor.model import h0, h1
from relaxor.orbit import _chart

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


@pytest.mark.parametrize("change", [
    {"r2": 0.0}, {"e": -1.0}, {"m": 0.0}, {"q2": 1.5}, {"q2": -0.1}, {"V": 0.0},
    {"eps_raw": -0.01}, {"e": np.nan}, {"V": np.nan}, {"r1": np.inf},
])
def test_unscaled_params_refuse_values_outside_their_domain(change):
    with pytest.raises(ParameterDomainError):
        UnscaledParams(**{"r1": 1.0, "r2": 0.5, "m": 0.4, "e": 1.0, "q2": 1.0, **change})


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


def test_full_rhs_rejects_negative_eps_and_a_state_that_is_not_4_components():
    p = Params(0.5, 0.4)
    with pytest.raises(ParameterDomainError, match="eps must be finite and positive"):
        full_rhs(np.array([1, 1, 1, 0.5]), p, eps=-0.1)
    for state in ((1.0, 1.0, 1.0), np.ones((2, 4))):
        with pytest.raises(ParameterDomainError, match="expected a 4-component state"):
            full_rhs(state, p, eps=0.1)


def test_full_rhs_refuses_every_eps_that_is_not_finite_and_positive():
    # eps = 0 keeps its own message, which names slow_rhs
    p = Params(0.5, 0.4)
    for eps in (np.nan, np.inf, -np.inf, -0.1, -0.0):
        message = "slow_rhs" if eps == 0.0 else "eps must be finite and positive"
        with pytest.raises(ParameterDomainError, match=message):
            full_rhs(State(1.2, 0.9, 1.4, 0.5), p, eps)


def test_slow_rhs_refuses_a_density_that_is_not_finite_and_positive():
    p = Params(0.5, 0.4)
    for man in ManifoldTag:
        for s3 in ((np.nan, -1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, np.inf), (-0.5, 1.0, 1.0)):
            with pytest.raises(ParameterDomainError, match="densities p1, p2, z must be finite"):
                slow_rhs(s3, p, man)


def test_vector_field_bitwise_equals_numpy_scalar_formula():
    rng = np.random.default_rng(20261018)
    states = np.column_stack([rng.uniform(0.0, 5.0, (1000, 3)), rng.uniform(0.0, 1.0, 1000)])
    states[:100, 3] = 0.0
    states[100:200, 3] = 1.0
    for p, eps in ((Params(0.5, 0.4), 0.025), (Params(0.8, 1.0), 0.3)):
        fast, reference = vector_field(p, eps), numpy_scalar_field(p, eps)
        for y in states:
            assert np.array(fast(0.0, y)).tobytes() == np.array(reference(0.0, y)).tobytes()


def test_vector_field_on_many_states_bitwise_equals_stacked_single_calls():
    # the (4, n) form that samples a trajectory in one pass
    rng = np.random.default_rng(20261020)
    states = np.column_stack([rng.uniform(0.0, 5.0, (1000, 3)), rng.uniform(0.0, 1.0, 1000)])
    states[:100, 3] = 0.0
    states[100:200, 3] = 1.0
    for p, eps in ((Params(0.5, 0.4), 0.025), (Params(0.8, 1.0), 0.3)):
        field = vector_field(p, eps)
        many = np.array(field(0.0, states.T))
        assert many.shape == (4, len(states))
        # a (4,) call returns the field's own buffer: copy each one to keep it
        stacked = np.array([np.array(field(0.0, y)) for y in states]).T
        assert many.tobytes() == stacked.tobytes()


def test_a_single_state_call_returns_the_field_buffer_overwritten_by_the_next():
    field = vector_field(Params(0.5, 0.4), 0.025)
    first = field(0.0, np.array([1.3, 0.7, 1.1, 0.6]))
    kept = first.copy()
    second = field(0.0, np.array([0.9, 1.2, 1.4, 0.2]))
    assert second is first
    assert first.dtype == np.float64 and first.shape == (4,)
    assert not np.array_equal(first, kept)
    # a second field has its own buffer
    assert vector_field(Params(0.5, 0.4), 0.025)(0.0, np.array([1.3, 0.7, 1.1, 0.6])) is not first


def test_many_state_calls_return_fresh_arrays():
    field = vector_field(Params(0.5, 0.4), 0.025)
    states = np.array([[1.3, 0.9], [0.7, 1.2], [1.1, 1.4], [0.6, 0.2]])
    first = field(0.0, states)
    kept = first.copy()
    second = field(0.0, states[:, ::-1].copy())
    assert second is not first and not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    single = field(0.0, states[:, 0])
    assert not np.shares_memory(first, single)


def test_full_and_slow_rhs_results_survive_later_calls():
    p = Params(0.5, 0.4)
    first = full_rhs(np.array([1.3, 0.7, 1.1, 0.6]), p, eps=0.1)
    kept = first.copy()
    second = full_rhs(np.array([0.9, 1.2, 1.4, 0.2]), p, eps=0.1)
    assert first.tobytes() == kept.tobytes() and not np.shares_memory(first, second)
    slow = slow_rhs((1.3, 0.7, 1.1), p, ManifoldTag.M1)
    kept = slow.copy()
    slow_rhs((0.9, 1.2, 1.4), p, ManifoldTag.M1)
    assert slow.tobytes() == kept.tobytes()


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

def _full_integral_gradient(y, p, eps):
    """Gradient of H_eps written out by hand; ``y`` holds states along its last axis."""
    p1, p2, z, q = np.moveaxis(np.asarray(y, dtype=float), -1, 0)
    r, m = p.r, p.m
    return np.stack([1.0 - 1.0 / p1, 1.0 - 1.0 / p2, (1.0 - (1.0 + r) / z) / m,
                     -eps * (1.0 / q - r / (1.0 - q))], axis=-1)


def test_full_integral_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = Params(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2.0)))
        eps = float(rng.choice([0.01, 0.3, 1.0]))
        y = np.array([*rng.uniform(0.2, 4.0, 3), rng.uniform(0.05, 0.95)])
        step = 1e-6 * np.eye(4)
        central = [(full_integral(y + e, p, eps) - full_integral(y - e, p, eps)) / 2e-6
                   for e in step]
        assert np.allclose(central, _full_integral_gradient(y, p, eps), rtol=1e-6, atol=1e-8)


def test_full_integral_takes_a_state_or_stacked_states():
    p, eps = Params(0.5, 0.4), 0.1
    s = State(1.2, 0.9, 1.4, 0.3)
    rows = np.array([s.to_array(), [0.8, 1.1, 1.6, 0.7]])
    values = full_integral(rows, p, eps)
    assert values.shape == (2,)
    assert full_integral(s, p, eps) == values[0]
    assert full_integral(rows[1], p, eps) == values[1]
    with pytest.raises(ParameterDomainError):
        full_integral(np.ones(3), p, eps)


def test_vector_field_is_tangent_to_the_full_integral():
    rng = np.random.default_rng(5)
    for q in [1e-12, 1.0 - 1e-12, *rng.uniform(0.0, 1.0, 200)]:
        p = Params(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2.0)))
        eps = float(rng.choice([0.01, 0.025, 0.3, 1.0]))
        y = np.array([*rng.uniform(0.05, 5.0, 3), q])
        grad = _full_integral_gradient(y, p, eps)
        terms = grad * np.array(vector_field(p, eps)(0.0, y))
        assert abs(terms.sum()) <= 1e-12 * np.max(np.abs(terms))


@pytest.mark.parametrize("eps", [0.025, 0.01])
def test_full_integral_drift_along_integrate(eps):
    p = Params(0.5, 0.4)
    tr = integrate(State(1.18, 0.87, 1.5, 0.99), p, SimConfig(eps=eps, t_end=50.0))
    value = full_integral(tr.states, p, eps)
    assert np.max(np.abs(value - value[0])) < 1e-11
    assert tr.integral_drift() == np.max(np.abs(value - value[0]))


def test_integral_drift_is_none_on_an_invariant_trait_plane():
    # H_eps is infinite at q = 1, so no drift can be measured there
    p = Params(0.5, 0.4)
    tr = integrate(State(1.2, 0.9, 1.4, 1.0), p, SimConfig(eps=0.1, t_end=1.0, n_samples=10))
    assert tr.integral_drift() is None


# ---------------------------------------------------------------- slow flows

def test_slow_rhs_lv_equilibria_and_decoupled_growth():
    p = Params(0.5, 0.4)
    assert np.allclose(slow_rhs((1.7, 1.0, 0.5), p, ManifoldTag.M0), [1.7, 0.0, 0.0])
    assert np.allclose(slow_rhs((1.0, 0.8, 1.0), p, ManifoldTag.M1), [0.0, 0.4, 0.0])
    assert np.allclose(slow_rhs((2.0, 1.0, 0.5), p, ManifoldTag.M0), [2.0, 0.0, 0.0])


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
    for man in ManifoldTag:
        with pytest.raises(ParameterDomainError, match="densities p1, p2, z must be finite"):
            conserved_quantity(man, (1.0, np.nan, 1.0), p)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_params_and_state_require_finite_values(value):
    with pytest.raises(ParameterDomainError, match="m must be finite and positive"):
        Params(0.5, value)
    for k in range(3):
        densities = [1.2, 0.9, 1.4]
        densities[k] = value
        with pytest.raises(ParameterDomainError, match="finite and positive"):
            State(*densities, 0.5)


def test_manifold_facts_give_the_written_out_formulas_bitwise():
    # the slow manifolds' formulas written out one manifold at a time; the
    # facts that ManifoldTag states once must give them bit for bit
    assert list(ManifoldTag) == [ManifoldTag.M0, ManifoldTag.M1]
    rng = np.random.default_rng(20261020)
    for p in (Params(0.5, 0.4), Params(0.8, 1.0)):
        r, m = p.r, p.m
        assert _chart(ManifoldTag.M1, p) == (1.0, m)
        assert _chart(ManifoldTag.M0, p) == (r, m / r)
        prey, z = rng.uniform(1e-3, 5.0, (2, 500))
        assert h0(prey, z, p).tobytes() == (
            m * np.log(prey) - m * prey + r * np.log(z) - z).tobytes()
        assert h1(prey, z, p).tobytes() == (
            m * np.log(prey) - m * prey + np.log(z) - z).tobytes()
        for p1, p2, z in rng.uniform(1e-3, 5.0, (200, 3)).tolist():
            y3 = (p1, p2, z)
            assert conserved_quantity(ManifoldTag.M0, y3, p) == float(
                m * np.log(p2) - m * p2 + r * np.log(z) - z)
            assert conserved_quantity(ManifoldTag.M1, y3, p) == float(
                m * np.log(p1) - m * p1 + np.log(z) - z)
            for man, q in ((ManifoldTag.M0, 0.0), (ManifoldTag.M1, 1.0)):
                expected = np.array([(1.0 - q * z) * p1, (r - (1.0 - q) * z) * p2,
                                     (q * p1 + (1.0 - q) * p2 - 1.0) * m * z])
                assert slow_rhs(y3, p, man).tobytes() == expected.tobytes()


def test_h0_h1_match_conserved_quantity():
    p = Params(0.7, 1.1)
    assert h0(0.8, 1.2, p) == conserved_quantity(ManifoldTag.M0, (9.9, 0.8, 1.2), p)
    assert h1(0.8, 1.2, p) == conserved_quantity(ManifoldTag.M1, (0.8, 9.9, 1.2), p)
