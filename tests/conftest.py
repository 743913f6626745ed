import numpy as np
import pytest

from relaxor import Params, assemble_singular_orbit, solve_jump_points

# benchmark jump coordinates (two-decimal reference values):
# (r, m), A = (p1A, p2A, zA), B = (p1B, p2B, zB)
#
# predpreyprey zB is corrected from the printed 1.39 to 1.14.  A and B
# join the q=1 and q=0 branches, so every orbit keeps the q=0 first
# integral h0(p2, z) = m ln p2 - m p2 + r ln z - z equal at A and B.
# The printed tuple gives h0(A) - h0(B) = 0.0905; h0 rises with p2 below 1
# and falls with z above r, so over the +-0.02 box the gap is smallest at
# the corner h0(0.31, 1.20) - h0(2.25, 1.37) = 0.0219 > 0, and no orbit
# lies within 0.02 of all six printed numbers.  Keeping the other five
# and solving h0(0.33, 1.18) = h0(2.27, zB) for zB > r gives 1.1429;
# pinning zB = 1.39 together with p1A or zA instead moves p2B by 0.29-0.30.
# The printed value is kept below and checked as inconsistent in the
# acceptance suite.
REFERENCE_ORBITS = {
    "predpreyprey": ((0.8, 1.0), (2.41, 0.33, 1.18), (0.29, 2.27, 1.14)),
    "predp2": ((0.5, 0.4), (4.27, 0.19, 0.70), (0.06, 2.69, 0.85)),
    "clockwise": ((0.5, 0.4), (0.97, 0.81, 2.00), (0.22, 4.28, 0.85)),
    "hybrid": ((0.5, 0.4), (1.81, 0.49, 1.35), (0.51, 1.59, 1.40)),
}

# the paper's printed predpreyprey zB, which breaks the q=0 first integral
PRINTED_PREDPREYPREY_ZB = 1.39

# pure prey-prey antiphase member at (r, m) = (0.5, 0.4); no predator
# extremum at the upward jump because p1A and p2A both sit below 1
ANTIPHASE_SEED = {"pin": {"p1A": 0.99, "zA": 1.75},
                  "guess": {"p2A": 0.9837, "zB": 1.1186}}

# zero-net-trait-pressure member at (0.5, 0.4): the orbit small-eps
# simulations settle onto (see orbit.trait_pressure_balance)
BALANCED_GUESS = {"p1A": 1.218, "p2A": 0.811,
                  "zA": 1.48624943, "zB": 1.48624943}


def numpy_scalar_field(p, eps):
    """The four equations evaluated on numpy scalars.

    Reference for ``vector_field``, which evaluates them on Python floats
    and must give bitwise the same derivatives.
    """
    r, m = p.r, p.m

    def rhs(t, y):
        p1, p2, z, q = y
        return ((1.0 - q * z) * p1,
                (r - (1.0 - q) * z) * p2,
                (q * p1 + (1.0 - q) * p2 - 1.0) * m * z,
                q * (1.0 - q) * (p1 - p2) / eps)

    return rhs


def solve_reference_orbit(name):
    (r, m), a, b = REFERENCE_ORBITS[name]
    p = Params(r, m)
    pair = solve_jump_points({"p1A": a[0], "zA": a[2]},
                             {"p2A": a[1], "zB": b[2]}, p)
    return p, pair


@pytest.fixture(scope="session")
def params_default():
    return Params(0.5, 0.4)


@pytest.fixture(scope="session")
def reference_pairs():
    """Solved jump pairs for the four benchmark orbits."""
    return {name: solve_reference_orbit(name) for name in REFERENCE_ORBITS}


@pytest.fixture(scope="session")
def reference_orbits(reference_pairs):
    """Assembled singular orbits for the four benchmark orbits."""
    return {name: (p, pair, assemble_singular_orbit(pair, p))
            for name, (p, pair) in reference_pairs.items()}


@pytest.fixture(scope="session")
def antiphase_orbit():
    p = Params(0.5, 0.4)
    pair = solve_jump_points(ANTIPHASE_SEED["pin"], ANTIPHASE_SEED["guess"], p)
    return p, pair, assemble_singular_orbit(pair, p)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
