"""The exact collision's invariants over its parameter space.

Hypothesis draws COM configurations from the domain alpha in [0.02, 50]
(log-uniform), sigma in [0.3, 10], |p| in [0.05, 5], labels 0.5 to 200
Brownian widths apart (x - x_g = x (1 + alpha)/alpha) and times t in {0, 1/2,
1, 2, 10} t_meet, t_meet = m x/|p| the meeting of the free label centres.
The grid oracle is swept over the same alpha, sigma and |p|, with the packets
1 to 60 combined widths hypot(sigma, sigma_g) apart and the times {0, 1, 3}
t_c, on the smallest ``default_grid`` that ``grid_oracle._validate`` accepts.
Runs are derandomized, so tier-1 stays deterministic.  Each bound is a
multiple, about 3, of the largest error measured over 18,000 random
configurations of this domain, stated next to it; the oracle's is looser.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbm1d import exact_collision as ec, grid_oracle
from qbm1d.errors import GridTooCoarse, GridTooSmall
from qbm1d.packets import CollisionPair

NORM_TOL = 6e-15       # measured 2.1e-15
FIDELITY_TOL = 2e-15   # fidelity - norm, measured 6.7e-16
MASS_TOL = 8e-15       # measured 2.7e-15
ORACLE_TOL = 1e-10     # relative L2 distance, measured 3.4e-12 over 694 configurations
ORACLE_SIZES = (256, 512, 1024, 2048, 4096)
SWEEP = settings(max_examples=300, derandomize=True, deadline=None)


def _alpha_sigma_p(draw):
    alpha = math.exp(draw(st.floats(math.log(0.02), math.log(50.0))))
    return alpha, draw(st.floats(0.3, 10.0)), -draw(st.floats(0.05, 5.0))


@st.composite
def collisions(draw):
    """(pair, init, t) of one collision in the domain (module docstring)."""
    alpha, sigma, p = _alpha_sigma_p(draw)
    x = draw(st.floats(0.5, 200.0)) * sigma * alpha / (1 + alpha)
    t = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0])) * x / abs(p)
    pair = CollisionPair.matched(1.0, alpha, sigma)
    return pair, ec.com_condition(pair, x, p), t


def _position_grids(pair, init, t):
    """Uniform grids over the reach of |psi|^2's x' marginal, 40 free-packet
    stds about the direct and the image centre +-(x + p t/m); the cross
    terms lie under them.  Their spacing is a quarter of the std of the COM
    coordinate u, the scale that smooths the wall's cut, where the trapezoid
    rule's error is far below rounding."""
    s, a, m = pair.brownian_width, pair.alpha, pair.brownian_mass
    s_t = math.hypot(s * s, pair.hbar * t / m)
    reach, step = 40 * s_t / (s * math.sqrt(2)), s_t / (4 * s * math.sqrt(2 * (1 + a)))
    c = abs(init.x + init.p * t / m)
    edges = [(-c - reach, c + reach)] if c < reach else [(-c - reach, reach - c),
                                                         (c - reach, c + reach)]
    return [np.linspace(lo, hi, int(math.ceil((hi - lo) / step)) + 1) for lo, hi in edges]


@SWEEP
@given(collisions())
def test_exact_collision_invariants(collision):
    pair, init, t = collision
    with np.errstate(all="raise", under="ignore"):
        norm = ec.two_particle_norm(pair, init, t)
        fidelity = ec.outgoing_fidelity(pair, init, t)
        grids = _position_grids(pair, init, t)
        densities = [ec.position_marginal(pair, init, t, xs) for xs in grids]
    a, s = pair.alpha, pair.brownian_width
    overlap = math.exp(-(1 + a) * (init.x**2 / s**2 + init.p**2 * s**2 / pair.hbar**2) / a)
    assert abs(norm - (1 - overlap)) <= NORM_TOL
    assert fidelity <= norm + FIDELITY_TOL
    mass = sum(np.trapezoid(d, xs) for d, xs in zip(densities, grids))
    assert abs(mass - norm) <= MASS_TOL
    assert min(d.min() for d in densities) >= 0.0


@st.composite
def oracle_collisions(draw):
    """(pair, init) of one collision in the grid oracle's domain (module docstring)."""
    alpha, sigma, p = _alpha_sigma_p(draw)
    pair = CollisionPair.matched(1.0, alpha, sigma)
    apart = draw(st.floats(1.0, 60.0)) * math.hypot(sigma, pair.gas_width)
    return pair, ec.com_condition(pair, apart * alpha / (1 + alpha), p)


def _accepted_grid(pair, init, t_max):
    """The smallest ``default_grid`` of ``ORACLE_SIZES`` that ``_validate`` accepts, or None."""
    for n in ORACLE_SIZES:
        grid = grid_oracle.default_grid(pair, init, n, t_max=t_max)
        try:
            grid_oracle._validate(pair, init, grid)
        except (GridTooCoarse, GridTooSmall):
            continue
        return grid
    return None


@SWEEP
@given(oracle_collisions())
def test_grid_oracle_agrees_wherever_its_guard_accepts_the_grid(collision):
    pair, init = collision
    t_c = ec.collision_time(pair, init.p)
    grid = _accepted_grid(pair, init, 3 * t_c)
    assume(grid is not None)
    errors = grid_oracle.compare_to_analytic(pair, init, [0.0, t_c, 3 * t_c], grid)
    assert errors.max() <= ORACLE_TOL
