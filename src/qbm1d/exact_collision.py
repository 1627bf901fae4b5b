"""Exact two-particle hard-core collision in one dimension.

Closed-form solution of the two-particle Schroedinger equation with a
hard-core contact interaction, for matched-width Gaussian packets in the
centre-of-mass (COM) frame.  The solution is assembled from the two odd
eigenfunction families of the relative coordinate (the hard wall forbids
tunneling, so the amplitude vanishes identically for x_g' >= x').

Factorization
-------------
With matched widths (alpha sigma_g^2 = sigma^2) the envelope separates in
the weighted centre u = (x' + alpha x_g')/(1+alpha) and the separation
d = x' - x_g', since x'^2 + alpha x_g'^2 = (1+alpha) u^2 + alpha d^2/(1+alpha)
and the Jacobian is 1:

    psi = C U(u) D(d),   U = exp(-(1+alpha) u^2 / 2 s_t),
    D = exp(-alpha d^2 / 2 (1+alpha) s_t) (e^{dG} - e^{-dG})  for d > 0,

with s_t = sigma^2 + i hbar t/m and D = 0 for d <= 0.  |psi|^2 is four
Gaussian terms cut at the wall: the free direct and image product states,
of whole-plane weight 1, and their cross terms, of weight ov = <image|direct>,
constant in t.  Each term is its weight times its share on the physical
side, one kernel, ``_halfline_upper`` (via the Faddeeva function), so the
norm, <p>, the position marginal and the outgoing fidelity (the outgoing
product state is D's image term on the whole line) are closed forms, exact
at separations of many widths.  The momentum marginal is a Gaussian
smoothing of |D~|^2, D~ the transform of D (two more half-line terms) over
the momentum q conjugate to d, by one composite Gauss-Legendre rule in q
that all p' share; the transform of U only contributes a fixed Gaussian.

Conventions
-----------
All closed forms below live in the COM frame with

    x > 0,   p < 0,   x_g = -x / alpha,   p_g = -p,

where unprimed symbols are the Brownian packet label and the ``_g`` pair is
the gas packet label, fixed by it: a COM record holds (x, p) alone, and its
``gas_label`` derives (x_g, p_g).  ``com_condition`` makes every record;
``LabFrameCollision`` reduces lab labels to one, once, by a Galilean boost
plus (if needed) a spatial reflection, and maps marginals back.

The wavefunction implemented here agrees with the textbook-style spectral
construction to machine precision, reduces exactly to the initial product
state at t = 0, and carries a coordinate-independent, time-dependent global
phase (only its modulus is observable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._special import wofz
from .errors import TimeTooLate, ZeroRelativeMomentum
from .packets import CollisionPair
# unused here; the benchmark's tracer patches this binding too
# (perfbench/layers.py), and its traced runs raise KeyError without it
from .thermal import mean_relative_speed  # noqa: F401

__all__ = [
    "CollisionPair",
    "LabFrameCollision",
    "com_condition",
    "collision_time",
    "wavefunction",
    "two_particle_norm",
    "brownian_momentum_mean",
    "position_marginal",
    "momentum_marginal",
    "momentum_marginal_profile",
    "outgoing_fidelity",
    "collision_ratios",
]


@dataclass(frozen=True)
class COMInitialCondition:
    """The Brownian label (x, p) in the COM frame; it and alpha fix the gas label."""

    x: float
    p: float

    def gas_label(self, pair: CollisionPair) -> tuple[float, float]:
        """The gas packet label (x_g, p_g) = (-x / alpha, -p)."""
        return -self.x / pair.alpha, -self.p


def com_condition(pair: CollisionPair, x: float, p: float) -> COMInitialCondition:
    """Canonical COM condition from the Brownian label (x > 0, p < 0); ``pair``
    is the pair it is used with, the one whose alpha gives the gas label."""
    if not (x > 0 and p < 0):
        raise ValueError("canonical COM configuration needs x > 0 and p < 0: "
                         "the packets coincide or are receding")
    return COMInitialCondition(x=x, p=p)


def collision_time(pair: CollisionPair, p_g: float) -> float:
    """Duration of the collision, sqrt(8/(1+alpha)) sigma_g m_g / |p_g|."""
    if p_g == 0:
        raise ZeroRelativeMomentum("collision time undefined for p_g = 0")
    return math.sqrt(8.0 / (1.0 + pair.alpha)) * pair.gas_width * pair.gas_mass / abs(p_g)


def _core(pair: CollisionPair, init: COMInitialCondition, t: float):
    """Shared complex coefficients (st, X, G, pref, m0) of the closed-form
    solution at time t; X = x + i p sigma^2 / hbar is the complex label."""
    a, s, hb, m = pair.alpha, pair.brownian_width, pair.hbar, pair.brownian_mass
    x, p = init.x, init.p
    st = s**2 + 1j * hb * t / m
    X = x + 1j * p * s**2 / hb
    G = X / st
    pref = s * a**0.25 / (np.sqrt(np.pi) * st)
    m0 = -(1 + a) * (x + p * t / m) * X / (2 * a * st)
    return st, X, G, pref, m0


def wavefunction(pair: CollisionPair, init: COMInitialCondition, t: float, x_g_prime, x_prime):
    """Two-particle amplitude psi(t, x_g', x'); exactly 0 for x_g' >= x'.

    Vectorized over broadcastable coordinate arrays.  At t = 0 it is the
    product of the two packet amplitudes minus its mirror image in the wall
    d = x' - x_g' = 0, which enforces the hard wall.  Its two-particle norm is
    therefore 1 minus the overlap of the product with its image,

        1 - exp(-(1 + alpha) (x^2 / sigma^2 + p^2 sigma^2 / hbar^2) / alpha),

    constant in t (x, p the Brownian COM labels, sigma the Brownian width);
    it is 1 to double precision only for packets that start well apart, e.g.
    0.632 at alpha = 1, sigma = 1, x = 0.5, p = -0.5.
    """
    st, _, G, pref, m0 = _core(pair, init, t)
    xg = np.asarray(x_g_prime, dtype=float)
    xb = np.asarray(x_prime, dtype=float)
    d = xb - xg
    # one exponent per image term keeps each finite: exp(+-d G) alone
    # overflows, and the envelope underflows, for packets many widths apart
    log_env = -(xb**2 + pair.alpha * xg**2) / (2 * st) + m0
    out = pref * (np.exp(log_env + d * G) - np.exp(log_env - d * G))
    return np.where(d > 0, out, 0.0)


# ---------------------------------------------------------------------------
# closed forms on the half line d > 0
# ---------------------------------------------------------------------------

# |e^{dG} - e^{-dG}|^2 = sum_k _SIGNS[k] e^{B_k d} over the exponents of
# _exponents(G); (e^{G* d} - e^{-G* d})(e^{dG} + e^{-dG}) takes _FLUX_SIGNS.
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_FLUX_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _exponents(G):
    return np.array([2 * G.real, -2 * G.real, 2j * G.imag, -2j * G.imag])


def _halfline_upper(A, B, c, extra_log, full_log):
    """exp(extra_log) * integral_c^inf exp(-A u^2 + B u) du, stable form.

    Uses erfc(z) = exp(-z^2) w(iz), w the Faddeeva function, called only in
    the closed upper half-plane, where ``_special.wofz`` (Weideman's series)
    is within 2e-15 of it relative.  Vectorized and broadcast, so stacked
    terms take one call: each element takes the branch that cannot
    overflow; where Re z < 0 the complementary branch subtracts the tail
    below c from the whole-line value sqrt(pi/A) exp(full_log), which each
    caller forms in closed form (never as B^2/4A + extra_log, two parts that
    cancel for packets far apart), and carries w's error times
    |tail / (full - tail)|.
    """
    sqA = np.sqrt(A)
    z = (2 * A * c - B) / (2 * sqA)
    upper = np.real(z) >= 0
    tail = (0.5 * np.sqrt(np.pi / A) * np.exp(-A * c**2 + B * c + extra_log)
            * wofz(1j * np.where(upper, z, -z)))
    full = np.sqrt(np.pi / A) * np.exp(np.where(upper, -np.inf, full_log))
    return np.where(upper, tail, full - tail)


def _factorized(pair: CollisionPair, init: COMInitialCondition, t: float):
    """Pieces of psi = C U(u) D(d) at time t: (st, G, log C, A, kappa,
    log w, a_d, X, log pref).  a_d = alpha / (2 (1+alpha) st) is the rate of
    exp(-a_d d^2) in D, A = 2 Re a_d that of |D|^2, kappa = Re(1/st), X and
    pref are ``_core``'s, and w are the whole-plane weights (1, 1, ov, ov) of
    the terms of |psi|^2, ov = exp(-(1+alpha) |X|^2 / (alpha sigma^2))."""
    a, s = pair.alpha, pair.brownian_width
    st, X, G, pref, m0 = _core(pair, init, t)
    try:
        kappa = s**2 / abs(st) ** 2
    except OverflowError:
        raise TimeTooLate(f"|s_t|^2 overflows at t = {t:g}") from None
    log_ov = -(1 + a) * abs(X) ** 2 / (a * s**2)
    log_pref = np.log(pref)
    return (st, G, log_pref + m0, a * kappa / (1 + a), kappa,
            np.array([0.0, 0.0, log_ov, log_ov]), a / (2 * (1 + a) * st), X, log_pref)


def _density_moments(pair: CollisionPair, init: COMInitialCondition, t: float):
    """(a_d, G, A, B, I0): after the u integral term k of |psi|^2 is a
    multiple of exp(-A d^2 + B_k d) whose whole-line integral is w_k, and
    I0_k is its integral over d > 0."""
    _, G, log_c, A, kappa, log_w, a_d, *_ = _factorized(pair, init, t)
    B = _exponents(G)
    extra = 2 * np.real(log_c) + 0.5 * np.log(np.pi / ((1 + pair.alpha) * kappa))
    return a_d, G, A, B, _halfline_upper(A, B, 0.0, extra, log_w - 0.5 * np.log(np.pi / A))


def two_particle_norm(pair: CollisionPair, init: COMInitialCondition, t: float) -> float:
    """Two-particle norm integral of |psi(t)|^2, in closed form."""
    *_, i0 = _density_moments(pair, init, t)
    return float(np.real(_SIGNS @ i0))


def brownian_momentum_mean(pair: CollisionPair, init: COMInitialCondition, t: float) -> float:
    """<p_hat> of the Brownian particle at time t (exact expectation).

    d/dx' = d/du / (1+alpha) + d/dd; the u part vanishes because |U|^2 is
    even, and D* dD/dd is a sum of the same half-line terms and their first
    moments I1_k.  Since 2A I1_k = e^{extra} + B_k I0_k and the signs sum to
    0, sum_k s_k I1_k = sum_k s_k B_k I0_k / 2A.
    """
    a_d, G, A, B, i0 = _density_moments(pair, init, t)
    return pair.hbar * float(np.imag(G * (_FLUX_SIGNS @ i0) - a_d / A * (_SIGNS * B) @ i0))


def outgoing_fidelity(pair: CollisionPair, init: COMInitialCondition, t: float) -> float:
    """Squared overlap of psi(t) with the reflected free product state.

    The target is the freely evolving product of packets with labels
    (-x_g, -p_g) and (-x, -p): the outgoing state of a completed collision.
    It is, up to sign, the image term of psi, C U(u) e^{-dG} exp(-a_d d^2),
    taken on the whole line, so the overlap is the image term's overlap with
    psi on d > 0: the direct-image cross term of |psi|^2 minus the image
    term's own weight, terms 2 and 1 of ``_density_moments``.  Raises
    ValueError for t < 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    *_, i0 = _density_moments(pair, init, t)
    return float(abs(i0[2] - i0[1]) ** 2)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def position_marginal(pair: CollisionPair, init: COMInitialCondition, t: float, x_prime):
    """Brownian position density p(t, x') = integral dx_g' |psi|^2, closed form.

    Each term of |psi|^2 is a Gaussian in x_g' cut at the wall x_g' < x', so
    the density is a sum of four complementary error functions.  On the
    whole line term k is w_k sqrt(kappa/pi) exp(-kappa (x' - beta_k/2kappa)^2):
    the free direct packet at Re G / kappa = x + p t / m, its image, and the
    cross terms at +-i Im G / kappa.  Vectorized over ``x_prime``; returns a
    float for a scalar.
    """
    _, G, log_c, _, kappa, log_w, *_ = _factorized(pair, init, t)
    xb, beta = np.asarray(x_prime, dtype=float)[..., None], _exponents(G)
    # term k is exp(beta_k (x' - x_g')) over x_g' < x'; substitute v = -x_g' > -x'
    full = (log_w + np.log(kappa * np.sqrt(pair.alpha) / np.pi)
            - kappa * (xb - beta / (2 * kappa)) ** 2)
    terms = _halfline_upper(pair.alpha * kappa, beta, -xb,
                            2 * np.real(log_c) - kappa * xb**2 + beta * xb, full)
    # where every term underflows their signed sum can round to -5e-324
    out = np.maximum(np.real(terms @ _SIGNS), 0.0)
    return float(out) if out.ndim == 0 else out


position_marginal_erf = position_marginal  # former name; the benchmark's accuracy check calls it
position_marginal_profile_grid = position_marginal  # former name; the benchmark's tracer wraps it


# q rule of the momentum marginal: nodes per Gauss-Legendre panel; Gaussian
# stds each p' sums over; |D|^2 stds its reach adds to its centre; the wall
# distance r, in those stds, below which the spacing follows the reach (the
# packet's amplitude at the wall, exp(-r^2/4) of its peak, is below rounding
# from r = 12 on; a rule blind to the wall was off by 1e-9 of the peak
# density at r = 7.4, by 3e-13 at r = 9.8); the most (p', q) pairs at once;
# the most nodes one p' sums (late in a slow collision its window grows as t)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_N_G, _N_STD, _WALL_R, _BLOCK, _MAX_WIDTH = 9.0, 8.0, 12.0, 1 << 18, 1 << 20


def _q_rule(pair: CollisionPair, G, A, ps):
    """(g, q, w, start, width) of the q rule for the 1-D momenta ``ps``: the
    Gaussian std, the nodes and weights of the union of the panels the p'
    sum, and per p' the index in q of the first of its ``width`` nodes.
    |D|^2 is a Gaussian in d of centre |Re G|/A and std 1/sqrt(2A)
    (``_factorized``), r stds from the wall."""
    a, hb, s = pair.alpha, pair.hbar, pair.brownian_width
    g = hb / (s * math.sqrt(2 * (1 + a)))
    h = min(hb * math.sqrt(a / (2 * (1 + a))) / s, g) / 4
    r = abs(G.real) * math.sqrt(2 / A)
    if r < _WALL_R:
        h = min(h, hb * math.sqrt(2 * A) / (r + _N_STD))
    H = _GL_NODES.size * h
    n = math.ceil(2 * _N_G * g / H) + 1
    if n * _GL_NODES.size > _MAX_WIDTH:
        raise TimeTooLate(f"the momentum rule needs {n * _GL_NODES.size:.3g} nodes a momentum, "
                          f"above its budget of {_MAX_WIDTH}")
    k0 = np.floor((ps - _N_G * g) / H).astype(np.int64)
    panels = np.unique(k0[:, None] + np.arange(n))
    q = ((panels[:, None] + 0.5 * (_GL_NODES + 1)) * H).ravel()
    w = np.tile(0.5 * H * _GL_WEIGHTS, panels.size)
    return g, q, w, np.searchsorted(panels, k0) * _GL_NODES.size, n * _GL_NODES.size


def momentum_marginal(pair: CollisionPair, init: COMInitialCondition, t: float, p_prime,
                      return_nodes=False):
    """Brownian momentum density at p', from psi = C U(u) D(d).

    The momenta conjugate to u and d are P = p' + p_g' and q = (alpha p' -
    p_g')/(1+alpha), so psi~ = C U~(P) D~(q), with |U~(P)|^2 ~ exp(-sigma^2
    P^2 / ((1+alpha) hbar^2)) at every t.  At fixed p', P = (1+alpha)(p' - q):

        n(p') = |s_t| / (2 pi hbar^2) int dq exp(-(p' - q)^2 / 2 g^2) |D~(q)|^2,

    g = hbar / (sigma sqrt(2 (1+alpha))).  D~ is two half-line transforms,
    evaluated once per q node for all p'; a (p', node) pair costs one exp.
    16-node Gauss-Legendre panels sit on an absolute lattice, and each p'
    sums those within p' +- 9 g, so no density depends on the other momenta
    asked for.  The node spacing is min(q_std, g)/4, q_std = hbar sqrt(alpha
    / (2 (1+alpha))) / sigma the width of |D~|^2 of a packet clear of the
    wall.  Near the wall, wall and packet interfere and |D~|^2 varies on the
    scale hbar/reach, reach the centre of |D|^2 plus 8 of its stds, which
    then caps the spacing.  Vectorized over ``p_prime``; returns a float for
    a scalar.  ``return_nodes`` also returns the number of q nodes evaluated.
    """
    st, G, log_c, A, _, _, a_d, X, log_pref = _factorized(pair, init, t)
    ps = np.asarray(p_prime, dtype=float)
    flat = ps.ravel()
    g, q, w, start, width = _q_rule(pair, G, A, flat)
    k = q / pair.hbar
    # full-line exponents in closed form: B^2/4A + log C sums two parts of
    # ~(1+alpha) x^2/(2 alpha sigma^2) each that cancel
    full = log_pref + (1 + pair.alpha) / (2 * pair.alpha) * (
        1j * X * (init.p / pair.hbar - np.array([[2.0], [-2.0]]) * k) - k**2 * st)
    plus, minus = _halfline_upper(a_d, np.array([[G], [-G]]) - 1j * k, 0.0, log_c, full)
    f = w * np.abs(plus - minus) ** 2
    out = np.empty(flat.size)
    rows = max(1, _BLOCK // width)
    for i in range(0, flat.size, rows):
        idx = start[i:i + rows, None] + np.arange(width)
        gauss = np.exp(-(flat[i:i + rows, None] - q[idx]) ** 2 / (2 * g**2))
        out[i:i + rows] = np.sum(gauss * f[idx], axis=1)
    out = (abs(st) / (2 * np.pi * pair.hbar**2) * out).reshape(ps.shape)
    out = float(out) if out.ndim == 0 else out
    return (out, q.size) if return_nodes else out


momentum_marginal_profile = momentum_marginal  # former name; the benchmark's tracer wraps it


# ---------------------------------------------------------------------------
# collision diagnostics
# ---------------------------------------------------------------------------

def collision_ratios(pair: CollisionPair, init: COMInitialCondition) -> dict:
    """overlap_ratio, the initial separation over the combined widths;
    momentum_ratio m, the relative momentum over its quantum uncertainty; and
    label_map_error, the share Phi(-sqrt(2) m) = erfc(m)/2 of the incoming
    relative momentum that points away from the wall and never collides,
    as exp(-m^2) Re w(im) / 2, which does not round to 0 where 1 - erf(m) does."""
    widths = np.hypot(pair.gas_width, pair.brownian_width)
    x_g, p_g = init.gas_label(pair)
    m = abs(p_g) * pair.gas_width * float(np.sqrt(1 + pair.alpha)) / pair.hbar
    return {"overlap_ratio": abs(x_g - init.x) / float(widths), "momentum_ratio": m,
            "label_map_error": 0.5 * math.exp(-m * m) * float(wofz(1j * m).real)}


# ---------------------------------------------------------------------------
# lab frame wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabFrameCollision:
    """General-frame collision scenario reduced to the canonical COM form.

    The closed forms are valid only in the COM frame with the gas packet on
    the left and the packets approaching; arbitrary labels are normalized by
    a Galilean boost plus, when the gas sits on the right, a reflection.
    Marginal densities are mapped back through the same transformations.
    """

    pair: CollisionPair
    x_g: float
    p_g: float
    x: float
    p: float

    def __post_init__(self):
        self.com_init   # bad labels raise at construction

    @property
    def com_offset(self) -> float:
        pr = self.pair
        return (pr.brownian_mass * self.x + pr.gas_mass * self.x_g) / pr.total_mass

    @property
    def boost_velocity(self) -> float:
        return (self.p + self.p_g) / self.pair.total_mass

    @property
    def reflection(self) -> int:
        return -1 if self.x_g > self.x else 1

    @cached_property
    def com_init(self) -> COMInitialCondition:
        """``com_condition`` of the COM-frame Brownian label, built at construction."""
        a, s = self.pair.alpha, self.reflection
        return com_condition(self.pair, s * (a * (self.x - self.x_g) / (1 + a)),
                             s * ((a * self.p - self.p_g) / (1 + a)))

    def position_marginal(self, t: float, x_prime):
        """Brownian position density in the lab frame at time t."""
        shift = self.com_offset + self.boost_velocity * t
        return position_marginal(self.pair, self.com_init, t,
                                 self.reflection * (np.asarray(x_prime, dtype=float) - shift))

    def momentum_marginal(self, t: float, p_prime, return_nodes=False):
        """Brownian momentum density in the lab frame at time t."""
        shift = self.pair.brownian_mass * self.boost_velocity
        return momentum_marginal(self.pair, self.com_init, t,
                                 self.reflection * (np.asarray(p_prime, dtype=float) - shift),
                                 return_nodes)
