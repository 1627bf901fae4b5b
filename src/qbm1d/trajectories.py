"""Trajectory Monte Carlo unraveling of the collisional master equation.

Each trajectory is a Gaussian packet of fixed width sigma (matched widths
keep collisions Gaussian-preserving), carried by its phase-space label
(x, p).  Per coarse step delta a trajectory collides with probability
rate(p) * delta; the collision draws a gas momentum from the flux-weighted
Maxwell-Boltzmann distribution (Newton on its CDF from a tabulated quantile)
and applies the elastic collision map to the labels.  Ensemble averages of
the packet moments unravel the master equation's expectation values.  One
seeded rng stream drives the whole ensemble, so a seed fixes every path.

The flight offset
-----------------
Within a coarse step the gas partner's position is known only up to its
flight v_g eta, eta ~ U(-w delta, w delta) with w = ``gas_flight_window``.
The label map is linear, so the flight moves the outgoing label by the
flight offset -2 alpha/(1 + alpha) v_g eta and leaves its momentum alone.
The offsets add up to an excess position diffusion ~ delta^2, the
coarse-graining artifact under study; w = 0 (contact collisions) has none.
The collision instant is uniform in the step.  Each step thins its uniforms
against the rate at the largest |p| (Lewis & Shedler 1979): only the draws
below that bound take their own rate, and the hits are those of the
full-rate draw.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import PartnerNotConverged, StepTooLarge
from .exact_collision import collision_time
from .packets import CollisionPair, classical_collision_map
from .thermal import ThermalGasSpec, mean_relative_speed

__all__ = [
    "EnsembleStats",
    "ValidityWarning",
    "collision_rate",
    "sample_collision_partner",
    "step_ensemble",
    "run",
    "excess_position_msd",
]

_MAX_STEP_PROBABILITY = 0.1
_NEWTON_MAX_STEPS = 100
_SQRT_2PI = np.sqrt(2 * np.pi)
_KAPPA_MAX = 6.25              # the start table's top kappa node below the kink


class ValidityWarning(UserWarning):
    """Coarse-graining preconditions are strained (not enforced)."""


@dataclass(frozen=True)
class EnsembleStats:
    """Quantum moments of the trajectory ensemble with standard errors.

    Each moment is the ensemble mean of the label moment plus the packet's
    own pure-state covariance, its floor; the symmetrized cross moment of a
    label (x, p) is 2 x p.  A packet of width sigma that starts at t = 0
    spreads freely, so at time t its floors are

        <x^2>: sigma^2/2 + hbar^2 t^2 / (2 m^2 sigma^2)
        <{x,p}>: hbar^2 t / (m sigma^2)
        <p^2>: hbar^2 / (2 sigma^2)

    and collisions leave them as they are.  With matched widths
    (m sigma^2 = m_g sigma_g^2) both free packets have the complex width
    sigma^2 + i hbar t / m per unit mass, so in the mass-weighted coordinates
    (sqrt(m) x, sqrt(m_g) x_g) the pair is an isotropic Gaussian of age t.
    The label map conserves momentum and kinetic energy and acts alike on
    positions and velocities, so in those coordinates it is one orthogonal
    map: it moves the centres and keeps the isotropic shape.  The outgoing
    packet is therefore again a free packet of age t.  The standard errors
    are those of the label moments; the floors carry none.
    """

    t: float
    n: int
    mean_x: float
    mean_p: float
    mean_x2: float
    mean_xp: float
    mean_p2: float
    se_mean_x: float
    se_mean_p: float
    se_mean_x2: float
    se_mean_xp: float
    se_mean_p2: float

    @classmethod
    def from_phase_points(cls, t, x, p, pair: CollisionPair) -> "EnsembleStats":
        """Moments of the labels (x, p) at time t plus their floors.  The
        standard errors come from sums of squared deviations from the mean
        (two passes), free of the cancellation in s2/n - mean^2."""
        t, n = float(t), x.size
        mean, se, q, d = [], [], np.empty(n), np.empty(n)
        for a, b, k in ((x, 1.0, 1), (p, 1.0, 1), (x, x, 1), (x, p, 2), (p, p, 1)):
            mean.append(k * np.multiply(a, b, out=q).mean())   # {x, p} = 2 x p, exactly
            np.subtract(q, mean[-1] / k, out=d)
            se.append(k * np.sqrt(np.dot(d, d) / (n - 1) / n) if n > 1 else np.nan)
        mx, mp, mx2, mxp, mp2 = map(float, mean)
        s2, hb2, spread = pair.brownian_width**2, pair.hbar**2, t / pair.brownian_mass
        return cls(t, n, mx, mp, mx2 + s2 / 2 + hb2 * spread**2 / (2 * s2),
                   mxp + hb2 * spread / s2, mp2 + hb2 / (2 * s2), *map(float, se))


def collision_rate(p, gas: ThermalGasSpec, pair: CollisionPair):
    """Flux rate n_g E|v_g - v| against the mixture's full-T momenta; even in
    p and non-decreasing in |p|, with d/dv = n_g erf(v / (sqrt(2) s_u)) >= 0."""
    return gas.number_density * mean_relative_speed(gas, p, pair.brownian_mass)


def _flux_tail(b, z):
    """G_b(z) = b Phi(z) + phi(z), the flux mass below z <= b of the density
    |t - b| phi(t), and phi(z); G_b' = (b - z) phi."""
    phi = np.exp(-0.5 * z * z) / _SQRT_2PI
    return b * ndtr(z) + phi, phi


@functools.cache
def _quantile_table():
    """sample_collision_partner's start table by branch, kink and kappa node;
    the slope is sqrt(2 G_b(b) / phi(b)) at the kink, kappa = 0."""
    z = 0.05 * np.arange(-500, 501)
    cdf, pdf, s = ndtr(z), np.exp(-0.5 * z * z) / _SQRT_2PI, np.arange(341)
    table = np.empty((2, 161, 121))
    for branch, sgn in enumerate((1, -1)):
        k = np.minimum(np.arange(340, 661, 2), 500 if sgn < 0 else 660)[:, None]
        b, k = z[k], k - sgn * s                       # above the kink b <= 0
        g = b * cdf[k] + pdf[k]
        m = g[:, :1]                                   # G_b(b), at s = 0
        kappa = np.sqrt(np.abs(np.log((1 - sgn) * m + sgn * g) - np.log(m)))
        kink = np.repeat(np.sqrt(2 * m / pdf[k[:, :1]]), s.size, axis=1)
        slope = np.divide(0.05 * s, kappa, out=kink, where=kappa > 0)
        top = _KAPPA_MAX if sgn > 0 else np.sqrt(np.abs(np.log1p(-0.5 * b / m)))
        for row, nodes in enumerate(np.broadcast_to(top * np.linspace(0, 1, 121), (161, 121))):
            table[branch, row] = np.interp(nodes, kappa[row], slope[row])
    return table


def sample_collision_partner(p, gas: ThermalGasSpec, pair: CollisionPair, rng):
    """Gas momenta from the flux-weighted density ~ mu(p_g) |v_g - v|.

    Exact inverse-transform sampling of one uniform u per momentum.  In gas
    velocity units z = v_g / sqrt(kT/m_g) the density is |z - z_v| phi(z),
    zero at the kink z_v = v / sqrt(kT/m_g).  Its CDF is closed form:
    G_{z_v}(z) below the kink, 2 G_{z_v}(z_v) - G_{z_v}(z) above it, out of
    the total 2 G_{z_v}(z_v) - z_v, with G_b(z) = b Phi(z) + phi(z).

    Mirrored branch: the density is symmetric under (z, z_v) -> (-z, -z_v),
    so for u > 1/2 the draw is minus the (1 - u)-quantile of the density
    with kink -z_v.  Every inversion then solves F_b(z) = y for a mass y of
    at most half the total, counted from the lower tail, where the closed
    form keeps its relative precision.

    Newton on log F with F' = |z - b| phi(z) from a table of the slope
    |z - b| / kappa, kappa = sqrt|ln(y / G_b(b))|, finite at the kink: b in
    [-8, 8] by 0.1, 121 kappa nodes to 6.25 below the kink and to the median
    above it (b < 0), built on the first call from F_b on a z grid of step
    0.05, read bilinearly and clamped.  A step that leaves the bracket,
    [min(b, 0) - 10, b] below the kink or [b, max(b, 0) + 1] above, bisects;
    u = 0 gives its lower end.  Done at a step <= 1e-13 (1 + |z|) or residual
    <= 1e-13 F (<= 4 steps at thermal alpha <= 1), else PartnerNotConverged.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    su = np.sqrt(gas.kT / gas.gas_mass)
    zv = (p / pair.brownian_mass) / su
    u = rng.random(p.size)
    mirror = np.where(u > 0.5, -1.0, 1.0)
    b = mirror * zv
    m = _flux_tail(b, b)[0]                              # mass below the kink
    y = np.maximum(np.minimum(u, 1.0 - u) * (2 * m - b), 1e-300)
    # F = c + sgn G_b: G_b below the kink, 2 m - G_b above it
    sgn = np.where(y > m, -1.0, 1.0)
    c = (1.0 - sgn) * m
    lo = np.where(sgn < 0, b, np.minimum(b, 0.0) - 10.0)
    hi = np.where(sgn < 0, np.maximum(b, 0.0) + 1.0, b)
    # kappa in top-node units (above the kink: at the median m - b/2), m floored for b < -38
    log_y, mf = np.log(y), np.maximum(m, 1e-300)
    kappa = np.sqrt(np.abs(log_y - np.log(mf)))
    top = np.where(sgn < 0, np.sqrt(np.maximum(np.log1p(-0.5 * b / mf), 1e-300)), _KAPPA_MAX)
    _, n_b, n_t = _quantile_table().shape
    fb = np.clip((b + 8.0) * 10.0, 0.0, n_b - 1.000001)
    ft = np.clip(kappa / top * (n_t - 1), 0.0, n_t - 1.000001)
    i, j = fb.astype(np.intp), ft.astype(np.intp)
    k, wt, flat = ((sgn < 0) * n_b + i) * n_t + j, ft - j, _quantile_table().ravel()
    near, far = ((1 - wt) * flat[k + d] + wt * flat[k + d + 1] for d in (0, n_t))
    z = np.clip(b - sgn * kappa * (near + (fb - i) * (far - near)), lo, hi)
    for _ in range(_NEWTON_MAX_STEPS):
        g, phi = _flux_tail(b, z)
        f = c + sgn * g
        low = f < y
        lo, hi = np.where(low, z, lo), np.where(low, hi, z)
        # F' vanishes at the kink: the guard keeps the step finite, and a residual
        # of 1e-13 F ends steps that the rounding of F over F' would keep cycling
        new = z + (log_y - np.log(f)) * f / (np.abs(z - b) * phi + 1e-300)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = (np.abs(new - z) <= 1e-13 * (1.0 + np.abs(new))) | (np.abs(f - y) <= 1e-13 * f)
        z = new
        if done.all():
            break
    else:
        raise PartnerNotConverged(f"partner draws not done in {_NEWTON_MAX_STEPS} Newton steps")
    return gas.gas_mass * su * mirror * z


def _check_step(gas: ThermalGasSpec, pair: CollisionPair, delta: float, p=None):
    """StepTooLarge when rate * delta > 0.1, where two collisions in one step
    are not negligible, for the rate under the thermal laws of both particles
    (v_g - v is normal with variance (1 + alpha) kT/m_g) or at max |p|."""
    rates = {"thermal-law": gas.number_density * mean_relative_speed(
        gas, 0.0, pair.brownian_mass, temperature=gas.temperature * (1 + pair.alpha))}
    if p is not None:
        rates["initial-label"] = collision_rate(np.max(np.abs(p)), gas, pair)
    for law, rate in rates.items():
        if rate * delta > _MAX_STEP_PROBABILITY:
            raise StepTooLarge(f"{law} rate*delta = {float(rate * delta):.3f} "
                               f"> {_MAX_STEP_PROBABILITY}")


def _draw_collisions(p, gas: ThermalGasSpec, pair: CollisionPair, delta: float,
                     rng, gas_flight_window: float = 1.0):
    """Random part of one coarse step: (hit, tau, eta, p_g).

    ``hit`` holds the ascending indices of the colliding trajectories; for
    those, tau is the collision instant in the step, eta the unresolved gas
    flight time, uniform on +-gas_flight_window * delta (zeros at a window of
    0, which draws nothing), and p_g the partner's momentum.  Only uniforms
    below the bound rate(max |p|) * delta (+1e-9 relative, for rounding) take
    their own rate.
    """
    if gas_flight_window < 0:
        raise ValueError("gas_flight_window must be >= 0")
    bound = float(collision_rate(max(p.max(), -p.min()), gas, pair) * delta)
    u = rng.random(p.size)
    cand = np.flatnonzero(u < bound * (1 + 1e-9))
    hit = cand[u[cand] < collision_rate(p[cand], gas, pair) * delta]
    tau = eta = p_g = np.zeros(hit.size)
    if hit.size:
        tau = rng.uniform(0.0, delta, hit.size)
        if gas_flight_window > 0:
            eta = rng.uniform(-gas_flight_window * delta, gas_flight_window * delta,
                              hit.size)
        p_g = sample_collision_partner(p[hit], gas, pair, rng)
    return hit, tau, eta, p_g


def step_ensemble(x, p, gas: ThermalGasSpec, pair: CollisionPair, delta: float,
                  rng, gas_flight_window: float = 1.0):
    """Advance every trajectory by one coarse step; returns (x, p).  A hit
    drifts to contact, takes the label map against the gas label displaced by
    its flight, and drifts on.  The hits are written into a float ``p`` in
    place, which is returned; ``x`` is not modified."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    hit, tau, eta, p_g = _draw_collisions(p, gas, pair, delta, rng, gas_flight_window)
    ph = p[hit]
    xh = x[hit] + ph / pair.brownian_mass * tau          # drift to contact
    x_g_label = xh - (p_g / pair.gas_mass) * eta          # unresolved flight
    _, _, x_out, p_out = classical_collision_map(pair, x_g_label, p_g, xh, ph)
    v = p / pair.brownian_mass                           # x + v delta, the hits
    x = np.add(x, np.multiply(v, delta, out=v), out=v)   # are overwritten
    x[hit] = x_out + p_out / pair.brownian_mass * (delta - tau)
    p[hit] = p_out
    return x, p


def run(x0, p0, gas: ThermalGasSpec, pair: CollisionPair, horizon: float,
        delta: float, seed, gas_flight_window: float = 1.0):
    """Evolve an ensemble to the horizon, recording moments at every step,
    t = k delta for k = 0, ..., round(horizon / delta).

    ``x0``/``p0``, arrays of initial labels, are copied.  One rng stream, the
    first child of ``SeedSequence(seed)``, drives every path, so an identical
    seed reproduces the results bit for bit.  Raises StepTooLarge, before any
    step, when rate * delta > 0.1 under the thermal laws or at max |p0|.
    """
    x = np.array(x0, dtype=float)
    p = np.array(p0, dtype=float)
    _check_step(gas, pair, delta, p)
    n_steps = int(round(horizon / delta))
    t_typ = collision_time(pair, gas.thermal_momentum)
    if delta < 3 * t_typ:
        warnings.warn(
            f"coarse step delta = {delta:.3g} is not large against the "
            f"typical collision time {t_typ:.3g}; the instantaneous-collision "
            "picture is strained", ValidityWarning, stacklevel=2)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    series = [EnsembleStats.from_phase_points(0.0, x, p, pair)]
    for step in range(1, n_steps + 1):
        x, p = step_ensemble(x, p, gas, pair, delta, rng, gas_flight_window)
        series.append(EnsembleStats.from_phase_points(step * delta, x, p, pair))
    return series


def excess_position_msd(n: int, gas: ThermalGasSpec, pair: CollisionPair,
                        delta: float, horizon: float, seed,
                        gas_flight_window: float = 1.0):
    """(times, msd): the mean square of the summed flight offsets.

    A path carries its momentum, moved by the label map at each collision,
    and the running sum of its flight offsets -2 alpha/(1 + alpha) v_g eta,
    its position gap from contact collisions under the same draws.  The
    slope of msd in time is the excess position diffusion rate at this delta.
    Paths start with thermal momenta.  Raises StepTooLarge, before any step,
    when rate * delta > 0.1 under the thermal laws.
    """
    _check_step(gas, pair, delta)
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
    offset = np.zeros(n)
    share = 2 * pair.alpha / (1 + pair.alpha)
    n_steps = int(round(horizon / delta))
    msd = np.zeros(n_steps + 1)
    for step in range(1, n_steps + 1):
        hit, _, eta, p_g = _draw_collisions(p, gas, pair, delta, rng, gas_flight_window)
        offset[hit] -= share * (p_g / pair.gas_mass) * eta
        p[hit] = classical_collision_map(pair, 0.0, p_g, 0.0, p[hit])[3]
        msd[step] = np.mean(offset**2)
    return delta * np.arange(n_steps + 1), msd
