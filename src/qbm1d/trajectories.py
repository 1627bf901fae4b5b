"""Trajectory Monte Carlo unraveling of the collisional master equation.

Each trajectory is a Gaussian packet of fixed width sigma (matched widths
keep collisions Gaussian-preserving), carried by its phase-space label
(x, p).  Per coarse step delta a trajectory collides with probability
rate(p) * delta; the collision draws a gas momentum from the flux-weighted
Maxwell-Boltzmann distribution and applies the elastic collision map to the
labels.  Ensemble averages of the packet moments unravel the master
equation's expectation values.

Coarse-graining position model
------------------------------
Within one coarse step the colliding gas packet's position is known only to
its flight over the step, so the position-exchange rule is evaluated with a
gas label displaced by v_g * eta, eta ~ U(-w*delta, +w*delta) (mean-zero:
an unbiased step-resolution uncertainty).  This injects an excess position
diffusion proportional to delta^2 - the coarse-graining artifact under
study.  ``gas_flight_window = 0`` recovers contact collisions (exactly
continuous trajectories, no artifact).  The collision instant itself is
uniform in the step by default; ``timing="midpoint"`` pins it to delta/2
for comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .errors import StepTooLarge
from .packets import CollisionPair, classical_collision_map
from .thermal import ThermalGasSpec, mean_relative_speed

__all__ = [
    "JumpPolicy",
    "EnsembleStats",
    "ValidityWarning",
    "collision_rate",
    "sample_collision_partner",
    "step_ensemble",
    "run",
    "excess_position_msd",
    "typical_collision_time",
]

_MAX_STEP_PROBABILITY = 0.1
_NEWTON_MAX_STEPS = 100
_SQRT_2PI = np.sqrt(2 * np.pi)


class ValidityWarning(UserWarning):
    """Coarse-graining preconditions are strained (not enforced)."""


@dataclass(frozen=True)
class JumpPolicy:
    """Collision stepping switches.

    timing: "uniform" draws the collision instant uniformly in the step,
    "midpoint" always uses delta/2.  gas_flight_window scales the
    unresolved gas flight (0 = contact collisions; 1 = one full step).
    """

    timing: str = "uniform"
    gas_flight_window: float = 1.0

    def __post_init__(self):
        if self.timing not in ("uniform", "midpoint"):
            raise ValueError("timing must be 'uniform' or 'midpoint'")
        if self.gas_flight_window < 0:
            raise ValueError("gas_flight_window must be >= 0")


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
        return cls.from_moments(t, _chunk_moments(x, p)).with_floors(pair)

    @classmethod
    def from_moments(cls, t, moments) -> "EnsembleStats":
        """Label moments, without floors, from one (n, means, M2) record of
        ``_chunk_moments``, merged or not."""
        n = int(moments[0])
        mean = moments[1:6]
        se = np.sqrt(moments[6:] / (n - 1) / n) if n > 1 else np.full(5, np.nan)
        return cls(float(t), n, *map(float, mean), *map(float, se))

    def with_floors(self, pair: CollisionPair) -> "EnsembleStats":
        s2 = pair.brownian_width**2
        hb2 = pair.hbar**2
        spread = self.t / pair.brownian_mass
        return replace(self,
                       mean_x2=self.mean_x2 + s2 / 2 + hb2 * spread**2 / (2 * s2),
                       mean_xp=self.mean_xp + hb2 * spread / s2,
                       mean_p2=self.mean_p2 + hb2 / (2 * s2))


def collision_rate(p, gas: ThermalGasSpec, pair: CollisionPair):
    """Flux rate n_g E|v_g - v| against the mixture's full-T momenta."""
    return gas.number_density * mean_relative_speed(gas, p, pair.brownian_mass)


def typical_collision_time(gas: ThermalGasSpec, pair: CollisionPair) -> float:
    """Collision duration at the thermal momentum scale sqrt(m_g k_B T)."""
    a = pair.alpha
    return np.sqrt(8 / (1 + a)) * pair.gas_width * pair.gas_mass / gas.thermal_momentum


def _flux_tail(b, z):
    """G_b(z) = b Phi(z) + phi(z), the flux mass below z <= b of the density
    |t - b| phi(t), and phi(z); G_b' = (b - z) phi."""
    phi = np.exp(-0.5 * z * z) / _SQRT_2PI
    return b * ndtr(z) + phi, phi


def sample_collision_partner(p, gas: ThermalGasSpec, pair: CollisionPair, rng):
    """Gas momenta from the flux-weighted density ~ mu(p_g) |v_g - v|.

    Exact inverse-transform sampling of one uniform u per momentum.  In gas
    velocity units z = v_g / sqrt(kT/m_g) the density is |z - z_v| phi(z),
    zero at the kink z_v = v / sqrt(kT/m_g).  Its CDF is closed form:
    G_{z_v}(z) below the kink, 2 G_{z_v}(z_v) - G_{z_v}(z) above it, out of
    the total G_{z_v}(z_v) + G_{-z_v}(-z_v), with G_b(z) = b Phi(z) + phi(z).

    Mirrored branch: the density is symmetric under (z, z_v) -> (-z, -z_v),
    so for u > 1/2 the draw is minus the (1 - u)-quantile of the density
    with kink -z_v.  Every inversion then solves F_b(z) = y for a mass y of
    at most half the total, counted from the lower tail, where the closed
    form keeps its relative precision.

    Newton on log F with F' = |z - b| phi(z), started from the quadratic
    expansion of F at the kink b.  The bracket is [min(b, 0) - 10, b] when
    the root lies below the kink and [b, max(b, 0) + 1] above it (the median
    lies there); a step that leaves the closed bracket falls back to
    bisection.  Each element stops at a step <= 1e-13 (1 + |z|); the target
    mass is floored at the bracket's lower end, so u = 0 returns that end.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    su = np.sqrt(gas.kT / gas.gas_mass)
    zv = (p / pair.brownian_mass) / su
    u = rng.random(p.size)
    mirror = np.where(u > 0.5, -1.0, 1.0)
    b = mirror * zv
    m, phi_b = _flux_tail(b, b)                        # mass below the kink
    y = np.minimum(u, 1.0 - u) * (m + _flux_tail(-b, -b)[0])
    # F = c + sgn G_b: G_b below the kink, 2 m - G_b above it
    sgn = np.where(y > m, -1.0, 1.0)
    c = (1.0 - sgn) * m
    lo = np.where(sgn < 0, b, np.minimum(b, 0.0) - 10.0)
    hi = np.where(sgn < 0, np.maximum(b, 0.0) + 1.0, b)
    f_lo = c + sgn * _flux_tail(b, lo)[0]
    y = np.maximum(y, f_lo)
    z = np.clip(b - sgn * np.sqrt(2 * np.abs(y - m) / np.maximum(phi_b, 1e-300)), lo, hi)
    log_y = np.log(y)
    for _ in range(_NEWTON_MAX_STEPS):
        g, phi = _flux_tail(b, z)
        f = c + sgn * g
        low = f < y
        lo = np.where(low, z, lo)
        hi = np.where(low, hi, z)
        # F' vanishes at the kink; the guard keeps the step finite there
        new = z + (log_y - np.log(f)) * f / (np.abs(z - b) * phi + 1e-300)
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - z) <= 1e-13 * (1.0 + np.abs(new))
        z = new
        if done.all():
            break
    return gas.gas_mass * su * mirror * z


def _draw_collisions(p, gas: ThermalGasSpec, pair: CollisionPair, delta: float,
                     rng, policy: JumpPolicy):
    """Random part of one coarse step: (hit, tau, eta, p_g).

    ``hit`` marks the colliding trajectories; for those, tau is the collision
    instant in the step, eta the unresolved gas flight time (zeros at
    ``gas_flight_window = 0``, which draws nothing) and p_g the partner's
    momentum.  Raises StepTooLarge as ``step_ensemble`` does.
    """
    rate = collision_rate(p, gas, pair)
    worst = float(np.max(rate) * delta)
    if worst > _MAX_STEP_PROBABILITY:
        raise StepTooLarge(f"rate*delta = {worst:.3f} > {_MAX_STEP_PROBABILITY}")
    hit = rng.random(p.size) < rate * delta
    n_hit = int(np.count_nonzero(hit))
    tau = eta = p_g = np.zeros(n_hit)
    if n_hit:
        if policy.timing == "uniform":
            tau = rng.uniform(0.0, delta, n_hit)
        else:
            tau = np.full(n_hit, delta / 2)
        if policy.gas_flight_window > 0:
            eta = rng.uniform(-policy.gas_flight_window * delta,
                              policy.gas_flight_window * delta, n_hit)
        p_g = sample_collision_partner(p[hit], gas, pair, rng)
    return hit, tau, eta, p_g


def _apply_collisions(x, p, hit, tau, eta, p_g, pair: CollisionPair, delta: float):
    """New (x, p) after one step: free flight, or drift to contact, the label
    map against a gas label displaced by its flight over eta, and drift on."""
    x = x.copy()
    p = p.copy()
    ph = p[hit]
    xh = x[hit] + ph / pair.brownian_mass * tau          # drift to contact
    x_g_label = xh - (p_g / pair.gas_mass) * eta          # unresolved flight
    _, _, x_out, p_out = classical_collision_map(pair, x_g_label, p_g, xh, ph)
    x[hit] = x_out + p_out / pair.brownian_mass * (delta - tau)
    p[hit] = p_out
    x[~hit] += p[~hit] / pair.brownian_mass * delta
    return x, p


def step_ensemble(x, p, gas: ThermalGasSpec, pair: CollisionPair, delta: float,
                  rng, policy: JumpPolicy = JumpPolicy()):
    """Advance every trajectory by one coarse step; returns new (x, p).

    Raises StepTooLarge when any trajectory's rate * delta exceeds 0.1
    (two-collision events would no longer be negligible).
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return _apply_collisions(x, p, *_draw_collisions(p, gas, pair, delta, rng, policy),
                             pair, delta)


def _chunk_sizes(n, n_chunks):
    base, extra = divmod(n, n_chunks)
    return [base + (1 if i < extra else 0) for i in range(n_chunks)]


def run(x0, p0, gas: ThermalGasSpec, pair: CollisionPair, horizon: float,
        delta: float, seed, policy: JumpPolicy = JumpPolicy(),
        n_chunks: int = 1, record_every: int = 1):
    """Evolve an ensemble to the horizon, recording moments every step.

    ``x0``/``p0`` are arrays of initial labels.  The ensemble is partitioned
    into ``n_chunks`` sub-ensembles with independent rng streams derived
    from ``seed``; identical (seed, n_chunks) reproduce results bit for bit
    and chunk statistics merge associatively.
    """
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = x0.size
    n_steps = int(round(horizon / delta))
    t_typ = typical_collision_time(gas, pair)
    if delta < 3 * t_typ:
        warnings.warn(
            f"coarse step delta = {delta:.3g} is not large against the "
            f"typical collision time {t_typ:.3g}; the instantaneous-collision "
            "picture is strained", ValidityWarning, stacklevel=2)
    n_rec = n_steps // record_every + 1
    merged = None
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    offset = 0
    for size, child in zip(_chunk_sizes(n, n_chunks), children):
        rng = np.random.default_rng(child)
        x = x0[offset:offset + size].copy()
        p = p0[offset:offset + size].copy()
        offset += size
        moments = np.empty((n_rec, 11))
        moments[0] = _chunk_moments(x, p)
        for step in range(1, n_steps + 1):
            x, p = step_ensemble(x, p, gas, pair, delta, rng, policy)
            if step % record_every == 0:
                moments[step // record_every] = _chunk_moments(x, p)
        merged = moments if merged is None else _merge_moments(merged, moments)
    return [EnsembleStats.from_moments(i * record_every * delta, row).with_floors(pair)
            for i, row in enumerate(merged)]


def _chunk_moments(x, p):
    """(n, means, M2) of the label moments x, p, x^2, 2xp, p^2 of one chunk,
    M2 the sum of squared deviations from the mean (two-pass)."""
    q = np.empty((5, x.size))
    q[0] = x
    q[1] = p
    np.multiply(x, x, out=q[2])
    np.multiply(x, 2 * p, out=q[3])
    np.multiply(p, p, out=q[4])
    mean = q.mean(axis=1)
    q -= mean[:, None]
    return np.concatenate([[x.size], mean, np.einsum("ij,ij->i", q, q)])


def _merge_moments(a, b):
    """Pairwise merge of (n, means, M2) records along the last axis (Chan,
    Golub & LeVeque), free of the cancellation in s2/n - mean^2."""
    na, nb = a[..., :1], b[..., :1]
    n = na + nb
    d = b[..., 1:6] - a[..., 1:6]
    return np.concatenate([n, a[..., 1:6] + d * (nb / n),
                           a[..., 6:] + b[..., 6:] + d * d * (na * nb / n)], axis=-1)


def excess_position_msd(n: int, gas: ThermalGasSpec, pair: CollisionPair,
                        delta: float, horizon: float, seed,
                        policy: JumpPolicy = JumpPolicy(),
                        thermal_start: bool = True):
    """Mean squared position gap between a run and its contact-collision twin.

    Both twins share each step's draw and apply the same label map, the
    contact twin with no gas flight (eta = 0), so their momentum paths are
    identical and the squared gap isolates exactly the position noise from
    the unresolved gas flight.  Its slope in time is the excess position
    diffusion rate at this delta.  Returns (times, msd).
    """
    rng = np.random.default_rng(seed)
    p = (rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n) if thermal_start
         else np.zeros(n))
    x_ref = np.zeros(n)
    x_alt = np.zeros(n)
    n_steps = int(round(horizon / delta))
    msd = np.zeros(n_steps + 1)
    for step in range(1, n_steps + 1):
        hit, tau, eta, p_g = _draw_collisions(p, gas, pair, delta, rng, policy)
        x_ref, _ = _apply_collisions(x_ref, p, hit, tau, np.zeros_like(eta), p_g,
                                     pair, delta)
        x_alt, p = _apply_collisions(x_alt, p, hit, tau, eta, p_g, pair, delta)
        msd[step] = np.mean((x_alt - x_ref) ** 2)
    return delta * np.arange(n_steps + 1), msd
