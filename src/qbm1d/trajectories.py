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

    Second moments include the pure-state packet floor (sigma^2/2 in
    position, hbar^2/(2 sigma^2) in momentum); the symmetrized cross moment
    of a packet at (x, p) is 2 x p.
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
        n = x.size
        s2 = pair.brownian_width**2
        floor_x = s2 / 2
        floor_p = pair.hbar**2 / (2 * s2)
        x2 = x**2
        p2 = p**2
        xp = 2 * x * p
        rn = np.sqrt(n)

        def se(arr):
            return float(np.std(arr, ddof=1) / rn) if n > 1 else float("nan")

        return cls(
            t=float(t), n=int(n),
            mean_x=float(x.mean()), mean_p=float(p.mean()),
            mean_x2=float(x2.mean() + floor_x),
            mean_xp=float(xp.mean()),
            mean_p2=float(p2.mean() + floor_p),
            se_mean_x=se(x), se_mean_p=se(p),
            se_mean_x2=se(x2), se_mean_xp=se(xp), se_mean_p2=se(p2),
        )

    @classmethod
    def merge_sums(cls, t, n, sums) -> "EnsembleStats":
        """Build stats from associatively mergeable per-chunk sums."""
        sx, sp, sx2, sp2, sxp, sx4, sp4, sxp2 = sums

        def mean_se(s1, s2, scale=1.0):
            m = s1 / n
            var = max(s2 / n - m**2, 0.0) * n / max(n - 1, 1)
            return scale * m, scale * np.sqrt(var / n)

        mx, se_x = mean_se(sx, sx2)
        mp, se_p = mean_se(sp, sp2)
        mx2, se_x2 = mean_se(sx2, sx4)
        mp2, se_p2 = mean_se(sp2, sp4)
        mxp, se_xp = mean_se(sxp, sxp2, 2.0)
        return cls(t=float(t), n=int(n), mean_x=mx, mean_p=mp,
                   mean_x2=mx2, mean_xp=mxp, mean_p2=mp2,
                   se_mean_x=se_x, se_mean_p=se_p, se_mean_x2=se_x2,
                   se_mean_xp=se_xp, se_mean_p2=se_p2)

    def with_floors(self, pair: CollisionPair) -> "EnsembleStats":
        s2 = pair.brownian_width**2
        return replace(self, mean_x2=self.mean_x2 + s2 / 2,
                       mean_p2=self.mean_p2 + pair.hbar**2 / (2 * s2))


def collision_rate(p, gas: ThermalGasSpec, pair: CollisionPair):
    """Flux rate n_g E|v_g - v| against the mixture's full-T momenta."""
    return gas.number_density * mean_relative_speed(gas, p, pair.brownian_mass)


def typical_collision_time(gas: ThermalGasSpec, pair: CollisionPair) -> float:
    """Collision duration at the thermal momentum scale sqrt(m_g k_B T)."""
    a = pair.alpha
    return np.sqrt(8 / (1 + a)) * pair.gas_width * pair.gas_mass / gas.thermal_momentum


def sample_collision_partner(p, gas: ThermalGasSpec, pair: CollisionPair, rng):
    """Gas momenta from the flux-weighted density ~ mu(p_g) |v_g - v|.

    Exact inverse-transform sampling: the flux-weighted CDF is closed form
    (Gaussian pieces), inverted by vectorized bisection.  Deterministic
    given the rng; the density vanishes at p_g = p m_g / m (zero relative
    motion) and the returned samples never include it.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    su = np.sqrt(gas.kT / gas.gas_mass)
    zv = (p / pair.brownian_mass) / su
    sq2p = np.sqrt(2 * np.pi)
    phiV = np.exp(-(zv**2) / 2) / sq2p
    PhiV = ndtr(zv)

    def cdf_raw(z):
        # integral_{-inf}^z |t - zv| phi(t) dt, in gas-velocity units
        Phi = ndtr(z)
        phi = np.exp(-(z**2) / 2) / sq2p
        below = zv * Phi + phi
        above = (zv * PhiV + phiV) + ((phiV - phi) - zv * (Phi - PhiV))
        return np.where(z <= zv, below, above)

    lo = zv - 9.0
    hi = zv + 9.0
    target = rng.random(p.size) * cdf_raw(hi)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        low_side = cdf_raw(mid) < target
        lo = np.where(low_side, mid, lo)
        hi = np.where(low_side, hi, mid)
    return gas.gas_mass * su * 0.5 * (lo + hi)


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
    sums = np.zeros((n_rec, 8))
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    offset = 0
    for size, child in zip(_chunk_sizes(n, n_chunks), children):
        rng = np.random.default_rng(child)
        x = x0[offset:offset + size].copy()
        p = p0[offset:offset + size].copy()
        offset += size
        ix = 0
        sums[0] += _moment_sums(x, p)
        for step in range(1, n_steps + 1):
            x, p = step_ensemble(x, p, gas, pair, delta, rng, policy)
            if step % record_every == 0:
                ix += 1
                sums[ix] += _moment_sums(x, p)
    out = []
    for i in range(n_rec):
        stats = EnsembleStats.merge_sums(i * record_every * delta, n, sums[i])
        out.append(stats.with_floors(pair))
    return out


def _moment_sums(x, p):
    x2 = x * x
    p2 = p * p
    xp = x * p
    return np.array([x.sum(), p.sum(), x2.sum(), p2.sum(), xp.sum(),
                     (x2 * x2).sum(), (p2 * p2).sum(), (xp * xp).sum()])


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
