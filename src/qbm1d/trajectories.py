"""Trajectory Monte Carlo unraveling of the collisional master equation.

Each trajectory is a Gaussian packet of fixed width sigma (matched widths
keep collisions Gaussian-preserving), carried by its phase-space label
(x, p).  Per coarse step delta a trajectory collides with probability
rate(p) * delta; the collision draws a gas momentum from the flux-weighted
Maxwell-Boltzmann distribution (exact rejection from a two-part envelope)
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

import warnings
from dataclasses import dataclass

import numpy as np

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
_MAX_ROUNDS = 64
_RAYLEIGH_MASS = np.sqrt(2 / np.pi)   # E|z|, the envelope's signed Rayleigh part


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


def sample_collision_partner(p, gas: ThermalGasSpec, pair: CollisionPair, rng):
    """Gas momenta from the flux-weighted density ~ mu(p_g) |v_g - v|.

    Exact von Neumann rejection in gas velocity units z = v_g / sqrt(kT/m_g),
    b = v / sqrt(kT/m_g): the density |z - b| phi(z) lies under (|z| + |b|)
    phi(z), a signed Rayleigh of mass sqrt(2/pi) mixed with a standard normal
    of mass |b|.  Each round draws u, v and normals n0, n1 for the pending
    draws; the candidate is sign(n0) hypot(n0, n1) when u (sqrt(2/pi) + |b|)
    < sqrt(2/pi), else n1, kept when v (|z| + |b|) <= |z - b|.  The acceptance
    E|z - b| / (sqrt(2/pi) + |b|) is at least 0.648, so only a non-finite
    momentum outlasts _MAX_ROUNDS rounds: PartnerNotConverged.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    su = np.sqrt(gas.kT / gas.gas_mass)
    b = ((p / pair.brownian_mass) / su).ravel()
    z, pending = np.empty(b.size), np.arange(b.size)
    for _ in range(_MAX_ROUNDS):
        k, bk = pending.size, b[pending]
        u, v, n = rng.random(k), rng.random(k), rng.standard_normal((2, k))
        a = np.abs(bk)
        cand = np.where(u * (_RAYLEIGH_MASS + a) < _RAYLEIGH_MASS,
                        np.copysign(np.hypot(n[0], n[1]), n[0]), n[1])
        keep = v * (np.abs(cand) + a) <= np.abs(cand - bk)
        z[pending[keep]] = cand[keep]
        pending = pending[~keep]
        if not pending.size:
            return gas.gas_mass * su * z.reshape(p.shape)
    raise PartnerNotConverged(f"{pending.size} partner draws not accepted in "
                              f"{_MAX_ROUNDS} rejection rounds")


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
