"""Trajectory Monte Carlo unraveling of the collisional master equation.

Each trajectory is a Gaussian packet of fixed width sigma (matched widths
keep collisions Gaussian-preserving), carried by its phase-space label
(x, p).  Per coarse step delta a trajectory collides at most once, with
probability min(rate(p) delta, 1), at an instant uniform in the step; the
collision draws a gas momentum from the flux-weighted Maxwell-Boltzmann
distribution (exact rejection from a two-part envelope) and applies the
elastic collision map to the labels.  Ensemble averages of the packet
moments unravel the master equation's expectation values.  One seeded rng
stream drives the whole ensemble, so a seed fixes every path.

Geometric gaps
--------------
Between collisions p does not change, so the steps to a path's next
collision are Geometric(min(rate(p) delta, 1)), the law of a Bernoulli draw
per step at a draw per collision.  The collision kernel keeps a pool of up
to _BLOCK paths with a collision step k in the horizon: each round tops it
up with the next paths in index order, draws one collision of each path in
it, and then the next gaps from the outgoing momenta.  The rates of the
paths not yet in the pool are evaluated _BLOCK at a time, not per round;
no rate evaluation takes more than _BLOCK paths.

The flight offset
-----------------
Within a coarse step the gas partner's position is known only up to its
flight v_g eta, eta ~ U(-w delta, w delta) with w = ``gas_flight_window``.
The label map is linear, so the flight moves the outgoing label by the
flight offset -2 alpha/(1 + alpha) v_g eta and leaves its momentum alone.
The offsets add up to an excess position diffusion ~ delta^2, the
coarse-graining artifact under study; w = 0 (contact collisions) has none.

Free-flight intercepts
----------------------
Between collisions a label flies freely, x = a + p t/m, so ``run`` carries
each path's intercept a = x - p t/m; a collision in step k flies to contact
at a + p ((k - 1) delta + tau)/m and gets a new intercept.  The moments come
from sums of alpha^i pi^j (1 <= i + j <= 4), alpha = a - a_c, pi = p - p_c
the deviations from the initial mean labels; each collision's change of its
path's terms is binned by step, so a run costs O(collisions) beyond a row
per step.  As x - a_c - p_c t/m = alpha + pi t/m, the moments are
polynomials in t/m of the sums.  Centred sums keep the cancellation at
rounding: identical initial labels have SEs of exactly 0.
"""

from __future__ import annotations

import math
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
    "regime",
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
    spreads freely, so at time t its floors are the covariance of a free
    packet of age t (``EvolvedPacket.covariance``), and collisions leave them
    as they are.  With matched widths (m sigma^2 = m_g sigma_g^2) both free
    packets have the complex width sigma^2 + i hbar t / m per unit mass, so
    in the mass-weighted coordinates (sqrt(m) x, sqrt(m_g) x_g) the pair is an
    isotropic Gaussian of age t.
    The label map conserves momentum and kinetic energy and acts alike on
    positions and velocities, so in those coordinates it is one orthogonal
    map: it moves the centres and keeps the isotropic shape.  The outgoing
    packet is therefore again a free packet of age t.  The standard errors
    are those of the label moments; the floors carry none.  ``run`` takes
    both from the centred sums of its intercepts and momenta (module docstring).
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
    def from_label_moments(cls, t, n, mean, se, pair: CollisionPair) -> "EnsembleStats":
        """The label moments ``mean`` of x, p, x^2, {x, p} = 2 x p and p^2 at
        time t, with their standard errors ``se``, plus the floors."""
        mx, mp, mx2, mxp, mp2 = map(float, mean)
        fx2, fxp, fp2 = pair.brownian_packet(0.0, 0.0).evolve(t).covariance()
        return cls(float(t), int(n), mx, mp, mx2 + fx2, mxp + fxp, mp2 + fp2, *map(float, se))


_I, _J = np.array([(i, j) for i in range(5) for j in range(5 - i)]).T   # orders i + j <= 4
_BINOM = np.array([[math.comb(i, k) for k in range(5)] for i in range(5)], dtype=float)
_POWER = np.subtract.outer(np.arange(5), np.arange(5)).clip(0)
_AT = np.searchsorted(_I, np.arange(5))      # the first row of each order in alpha
_BLOCK = 4096


def _pascal(m):
    """[..., i, k] = C(i, k) m^(i - k) for k <= i, stacked over the array m:
    maps the moments E[u^k] to E[(u + m)^i]."""
    return np.tril(_BINOM * np.asarray(m)[..., None, None] ** _POWER)


class _LabelSums:
    """Sums of alpha^i pi^j over the paths, flat over (_I, _J), of the labels'
    deviations alpha = a - a_c, pi = p - p_c from their means at t = 0.  Blocks
    of up to _BLOCK paths reuse one workspace, sparing fresh arrays' page faults."""

    def __init__(self, a, p):
        self.n, self.a_c, self.p_c = a.size, np.mean(a), np.mean(p)
        self.work = np.ones((2 * _I.size + 10, _BLOCK))   # 2 terms slots, powers; 0th stay 1
        self.initial = sum((self.terms(a[s:s + _BLOCK], p[s:s + _BLOCK]).sum(axis=1)
                            for s in range(0, a.size, _BLOCK)), np.zeros(_I.size))

    def terms(self, a, p, slot=0):
        """[m, path] = alpha^_I[m] pi^_J[m] of (a, p), in the workspace's ``slot``."""
        powers = self.work[-10:, :a.size].reshape(2, 5, -1)
        terms = self.work[slot * _I.size:(slot + 1) * _I.size, :a.size]
        powers[:, 1] = a - self.a_c, p - self.p_c
        for k in range(2, 5):
            np.multiply(powers[:, k - 1], powers[:, 1], out=powers[:, k])
        for i, at in enumerate(_AT):         # the rows of order i in alpha
            np.multiply(powers[0, i], powers[1, :5 - i], out=terms[at:at + 5 - i])
        return terms

    def stats(self, ts, sums, pair: CollisionPair) -> list[EnsembleStats]:
        """EnsembleStats at the times ``ts`` from the ``sums`` [m, time] then.
        The central moments c of (alpha, pi) are sheared to those of (x, p) by
        x - E x = u + w t/m, u = alpha - E alpha, w = pi - E pi: E[(u + s w)^i
        w^j] sums C(i, k) s^(i-k) c[k, i + j - k], one Pascal product along
        each order i + j, stacked over the times.  The variance of each label
        moment expands about the means X, P, e.g. Var x^2 = mu40 - mu20^2 + 4 X
        mu30 + 4 X^2 mu20; rounding may take a zero variance below 0."""
        n, s = self.n, ts / pair.brownian_mass
        raw = np.zeros((ts.size, 5, 5))
        raw[:, _I, _J] = (sums / n).T
        ma, mp = raw[:, 1, 0], raw[:, 0, 1]
        c = _pascal(-ma) @ raw @ _pascal(-mp).transpose(0, 2, 1)
        by_order = np.zeros_like(raw)
        by_order[:, _I, _I + _J] = c[:, _I, _J]
        mu = np.zeros((5, 5, ts.size))
        mu[_I, _J] = (_pascal(s) @ by_order)[:, _I, _I + _J].T
        x = self.a_c + self.p_c * s + ma + mp * s
        p = self.p_c + mp
        mean = (x, p, x * x + mu[2, 0], 2 * (x * p + mu[1, 1]), p * p + mu[0, 2])
        var = (mu[2, 0], mu[0, 2],
               mu[4, 0] - mu[2, 0]**2 + 4 * x * mu[3, 0] + 4 * x * x * mu[2, 0],
               4 * (mu[2, 2] - mu[1, 1]**2 + x * x * mu[0, 2] + p * p * mu[2, 0]
                    + 2 * x * mu[1, 2] + 2 * p * mu[2, 1] + 2 * x * p * mu[1, 1]),
               mu[0, 4] - mu[0, 2]**2 + 4 * p * mu[0, 3] + 4 * p * p * mu[0, 2])
        se = np.sqrt(np.maximum(var, 0.0) / (n - 1)) if n > 1 else np.full((5, ts.size), np.nan)
        return [EnsembleStats.from_label_moments(t, n, m, e, pair)
                for t, m, e in zip(ts.tolist(), np.transpose(mean), se.T)]


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
    E|z - b| / (sqrt(2/pi) + |b|) is at least 0.648; a non-finite momentum,
    which no round could accept, raises PartnerNotConverged before any draw.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    su = np.sqrt(gas.kT / gas.gas_mass)
    b = ((p / pair.brownian_mass) / su).ravel()
    if not np.all(finite := np.isfinite(b)):
        raise PartnerNotConverged(f"{np.sum(~finite)} partner draws against non-finite momenta")
    z, pending = np.empty(b.size), np.arange(b.size)
    bk, a = b, np.abs(b)                    # of the pending draws
    for _ in range(_MAX_ROUNDS):
        (u, v), n = rng.random((2, pending.size)), rng.standard_normal((2, pending.size))
        cand = np.where(u * (_RAYLEIGH_MASS + a) < _RAYLEIGH_MASS,
                        np.copysign(np.hypot(n[0], n[1]), n[0]), n[1])
        keep = v * (np.abs(cand) + a) <= np.abs(cand - bk)
        z[pending[keep]] = cand[keep]
        pending, bk, a = pending[~keep], bk[~keep], a[~keep]
        if not pending.size:
            return gas.gas_mass * su * z.reshape(p.shape)
    raise PartnerNotConverged(f"{pending.size} partner draws not accepted in "
                              f"{_MAX_ROUNDS} rejection rounds")


def regime(gas: ThermalGasSpec, pair: CollisionPair, delta: float, p=None) -> dict:
    """The coarse-graining regime at step delta, unthresholded: the typical
    collision time t_typ, at the gas's thermal momentum; coarse_graining_ratio
    t_typ / delta; rate * delta by law, under the thermal laws of both
    particles (v_g - v is normal with variance (1 + alpha) kT/m_g) and, given
    labels p, at max |p|; and the low-density/high-temperature number.  The
    regime needs t_typ << delta << 1/rate (``_check_regime``)."""
    t_typ = collision_time(pair, gas.thermal_momentum)
    rates = {"thermal-law": gas.number_density * mean_relative_speed(
        gas, 0.0, pair.brownian_mass, temperature=gas.temperature * (1 + pair.alpha))}
    if p is not None:
        rates["initial-label"] = collision_rate(np.max(np.abs(p)), gas, pair)
    return {"typical_collision_time": t_typ, "coarse_graining_ratio": t_typ / delta,
            "step_collision_probability_by_law": {law: float(rate * delta)
                                                  for law, rate in rates.items()},
            "ldht_number": math.sqrt(2.0) * (1 + pair.alpha) * gas.number_density * pair.hbar
            / math.sqrt(math.pi * gas.gas_mass * gas.kT)}


def _check_regime(gas: ThermalGasSpec, pair: CollisionPair, delta: float, p=None):
    """ValueError when the gas's mass is not the pair's; a ValidityWarning
    when delta < 3 typical collision times; then StepTooLarge when a
    ``regime`` rate * delta exceeds 0.1, where two collisions in one step are
    not negligible."""
    if not abs(gas.gas_mass - pair.gas_mass) <= 1e-12 * pair.gas_mass:
        raise ValueError(f"gas mass {gas.gas_mass!r} is not the pair's {pair.gas_mass!r}")
    report = regime(gas, pair, delta, p)
    t_typ = report["typical_collision_time"]
    if delta < 3 * t_typ:
        warnings.warn(
            f"coarse step delta = {delta:.3g} is not large against the "
            f"typical collision time {t_typ:.3g}; the instantaneous-collision "
            "picture is strained", ValidityWarning, stacklevel=3)
    for law, prob in report["step_collision_probability_by_law"].items():
        if prob > _MAX_STEP_PROBABILITY:
            raise StepTooLarge(f"{law} rate*delta = {prob:.3f} > {_MAX_STEP_PROBABILITY}")


def _step_probability(p, gas: ThermalGasSpec, pair: CollisionPair, delta: float):
    """min(rate(p) delta, 1), a path's chance to collide in one step."""
    return np.fmin(collision_rate(p, gas, pair) * delta, 1.0)


def _gaps(q, cap: int, rng):
    """Steps to each path's next collision, Geometric(q), q the paths'
    ``_step_probability``, capped at ``cap``: a NaN rate collides at once (its
    partner draw raises PartnerNotConverged); a rate of 0, which rng.geometric
    refuses, and tiny ones, whose gaps reach 2^63 - 1 and would wrap k + gap,
    take the cap."""
    gap = np.full(q.size, cap)
    gap[q > 0] = np.minimum(rng.geometric(q[q > 0]), cap)
    return gap


def _collisions(p, gas, pair, delta, n_steps, rng, gas_flight_window):
    """The collision kernel (module docstring): rounds (hit, k, eta, p_g) in
    steps 1, ..., n_steps of distinct paths ``hit``, their steps, flights
    eta ~ U(-w delta, w delta), w = gas_flight_window (0 at w = 0, drawing
    nothing), and partners; the caller writes the outgoing p[hit] back."""
    if gas_flight_window < 0:
        raise ValueError("gas_flight_window must be >= 0")
    flight = gas_flight_window * delta
    k, hit, start = np.zeros(p.size, dtype=int), np.zeros(0, dtype=int), 0
    fresh, at = np.zeros(0), 0      # step probabilities of paths at, at + 1, ...
    while hit.size or start < p.size:
        end = min(start + _BLOCK - hit.size, p.size)
        if end > start:
            if end > at + fresh.size:
                fresh, at = _step_probability(p[start:start + _BLOCK], gas, pair, delta), start
            new = np.arange(start, end)
            k[new] = _gaps(fresh[start - at:end - at], n_steps + 1, rng)
            hit = np.concatenate([hit, new[k[new] <= n_steps]])
            start = end
        if hit.size:
            p_g = sample_collision_partner(p[hit], gas, pair, rng)
            eta = rng.uniform(-flight, flight, hit.size) if flight else np.zeros(hit.size)
            yield hit, k[hit], eta, p_g
            k[hit] += _gaps(_step_probability(p[hit], gas, pair, delta), n_steps + 1, rng)
            hit = hit[k[hit] <= n_steps]


def _collide(a, p, hit, t, eta, p_g, pair: CollisionPair):
    """Collide the paths ``hit`` at the instants t, in place on intercepts a and
    momenta p: each flies to contact, takes the label map against the gas
    label displaced by its flight eta and gets its outgoing intercept."""
    ph = p[hit]
    xh = a[hit] + ph / pair.brownian_mass * t                # contact position
    x_g_label = xh - (p_g / pair.gas_mass) * eta             # unresolved flight
    _, _, x_out, p_out = classical_collision_map(pair, x_g_label, p_g, xh, ph)
    a[hit] = x_out - p_out / pair.brownian_mass * t
    p[hit] = p_out


def step_ensemble(x, p, gas: ThermalGasSpec, pair: CollisionPair, delta: float,
                  rng, gas_flight_window: float = 1.0):
    """Advance every trajectory by one coarse step, the collision kernel with
    one step; returns (x, p).  The hits take ``run``'s ``_collide`` from their
    positions, then every path flies for delta.  The hits are written into a
    float ``p`` in place, which is returned; ``x`` is not modified."""
    a = np.array(x, dtype=float)
    p = np.asarray(p, dtype=float)
    for hit, _, eta, p_g in _collisions(p, gas, pair, delta, 1, rng, gas_flight_window):
        _collide(a, p, hit, rng.uniform(0.0, delta, hit.size), eta, p_g, pair)
    return a + p / pair.brownian_mass * delta, p


def run(x0, p0, gas: ThermalGasSpec, pair: CollisionPair, horizon: float,
        delta: float, seed, gas_flight_window: float = 1.0):
    """Evolve an ensemble to the horizon, recording moments at every step,
    t = k delta for k = 0, ..., round(horizon / delta).

    ``x0``/``p0``, arrays of initial labels, are copied.  One rng stream, the
    first child of ``SeedSequence(seed)``, drives every path, so an identical
    seed reproduces the results bit for bit.  The collision kernel and the
    binned sums are in the module docstring.  ``_check_regime`` checks the gas,
    and delta against the thermal laws and max |p0|, before any draw.
    """
    a = np.array(x0, dtype=float)          # intercepts a = x - p t/m, x at t = 0
    p = np.array(p0, dtype=float)
    _check_regime(gas, pair, delta, p)
    n_steps = int(round(horizon / delta))
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    sums = _LabelSums(a, p)
    bins = np.zeros((_I.size, n_steps + 1))          # [m, k]: the changes in step k
    for hit, k, eta, p_g in _collisions(p, gas, pair, delta, n_steps, rng, gas_flight_window):
        old = sums.terms(a[hit], p[hit])
        _collide(a, p, hit, (k - 1) * delta + rng.uniform(0.0, delta, hit.size), eta, p_g, pair)
        change = np.subtract(sums.terms(a[hit], p[hit], 1), old, out=old)
        for row, terms in zip(bins, change):
            row += np.bincount(k, terms, n_steps + 1)
    return sums.stats(np.arange(n_steps + 1) * delta,
                      sums.initial[:, None] + np.cumsum(bins, axis=1), pair)


def excess_position_msd(n: int, gas: ThermalGasSpec, pair: CollisionPair,
                        delta: float, horizon: float, seed,
                        gas_flight_window: float = 1.0):
    """(times, msd): the mean square of the summed flight offsets.

    A path carries its momentum, moved by the label map at each collision,
    and the sum of its flight offsets -2 alpha/(1 + alpha) v_g eta, its
    position gap from contact collisions; the changes of its square are
    binned by step.  The slope of msd in time is the excess position
    diffusion rate at this delta.  Paths start with thermal momenta.
    ``_check_regime`` checks the gas, and delta by the thermal laws, before any draw.
    """
    _check_regime(gas, pair, delta)
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
    share = 2 * pair.alpha / (1 + pair.alpha)
    n_steps = int(round(horizon / delta))
    offset, bins = np.zeros(n), np.zeros(n_steps + 1)
    for hit, k, eta, p_g in _collisions(p, gas, pair, delta, n_steps, rng, gas_flight_window):
        old = offset[hit]
        offset[hit] = new = old - share * (p_g / pair.gas_mass) * eta
        bins += np.bincount(k, new * new - old * old, n_steps + 1)
        p[hit] = classical_collision_map(pair, 0.0, p_g, 0.0, p[hit])[3]
    return delta * np.arange(n_steps + 1), np.cumsum(bins) / n
