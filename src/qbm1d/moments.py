"""Deterministic moment dynamics of the collisional master equation.

Linear ODE system for (⟨x⟩, ⟨p⟩, ⟨x²⟩, ⟨{x,p}⟩, ⟨p²⟩) in the slow-particle
regime sqrt(⟨p⟩²/m² + k_B T/m) << sqrt(k_B T / m_g):

    d⟨x⟩/dt    = ⟨p⟩/m
    d⟨p⟩/dt    = -f ⟨p⟩
    d⟨x²⟩/dt   = ⟨{x,p}⟩/m + D_art
    d⟨{x,p}⟩/dt = 2⟨p²⟩/m - f ⟨{x,p}⟩
    d⟨p²⟩/dt   = 2 f (m k_B T - ⟨p²⟩)

with friction constant f = 4 n_g sqrt(2 m_g k_B T) / (sqrt(pi) m) and the
coarse-graining artifact rate D_art ~ delta^2 that the trajectories realise
(``artifact_diffusion_rate``).  The artifact term is included by default
(faithful to the coarse-grained equations); pass ``include_artifact=False``
for physical runs, since the term reflects unresolved collision timing
rather than a real process.

The system is triangular with rates 0, f and 2f and has a closed form.  With
E = exp(-f t), phi = (1 - E)/f, chi = (t - phi)/f - phi^2/2, P_eq = m k_B T
and the initial moments x_0, p_0, X_0 = ⟨x²⟩_0, C_0 = ⟨{x,p}⟩_0, P_0 = ⟨p²⟩_0:

    ⟨x⟩     = x_0 + p_0 phi / m
    ⟨p⟩     = p_0 E
    ⟨x²⟩    = X_0 + D_art t + (C_0 phi + (2/m)(P_eq chi + P_0 phi^2 / 2)) / m
    ⟨{x,p}⟩ = C_0 E + (2/m)(P_eq (1 - E) + P_0 E) phi
    ⟨p²⟩    = P_eq (1 - E^2) + P_0 E^2

P_0 and P_eq stay apart, so a cold start, P_0 << P_eq, cancels no digits.
Below f t = 1, phi/t and chi/t^2 come from their Taylor series, which keep
the digits that 1 - E and chi would cancel and also cover f = 0.  Every
time is evaluated directly: no step has to resolve the friction time 1/f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .thermal import ThermalGasSpec

__all__ = [
    "MomentState",
    "FrictionParams",
    "ComparisonReport",
    "friction_constant",
    "artifact_diffusion_rate",
    "integrate",
    "closed_form",
    "compare_to_trajectories",
]

SLOW_PARTICLE_WARN_RATIO = 0.3
_SERIES_BELOW = 1.0   # |f t| under which phi and chi come from their series
# Taylor coefficients in u = f t, highest order first, of phi/t = sum (-u)^j
# /(j + 1)! and chi/t^2 = sum 2 (1 - 2^j) (-u)^j/(j + 2)!; 25 terms reach
# rounding at |u| < 1
_PHI_SERIES = [1 / math.factorial(j + 1) for j in reversed(range(25))]
_CHI_SERIES = [2 * (1 - 2**j) / math.factorial(j + 2) for j in reversed(range(25))]


@dataclass(frozen=True)
class MomentState:
    """Five moments at one time; covariances must stay nonnegative."""

    mean_x: float
    mean_p: float
    mean_x2: float
    mean_xp: float
    mean_p2: float
    t: float = 0.0

    def __post_init__(self):
        if self.mean_x2 - self.mean_x**2 < -1e-12:
            raise ValueError("position variance must be nonnegative")
        if self.mean_p2 - self.mean_p**2 < -1e-12:
            raise ValueError("momentum variance must be nonnegative")

    def as_vector(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_p, self.mean_x2,
                         self.mean_xp, self.mean_p2])


@dataclass(frozen=True)
class FrictionParams:
    """Coefficients of the moment system."""

    f: float
    artifact_rate: float
    mass: float
    kT: float
    gas_mass: float

    def __post_init__(self):
        if self.f < 0 or self.artifact_rate < 0:
            raise ValueError("rates must be >= 0")

    @classmethod
    def from_gas(cls, gas: ThermalGasSpec, mass: float, delta: float = 0.0,
                 include_artifact: bool = True) -> "FrictionParams":
        d_art = artifact_diffusion_rate(gas, mass, delta) if include_artifact else 0.0
        return cls(f=friction_constant(gas, mass), artifact_rate=d_art,
                   mass=mass, kT=gas.kT, gas_mass=gas.gas_mass)

    def slow_particle_ratio(self, mean_p: float) -> float:
        """sqrt((mean_p/m)^2 + kT/m) / sqrt(kT/m_g), sqrt(alpha) at mean_p = 0."""
        return math.hypot(mean_p / self.mass, math.sqrt(self.kT / self.mass)) / math.sqrt(
            self.kT / self.gas_mass)


def friction_constant(gas: ThermalGasSpec, mass: float) -> float:
    """f = 4 n_g sqrt(2 m_g k_B T) / (sqrt(pi) m)."""
    return (4 * gas.number_density * math.sqrt(2 * gas.gas_mass * gas.kT)
            / (math.sqrt(math.pi) * mass))


def artifact_diffusion_rate(gas: ThermalGasSpec, mass: float, delta: float,
                            w: float = 1.0) -> float:
    """Coarse-graining position diffusion of a particle of mass m in steps
    delta, with the partners' flights in a window w (``gas_flight_window``).

    A collision moves the label by -2 alpha/(1 + alpha) v_g eta, alpha =
    m_g/m, eta ~ U(-w delta, w delta), at the flux rate n_g |v_g - v|, so

        D_art = n_g (2 alpha/(1 + alpha))^2 w^2 (delta^2/3) E[v_g^2 |v_g - v|]

    over thermal v and v_g at the partners' temperature T.  For normal v_g
    and v, variances s_g^2 = kT/m_g and s^2 = kT/m,

        E[v_g^2 |v_g - v|] = sqrt(2/pi) s_g^2 (2 s_g^2 + s^2) / sqrt(s_g^2 + s^2).

    The paper's printed rate (n_g/3 sqrt(pi)) (2kT/m_g)^{3/2} delta^2 is its
    alpha = 1, w = 1, v = 0 limit.
    """
    alpha, sg2, s2 = gas.gas_mass / mass, gas.kT / gas.gas_mass, gas.kT / mass
    share = 2 * alpha / (1 + alpha)
    kick = math.sqrt(2 / math.pi) * sg2 * (2 * sg2 + s2) / math.sqrt(sg2 + s2)
    return gas.number_density * (share * w * delta) ** 2 / 3 * kick


def closed_form(initial: MomentState, params: FrictionParams, ts):
    """States at the times ``ts``, from the closed-form solution (module
    docstring) evaluated at all times at once.  Returns the list of states."""
    t = np.atleast_1d(np.asarray(ts, dtype=float))
    f, m, p_eq = params.f, params.mass, params.mass * params.kT
    x0, p0, x20, c0, p20 = initial.as_vector()
    u = f * t
    e, one_minus_e = np.exp(-u), -np.expm1(-u)
    small = np.abs(u) < _SERIES_BELOW
    v = -np.where(small, u, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):   # the unused branch at f = 0
        phi = np.where(small, t * np.polyval(_PHI_SERIES, v), one_minus_e / f)
        chi = np.where(small, t * t * np.polyval(_CHI_SERIES, v),
                       (u - 1.5 + 2 * e - e * e / 2) / f**2)
    rows = np.column_stack([
        x0 + p0 * phi / m,
        p0 * e,
        x20 + params.artifact_rate * t + (c0 * phi + 2 / m * (p_eq * chi + p20 * phi**2 / 2)) / m,
        c0 * e + 2 / m * (p_eq * one_minus_e + p20 * e) * phi,
        -p_eq * np.expm1(-2 * u) + p20 * e * e,
        t]).tolist()
    return [MomentState(*row) for row in rows]


def integrate(initial: MomentState, params: FrictionParams, horizon: float,
              dt: float):
    """States at t = 0, dt, ..., round(horizon/dt) dt: ``closed_form`` at those
    times, one state per row, exact for every dt > 0."""
    return closed_form(initial, params, np.arange(int(round(horizon / dt)) + 1) * dt)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-moment deviations between ODE and Monte Carlo series, in units of
    the Monte Carlo standard errors."""

    max_dev_se: dict
    n_times: int
    slow_particle_ratio: float
    slow_particle_ok: bool

    @property
    def worst(self) -> float:
        return max(self.max_dev_se.values())


def compare_to_trajectories(ode_series, mc_series, params: FrictionParams
                            ) -> ComparisonReport:
    """Cross-validate the ODE against an EnsembleStats time series.

    Series must share the time grid (GridMismatch otherwise).  When the
    initial state violates the slow-particle regime the report flags it
    instead of asserting agreement.
    """
    if len(ode_series) != len(mc_series):
        raise GridMismatch(
            f"series lengths differ: {len(ode_series)} vs {len(mc_series)}")
    t_ode = np.array([s.t for s in ode_series])
    t_mc = np.array([s.t for s in mc_series])
    if not np.allclose(t_ode, t_mc, rtol=1e-9, atol=1e-12):
        raise GridMismatch("time grids differ")
    names = ("mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2")
    devs = {}
    for name in names:
        ode_vals = np.array([getattr(s, name) for s in ode_series])
        mc_vals = np.array([getattr(s, name) for s in mc_series])
        ses = np.array([getattr(s, "se_" + name) for s in mc_series])
        ses = np.where(np.isfinite(ses) & (ses > 0), ses, np.inf)
        devs[name] = float(np.max(np.abs(ode_vals - mc_vals) / ses))
    ratio = params.slow_particle_ratio(mc_series[0].mean_p)
    return ComparisonReport(max_dev_se=devs, n_times=len(mc_series),
                            slow_particle_ratio=ratio,
                            slow_particle_ok=ratio <= SLOW_PARTICLE_WARN_RATIO)
