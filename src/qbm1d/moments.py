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

The system is linear with constant coefficients and is solved exactly by
the matrix exponential of its augmented 6 x 6 generator, so no step size
has to resolve the friction time 1/f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .errors import GridMismatch
from .thermal import ThermalGasSpec

__all__ = [
    "MomentState",
    "FrictionParams",
    "ComparisonReport",
    "friction_constant",
    "artifact_diffusion_rate",
    "system_matrix",
    "integrate",
    "closed_form",
    "compare_to_trajectories",
]

SLOW_PARTICLE_WARN_RATIO = 0.3


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

    @classmethod
    def from_vector(cls, v, t) -> "MomentState":
        return cls(mean_x=float(v[0]), mean_p=float(v[1]), mean_x2=float(v[2]),
                   mean_xp=float(v[3]), mean_p2=float(v[4]), t=float(t))


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


def system_matrix(params: FrictionParams) -> np.ndarray:
    """Augmented generator M with d(v, 1)/dt = M (v, 1), v = (x, p, x2, xp, p2).

    M[:5, :5] is the linear part and M[:5, 5] the constant drive.
    """
    f, m = params.f, params.mass
    M = np.zeros((6, 6))
    M[0, 1] = 1 / m
    M[1, 1] = -f
    M[2, 3] = 1 / m
    M[2, 5] = params.artifact_rate
    M[3, 4] = 2 / m
    M[3, 3] = -f
    M[4, 4] = -2 * f
    M[4, 5] = 2 * f * m * params.kT
    return M


def integrate(initial: MomentState, params: FrictionParams, horizon: float,
              dt: float):
    """States at t = 0, dt, ..., round(horizon/dt) dt, by exact propagation.

    One step applies expm(M dt) of the augmented generator, so every dt > 0
    gives the exact solution at its times.  Returns the list of states.
    """
    step = expm(system_matrix(params) * dt)
    v = np.append(initial.as_vector(), 1.0)
    out = [replace(initial, t=0.0)]
    n_steps = int(round(horizon / dt))
    for i in range(1, n_steps + 1):
        v = step @ v
        out.append(MomentState.from_vector(v, i * dt))
    return out


def closed_form(initial: MomentState, params: FrictionParams, ts):
    """Exact solution via the matrix exponential of the augmented system."""
    M = system_matrix(params)
    v0 = np.append(initial.as_vector(), 1.0)
    return [MomentState.from_vector(expm(M * float(t)) @ v0, t)
            for t in np.atleast_1d(ts)]


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
