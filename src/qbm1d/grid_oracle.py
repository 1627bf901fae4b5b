"""Spectral grid solver for the hard-core two-particle problem.

Works in centre-of-mass/relative coordinates (R, r) where the Hamiltonian
separates exactly: free motion of the total mass in R (periodic box, FFT)
and free motion of the reduced mass on the half line r > 0 with a Dirichlet
wall at r = 0 (sine basis, DST-I; equivalently the odd image extension).
Both propagators are diagonal in their bases, so evolution to any target
time is a single transform round trip, exact up to discretization: one
discretized state per grid serves every time ``compare_to_analytic`` is
asked for.

With matched widths the initial state, the packet product minus its mirror
image in the wall, is chi(R) phi(r) too: the grid holds and propagates the
two 1-D factors and forms the n_R x n_r amplitudes only on request.

The r-grid holds only interior points r_j = j * dr, j = 1..n_r; the wall
value psi(r=0) = 0 is implied by the basis, which also makes the
probability current through the wall vanish identically.  Both transforms
are numpy FFTs; the DST-I is one of the odd extension (``_special.dst1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import dst1
from .errors import GridTooCoarse, GridTooSmall
from .exact_collision import COMInitialCondition, wavefunction
from .packets import CollisionPair

__all__ = [
    "GridParams",
    "GridWavefunction",
    "default_grid",
    "discretize",
    "propagate",
    "compare_to_analytic",
]


@dataclass(frozen=True)
class GridParams:
    """Rectangular (R, r) grid: R periodic on [-R_halfwidth, R_halfwidth),
    r on the interior of (0, r_length)."""

    n_R: int
    n_r: int
    R_halfwidth: float
    r_length: float

    def __post_init__(self):
        if self.n_R < 8 or self.n_r < 8:
            raise ValueError("grid sizes must be >= 8")
        if self.R_halfwidth <= 0 or self.r_length <= 0:
            raise ValueError("extents must be > 0")

    @property
    def dR(self) -> float:
        return 2 * self.R_halfwidth / self.n_R

    @property
    def dr(self) -> float:
        return self.r_length / (self.n_r + 1)

    def axes(self):
        R = -self.R_halfwidth + self.dR * np.arange(self.n_R)
        r = self.dr * np.arange(1, self.n_r + 1)
        return R, r


@dataclass
class GridWavefunction:
    """Amplitudes psi[R-index, r-index] = chi[R-index] * phi[r-index] at time t."""

    chi: np.ndarray
    phi: np.ndarray
    R: np.ndarray
    r: np.ndarray
    t: float

    @property
    def psi(self) -> np.ndarray:
        """The n_R x n_r amplitudes, formed on request."""
        return np.outer(self.chi, self.phi)

    @property
    def dR(self) -> float:
        return float(self.R[1] - self.R[0])

    @property
    def dr(self) -> float:
        return float(self.r[1] - self.r[0])

    def _wavenumbers(self):
        """FFT wavenumbers of the periodic R axis and DST-I ones of the r axis."""
        return (2 * np.pi * np.fft.fftfreq(len(self.R), d=self.dR),
                np.pi * np.arange(1, len(self.r) + 1) / (self.dr * (len(self.r) + 1)))

    def norm(self) -> float:
        return float((np.linalg.norm(self.chi) * np.linalg.norm(self.phi)) ** 2
                     * self.dR * self.dr)


def default_grid(pair: CollisionPair, init: COMInitialCondition, n: int,
                 t_max: float = 0.0) -> GridParams:
    """Extents wide enough for the initial supports plus drift to t_max."""
    a = pair.alpha
    x_g, p_g = init.gas_label(pair)
    s_r = np.sqrt((pair.brownian_width**2 + pair.gas_width**2) / 2)
    s_R = pair.brownian_width / np.sqrt(2 * (1 + a))
    r0 = init.x - x_g
    v_rel = abs(init.p / pair.brownian_mass - p_g / pair.gas_mass)
    drift = v_rel * t_max
    spread = pair.hbar * t_max / (pair.reduced_mass * 2 * s_r) if t_max else 0.0
    r_len = r0 + max(drift, 0.0) + 12 * (s_r + spread) + 10.0
    R_half = 12 * s_R + abs(init.x + x_g) + 10.0
    return GridParams(n_R=n, n_r=n, R_halfwidth=R_half, r_length=r_len)


def _validate(pair: CollisionPair, init: COMInitialCondition, params: GridParams):
    a, hb, s = pair.alpha, pair.hbar, pair.brownian_width
    x_g, p_g = init.gas_label(pair)
    # relative and total momentum content: mean and std of each
    for name, step, p_name, mean, std in (
            ("dr", params.dr, "p_max", (a * init.p - p_g) / (1 + a),
             hb * np.sqrt(a / (2 * (1 + a))) / s),
            ("dR", params.dR, "P_max", init.p + p_g, hb * np.sqrt(1 + a) / (s * np.sqrt(2)))):
        limit = np.pi * hb / (4 * (abs(mean) + 5 * std))
        if step >= limit:
            raise GridTooCoarse(f"{name} = {step:.4g} >= pi*hbar/(4 {p_name}) = {limit:.4g}")
    # tail mass beyond the r box and both R edges; the mirrored state has none behind the wall
    r0, s_r = init.x - x_g, np.sqrt((s**2 + pair.gas_width**2) / 2)
    R0, s_R = (init.x + a * x_g) / (1 + a), s / np.sqrt(2 * (1 + a))
    mass = 0.5 * (math.erfc((params.r_length - r0) / (np.sqrt(2) * s_r))
                  + math.erfc((params.R_halfwidth - R0) / (np.sqrt(2) * s_R))
                  + math.erfc((params.R_halfwidth + R0) / (np.sqrt(2) * s_R)))
    if mass > 1e-10:
        raise GridTooSmall(f"support truncation {mass:.3e} > 1e-10; enlarge extents")


def discretize(pair: CollisionPair, init: COMInitialCondition, params: GridParams,
               validate: bool = True) -> GridWavefunction:
    """Sample the wall-respecting initial state as its two factors.

    The state is the product of the packets at ``init``'s and its gas label
    minus its mirror image in the wall, psi(R, r) - psi(R, -r), as at t = 0.  With matched
    widths the product is U(R) D(r): chi is its cut through the packet
    centres (R0, r0) over the value there, phi its mirrored cut at R0.
    ``validate=False`` skips the Nyquist/support guards; deliberate for
    convergence studies that include under-resolved grids.
    """
    if validate:
        _validate(pair, init, params)
    R, r = params.axes()
    a = pair.alpha
    x_g, p_g = init.gas_label(pair)
    gas = pair.gas_packet(x_g, p_g).amplitude
    brownian = pair.brownian_packet(init.x, init.p).amplitude
    R0 = (init.x + a * x_g) / (1 + a)
    chi = gas(R - R0 + x_g) * brownian(R - R0 + init.x) / (gas(x_g) * brownian(init.x))
    s = np.concatenate([r, -r]) / (1 + a)
    cut = gas(R0 - s) * brownian(R0 + a * s)
    return GridWavefunction(chi=chi, phi=cut[:r.size] - cut[r.size:], R=R, r=r, t=0.0)


def propagate(state: GridWavefunction, pair: CollisionPair, t: float) -> GridWavefunction:
    """Evolve by time t >= 0 in one spectral step per factor (exact per mode)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return GridWavefunction(state.chi.copy(), state.phi.copy(), state.R, state.r, state.t)
    kR, kappa = state._wavenumbers()
    h = -0.5j * pair.hbar * t
    chi = np.fft.ifft(np.fft.fft(state.chi) * np.exp(h * kR**2 / pair.total_mass))
    phi = dst1(dst1(state.phi) * np.exp(h * kappa**2 / pair.reduced_mass)) / (2 * kappa.size + 2)
    return GridWavefunction(chi=chi, phi=phi, R=state.R, r=state.r, t=state.t + t)


def compare_to_analytic(pair: CollisionPair, init: COMInitialCondition, t,
                        params: GridParams, validate: bool = True):
    """Relative L2 distance between grid propagation and the closed form.

    The certification number for the exact solution: |psi_grid - psi_exact|
    over |psi_exact| on the n_R x n_r nodes, from the same wall-respecting
    initial state, so it measures discretization and aliasing alone.  The
    closed form is c(R) phi_e(r): phi_e its cut at R = 0, c its cut at the
    peak r* of |phi_e| over phi_e(r*).  With lambda = <c, chi>/<c, c>,
    |chi phi - c phi_e|^2 = |c|^2 |lambda phi - phi_e|^2 + |chi - lambda c|^2 |phi|^2,
    a sum of two orthogonal parts, so no n_R x n_r array is formed.
    Vectorized over ``t``, from one discretized state; returns a float for a
    scalar.
    """
    initial = discretize(pair, init, params, validate)
    a, R, r, nrm = pair.alpha, initial.R, initial.r, np.linalg.norm
    ts = np.asarray(t, dtype=float)
    out = np.empty(ts.shape)
    for i, tk in enumerate(ts.ravel().tolist()):
        state = propagate(initial, pair, tk)
        phi_e = wavefunction(pair, init, tk, -r / (1 + a), a * r / (1 + a))
        j = int(np.argmax(np.abs(phi_e)))
        c = wavefunction(pair, init, tk, R - r[j] / (1 + a), R + a * r[j] / (1 + a)) / phi_e[j]
        lam = np.vdot(c, state.chi) / np.vdot(c, c)
        num = np.hypot(nrm(c) * nrm(lam * state.phi - phi_e),
                       nrm(state.chi - lam * c) * nrm(state.phi))
        out.flat[i] = num / (nrm(c) * nrm(phi_e))
    return float(out) if out.ndim == 0 else out
