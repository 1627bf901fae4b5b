"""Collision channel on a discretized single-particle Hilbert space.

Verifies the measurement-theoretic layer numerically: phase-space-smeared
effect operators, their square roots, the displacement-composed collision
Kraus operators, approximate phase-space projections, the completeness of
the coherent states, and the aggregate collision rate operator.  Everything
lives on a uniform position grid with periodic FFT displacements; states are
l2-normalized grid vectors.

Closed forms come first: the effect operator is a Gaussian kernel for every
mass ratio, and the rate operator is diagonal in momentum with a closed-form
symbol.  The projection and the completeness check integrate coherent
projectors over x in closed form and over p on a Gauss-Legendre rule, in
one matrix product; ``apply_collision_channel`` batches its pointer mesh
one x_t row at a time, with one matrix product and three FFT passes per row.

This module certifies algebraic structure on modest grids (N <= 512); the
trajectory unraveling carries production dynamics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft

from ._special import erf
from .errors import EmptyRegion, GridTooCoarse, GridTooSmall, NegativeEigenvalueBeyondTolerance
from .packets import CollisionPair, GaussianPacket
from .thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed

__all__ = [
    "SpatialGrid",
    "OperatorGrid",
    "PhaseSpaceMesh",
    "PhaseSpaceRegion",
    "grid_packet",
    "grid_packets",
    "displace_vector",
    "free_evolve_vector",
    "smearing_widths",
    "build_effect_operator",
    "operator_sqrt",
    "build_kraus",
    "apply_collision_channel",
    "build_projection",
    "completeness_residual",
    "aggregate_rate_operator",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform position grid of n points centered on the origin."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("grid needs at least 16 points")
        if self.length <= 0:
            raise ValueError("length must be > 0")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.length / 2 + self.dx * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def momentum_cutoff(self, hbar: float) -> float:
        return np.pi * hbar / self.dx


@dataclass
class OperatorGrid:
    """Dense operator on a SpatialGrid, with positivity bookkeeping."""

    matrix: np.ndarray
    grid: SpatialGrid

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, vec: np.ndarray) -> float:
        return float(np.real(np.vdot(vec, self.matrix @ vec)))

    def eigenvalue_range(self):
        ev = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))
        return float(ev[0]), float(ev[-1])


@dataclass(frozen=True)
class PhaseSpaceMesh:
    """Pointer mesh of apply_collision_channel: nodes per std, half-span."""

    points_per_std: float = 6.0
    span_std: float = 4.5


# largest packet mass that grid_packets lets fall off the grid
_PACKET_MASS_TOL = 1e-6
# erfcinv(2 _PACKET_MASS_TOL): a centre this far inside a grid end, in packet
# widths, loses _PACKET_MASS_TOL off it
_PACKET_MASS_REACH = 3.3611785626256494
# grid noise in the eigenvalues that operator_sqrt clamps to zero
_CLAMP_TOL = 1e-6


def grid_packets(grid: SpatialGrid, width: float, hbar: float, xs, ps) -> np.ndarray:
    """(n, m) l2-normalized grid vectors of the packets (xs[j], ps[j]), one per column.

    Amplitudes follow GaussianPacket.amplitude.  Raises GridTooSmall when a
    column's sampled mass differs from 1 by more than _PACKET_MASS_TOL
    (1e-6), i.e. when the grid's extent cuts off that packet; the message
    names the worst column's mass.
    """
    xs, ps = np.broadcast_arrays(np.atleast_1d(np.asarray(xs, dtype=float)),
                                 np.atleast_1d(np.asarray(ps, dtype=float)))
    xq = grid.x[:, None]
    pref = np.exp(-1j * xs * ps / (2 * hbar)) / np.sqrt(np.sqrt(np.pi) * width)
    v = pref * np.exp(1j * xq * ps / hbar - (xs - xq) ** 2 / (2 * width**2)) * np.sqrt(grid.dx)
    mass = np.sum(v.real**2 + v.imag**2, axis=0)
    worst = np.argmax(np.abs(mass - 1.0))
    if abs(mass[worst] - 1.0) > _PACKET_MASS_TOL:
        raise GridTooSmall(
            f"packet mass on grid {mass[worst]:.8f} at ({xs[worst]:.4g}, {ps[worst]:.4g}); "
            "widen the grid or the packet")
    return v / np.sqrt(mass)


def grid_packet(grid: SpatialGrid, packet: GaussianPacket) -> np.ndarray:
    """l2-normalized grid vector of one Gaussian packet (see grid_packets)."""
    return grid_packets(grid, packet.width, packet.hbar, packet.center, packet.momentum)[:, 0]


def _shift(grid: SpatialGrid, v: np.ndarray, a: float) -> np.ndarray:
    """Periodic position shift by a along the last axis of v."""
    return ifft(np.exp(-1j * grid.k * a) * fft(v, axis=-1), axis=-1)


def displace_vector(grid: SpatialGrid, v: np.ndarray, a: float, b: float,
                    hbar: float = 1.0) -> np.ndarray:
    """Glauber displacement: shift position by a, then boost momentum by b.

    Split form with the symmetric phase e^{-i a b / 2 hbar}; exact on the
    periodic grid for any real displacements.  Acts along the last axis.
    """
    phase = np.exp(-1j * a * b / (2 * hbar)) * np.exp(1j * b * grid.x / hbar)
    return phase * _shift(grid, v, a)


def free_evolve_vector(grid: SpatialGrid, v: np.ndarray, mass: float, t: float,
                       hbar: float = 1.0) -> np.ndarray:
    return ifft(np.exp(-1j * hbar * grid.k**2 * t / (2 * mass)) * fft(v))


def smearing_widths(pair: CollisionPair):
    """Standard deviations (in x and p) of the Gaussian phase-space weight w
    that smears the effect operator's coherent projectors (0 at alpha = 1)."""
    a, s, hb = pair.alpha, pair.brownian_width, pair.hbar
    return (abs(1 - a) * s / (2 * np.sqrt(a)),
            abs(1 - a) * hb / (2 * np.sqrt(a) * s))


def _check_grid_resolution(pair: CollisionPair, grid: SpatialGrid):
    if grid.dx > pair.brownian_width / 8:
        raise GridTooCoarse(
            f"dx = {grid.dx:.4g} > sigma/8 = {pair.brownian_width / 8:.4g}")


def build_effect_operator(pair: CollisionPair, x_t: float, p_t: float,
                          grid: SpatialGrid,
                          mesh: PhaseSpaceMesh = PhaseSpaceMesh()) -> OperatorGrid:
    """Effect operator: w-weighted mixture of the coherent projectors at
    (x_t + x, p_t + p) over 2 pi hbar, from its closed-form kernel.

    With s = (y + y')/2, d = y - y', (w_x, w_p) = smearing_widths(pair) and
    q = sigma^2 + 2 w_x^2, C(y, y') = dy exp(-(s - x_t)^2/q - d^2/(4 sigma^2)
    - w_p^2 d^2/(2 hbar^2) + i p_t d/hbar) / (2 pi hbar sqrt(pi q)).  One
    expression serves every alpha: at alpha = 1 the widths vanish and C is
    |x_t, p_t><x_t, p_t| / (2 pi hbar).  GridTooSmall when the sampled mass
    2 pi hbar Tr C misses 1 by more than _PACKET_MASS_TOL; GridTooCoarse when
    packets 4.5 w_p beyond p_t approach the momentum cutoff.  ``mesh`` has no
    effect; it stays for callers that pass it (perfbench's channel workload).
    """
    _check_grid_resolution(pair, grid)
    hb, sig = pair.hbar, pair.brownian_width
    wx, wp = smearing_widths(pair)
    if abs(p_t) + 4.5 * wp + 6 * hb / sig > 0.9 * grid.momentum_cutoff(hb):
        raise GridTooCoarse("displaced packets approach the grid momentum cutoff")
    q = sig**2 + 2 * wx**2
    y = grid.x
    s, d = (y[:, None] + y) / 2, y[:, None] - y
    mat = np.exp(-(s - x_t) ** 2 / q - d**2 * (1 / (4 * sig**2) + wp**2 / (2 * hb**2))
                 + 1j * p_t * d / hb) * (grid.dx / (2 * np.pi * hb * np.sqrt(np.pi * q)))
    mass = 2 * np.pi * hb * np.trace(mat).real
    if abs(mass - 1.0) > _PACKET_MASS_TOL:
        raise GridTooSmall(f"effect operator mass on grid {mass:.8f} at x_t = {x_t:.4g}; "
                           "widen the grid")
    return OperatorGrid(mat, grid)


def operator_sqrt(op: OperatorGrid) -> OperatorGrid:
    """Positive square root by Hermitian eigendecomposition: eigenvalues in
    [-_CLAMP_TOL, 0) are clamped to zero, lower ones raise
    NegativeEigenvalueBeyondTolerance."""
    h = 0.5 * (op.matrix + op.matrix.conj().T)
    ev, U = np.linalg.eigh(h)
    if ev[0] < -_CLAMP_TOL:
        raise NegativeEigenvalueBeyondTolerance(
            f"eigenvalue {ev[0]:.3e} below -{_CLAMP_TOL:.1e}")
    root = (U * np.sqrt(np.clip(ev, 0.0, None))) @ U.conj().T
    return OperatorGrid(root, op.grid)


@functools.lru_cache(maxsize=4)
def _sqrt_effect_center(pair: CollisionPair, grid: SpatialGrid) -> np.ndarray:
    """Read-only sqrt of the origin-centered effect operator, one eigh per (pair, grid)."""
    root = operator_sqrt(build_effect_operator(pair, 0.0, 0.0, grid)).matrix
    root.flags.writeable = False
    return root


def _with_parity(pair: CollisionPair, root: np.ndarray) -> np.ndarray:
    """Pi root for alpha > 1, else root; Pi: x -> -x on the periodic grid.

    The label map scales the deviation from the pointer by c = (1 - alpha)/(1 + alpha),
    and only Pi reverses it where c < 0.  Pi commutes with the even sqrt(C_0),
    so K^dagger K is unchanged.
    """
    return root[-np.arange(len(root)) % len(root)] if pair.alpha > 1 else root


def kraus_displacement(pair: CollisionPair, gas_state, x_t: float, p_t: float):
    """Displacement arguments of the collision Kraus operator."""
    a = pair.alpha
    x_g, p_g = gas_state
    return (2 * a / (1 + a) * (x_g - x_t), 2 / (1 + a) * (p_g - a * p_t))


def build_kraus(pair: CollisionPair, gas_state, x_t: float, p_t: float,
                grid: SpatialGrid, mesh: PhaseSpaceMesh = PhaseSpaceMesh(),
                sqrt_effect_center: np.ndarray | None = None) -> OperatorGrid:
    """Collision Kraus operator: displacement composed with sqrt(effect).

    ``sqrt_effect_center`` may carry a cached sqrt of the origin-centered
    effect operator; displacement covariance supplies every other (x_t, p_t)
    as D(da, db) D(x_t, p_t) sqrt(C_0) D(x_t, p_t)^dagger, applied with
    displace_vector along rows and columns.  For alpha > 1, where the label
    map's c = (1 - alpha)/(1 + alpha) < 0, sqrt(C_0) is preceded by the
    parity Pi: x -> -x (_with_parity).  ``mesh`` has no effect (see
    build_effect_operator).
    """
    hb = pair.hbar
    if sqrt_effect_center is None:
        sqrt_effect_center = _sqrt_effect_center(pair, grid)
    da, db = kraus_displacement(pair, gas_state, x_t, p_t)
    root = _with_parity(pair, sqrt_effect_center)
    root = displace_vector(grid, root.conj(), x_t, p_t, hb).conj()
    cols = displace_vector(grid, displace_vector(grid, root.T, x_t, p_t, hb), da, db, hb)
    return OperatorGrid(cols.T, grid)


def _state_moments(rho: OperatorGrid, hbar: float):
    g = rho.grid
    dpos = np.real(np.diag(rho.matrix))
    tr = dpos.sum()
    mx = float(np.sum(g.x * dpos) / tr)
    sx = float(np.sqrt(max(np.sum((g.x - mx) ** 2 * dpos) / tr, g.dx**2)))
    mom = fft(rho.matrix, axis=0)
    mom = ifft(mom, axis=1)
    dmom = np.real(np.diag(mom))
    dmom = np.maximum(dmom, 0.0)
    ks = g.k
    mp = float(np.sum(ks * dmom) / dmom.sum() * hbar)
    sp = float(hbar * np.sqrt(max(np.sum((ks - mp / hbar) ** 2 * dmom) / dmom.sum(),
                                  (2 * np.pi / (g.n * g.dx)) ** 2)))
    return mx, sx, mp, sp


def _pointer_nodes(rho: OperatorGrid, pair: CollisionPair, pointer_mesh: PhaseSpaceMesh):
    """Axes (x_t, p_t) of the pointer quadrature mesh of apply_collision_channel.

    Centered on the state's phase-space support, widened by the smearing
    and packet widths.
    """
    hb = pair.hbar
    wx, wp = smearing_widths(pair)
    sig = pair.brownian_width
    mx, sx, mp, sp = _state_moments(rho, hb)
    span_x = pointer_mesh.span_std * np.hypot(np.hypot(sx, sig / np.sqrt(2)), wx)
    span_p = pointer_mesh.span_std * np.hypot(np.hypot(sp, hb / (sig * np.sqrt(2))), wp)
    step_x = min(sig, sig if wx == 0 else wx) / pointer_mesh.points_per_std
    step_p = min(hb / sig, hb / sig if wp == 0 else wp) / pointer_mesh.points_per_std
    xts = np.arange(mx - span_x, mx + span_x + step_x / 2, step_x)
    pts = np.arange(mp - span_p, mp + span_p + step_p / 2, step_p)
    return xts, pts


def apply_collision_channel(rho: OperatorGrid, pair: CollisionPair, gas_state,
                            t: float, mesh: PhaseSpaceMesh = PhaseSpaceMesh(),
                            pointer_mesh: PhaseSpaceMesh = PhaseSpaceMesh(6.0, 4.5),
                            ) -> OperatorGrid:
    """One full collision with the gas packet ``gas_state``, then U(t).

    Sums area * K rho K^dagger over the pointer mesh (_pointer_nodes), with
    K = D(da, db) D(x_t, p_t) sqrt(C) D(x_t, p_t)^dagger as in build_kraus
    (with the parity Pi sqrt(C) for alpha > 1, where c < 0) and
    rho = sum_j v_j v_j^dagger over its kept eigenvectors.  Trace is
    preserved up to the pointer mesh truncation (~1e-3 budget).  ``mesh``
    has no effect (see build_effect_operator); ``pointer_mesh`` sets the
    pointer nodes.

    The nodes are batched one x_t row at a time: the row shares one shift
    by -x_t, the -p_t boosts are broadcast over its n_p * r vectors, sqrt(C)
    is one matrix product, and the shifts by x_t and then by da(x_t), each
    followed by its boost, are one FFT pass each.  The split-form
    displacements stay apart: on the periodic grid D(da, db) D(x_t, p_t)
    equals D(da + x_t, db + p_t) only for boosts in multiples of 2 pi hbar / L.
    """
    grid = rho.grid
    hb = pair.hbar
    _check_grid_resolution(pair, grid)
    xts, pts = _pointer_nodes(rho, pair, pointer_mesh)

    ev, U = np.linalg.eigh(0.5 * (rho.matrix + rho.matrix.conj().T))
    keep = ev > max(1e-12, 1e-12 * ev[-1])
    vecs_f = fft((U[:, keep] * np.sqrt(ev[keep])).T, axis=-1)  # (r, n)

    sqrt_c = _with_parity(pair, _sqrt_effect_center(pair, grid))
    root_area = np.sqrt((xts[1] - xts[0]) * (pts[1] - pts[0]))
    das, dbs = kraus_displacement(pair, gas_state, xts, pts)
    # the x-dependent boost factors do not depend on the row
    wave = np.exp(1j * pts[:, None] * grid.x / hb)
    kick = np.exp(1j * dbs[:, None] * grid.x / hb)
    out = np.zeros((grid.n, grid.n), dtype=complex)
    for x_t, da in zip(xts, das):
        # D(-x_t, -p_t) and D(x_t, p_t) share the symmetric phase
        sym = np.exp(-1j * x_t * pts / (2 * hb))[:, None]
        back = ifft(np.exp(1j * grid.k * x_t) * vecs_f, axis=-1)  # shift by -x_t
        block = ((sym * wave.conj())[:, None, :] * back).reshape(-1, grid.n)
        block = (block @ sqrt_c.T).reshape(pts.size, -1, grid.n)
        block = (sym * wave)[:, None, :] * _shift(grid, block, x_t)
        block = (np.exp(-1j * da * dbs / (2 * hb))[:, None] * kick)[:, None, :] \
            * _shift(grid, block, da)
        C = root_area * block.reshape(-1, grid.n)
        out += C.T @ C.conj()
    if t:
        phase = np.exp(-1j * hb * grid.k**2 * t / (2 * pair.brownian_mass))
        out = ifft(phase[:, None] * fft(out, axis=0), axis=0)
        out = fft(phase.conj()[None, :] * ifft(out, axis=1), axis=1)
    return OperatorGrid(0.5 * (out + out.conj().T), grid)


# ---------------------------------------------------------------------------
# coherent phase-space integrals and the collision rate
# ---------------------------------------------------------------------------

# momentum half-span of the coherent integrals, in packet momentum widths
_SUM_P_SPAN_STD = 6.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_rule(edges, width: float):
    """(nodes, weights): 16-node Gauss-Legendre panels at most ``width`` wide
    between consecutive breakpoints ``edges`` (increasing)."""
    cuts = np.concatenate([edges[:1], *(np.linspace(a, b, int(np.ceil((b - a) / width)) + 1)[1:]
                                        for a, b in zip(edges[:-1], edges[1:]))])
    mid, half = (cuts[1:] + cuts[:-1])[:, None] / 2, np.diff(cuts)[:, None] / 2
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _coherent_integral(grid: SpatialGrid, width: float, hbar: float, ps, weights,
                       x_lo, x_hi) -> np.ndarray:
    """sum_j weights[j] int_{x_lo[j]}^{x_hi[j]} dx |x, p_j><x, p_j| / (2 pi hbar).

    In s = (y + y')/2 and d = y - y' the x-integral is exp(-d^2/(4 width^2)
    + i p d/hbar) (erf((x_hi - s)/width) - erf((x_lo - s)/width))/2: a product
    over the momenta, lags d >= 0 by the 2N - 1 values of s, gathered into
    N x N and mirrored to d < 0."""
    d = grid.dx * np.arange(grid.n)
    s = grid.x[0] + grid.dx / 2 * np.arange(2 * grid.n - 1)
    phase = weights * np.exp(1j * np.outer(d, ps) / hbar - (d[:, None] / (2 * width)) ** 2)
    mass = erf((x_hi[:, None] - s) / width) - erf((x_lo[:, None] - s) / width)
    i, j = np.ogrid[:grid.n, :grid.n]
    mat = ((phase @ mass) * (grid.dx / (4 * np.pi * hbar)))[abs(i - j), i + j]
    return np.where(i >= j, mat, mat.conj())


@dataclass(frozen=True)
class PhaseSpaceRegion:
    """Wedge 0 < (x - x_g)/(p_g/m_g - p/m) < delta of states that collide
    with the gas packet (x_g, p_g) within one coarse step."""

    x_g: float
    p_g: float
    delta: float
    brownian_mass: float
    gas_mass: float

    def relative_velocity(self, p):
        return self.p_g / self.gas_mass - np.asarray(p) / self.brownian_mass


def build_projection(region: PhaseSpaceRegion, pair: CollisionPair,
                     grid: SpatialGrid) -> OperatorGrid:
    """Approximate projection onto the region: coherent integral over S.

    At momentum p, S is the x-interval from x_g to x_g + delta v_rel(p),
    clipped where a packet centre would lose more than grid_packet's mass
    tolerance off the grid; _coherent_integral integrates it in closed form.
    Momenta 0 +- (_SUM_P_SPAN_STD packet momentum widths + m |p_g| / m_g)
    take 16-node Gauss-Legendre panels at most one such width wide, split at
    the kinks: v_rel = 0 and where the moving end meets a clipping bound.
    Raises EmptyRegion when no clipped interval has length, as at delta <= 0.
    """
    if region.delta <= 0:
        raise EmptyRegion(f"delta = {region.delta:.4g}: the wedge is empty")
    hb, sig, m = pair.hbar, pair.brownian_width, region.brownian_mass
    p_stop = region.p_g / region.gas_mass * m  # v_rel = 0
    p_half = _SUM_P_SPAN_STD * hb / sig + abs(p_stop)
    bounds = grid.x[[0, -1]] + np.array([1, -1]) * sig * _PACKET_MASS_REACH
    kinks = p_stop - m * (bounds - region.x_g) / region.delta
    edges = np.unique(np.clip(np.r_[-p_half, p_stop, kinks, p_half], -p_half, p_half))
    ps, w = _panel_rule(edges, hb / sig)
    reach = region.x_g + region.delta * region.relative_velocity(ps)
    x_lo, x_hi = (np.clip(f(region.x_g, reach), *bounds) for f in (np.minimum, np.maximum))
    if not np.any(x_hi > x_lo):
        raise EmptyRegion("the region has no area inside the grid's clipped window")
    return OperatorGrid(_coherent_integral(grid, sig, hb, ps, w, x_lo, x_hi), grid)


def completeness_residual(pair: CollisionPair, grid: SpatialGrid) -> float:
    """Operator-norm residual, on nine interior test packets, of the coherent
    completeness integral over the central 55 % of the grid and momenta
    0 +- _SUM_P_SPAN_STD packet momentum widths, by build_projection's route."""
    hb, sig = pair.hbar, pair.brownian_width
    half, p_half = 0.55 * grid.length / 2, _SUM_P_SPAN_STD * hb / sig
    ps, w = _panel_rule(np.array([-p_half, p_half]), hb / sig)
    M = _coherent_integral(grid, sig, hb, ps, w, np.full(ps.size, -half), np.full(ps.size, half))
    tests = grid_packets(grid, sig, hb, np.repeat([-half / 3, 0.0, half / 3], 3),
                         np.tile([-p_half / 4, 0.0, p_half / 4], 3))
    return float(np.max(np.linalg.norm(M @ tests - tests, axis=0)))


def aggregate_rate_operator(pair: CollisionPair, gas: ThermalGasSpec,
                            grid: SpatialGrid, points_per_std: float = 6.0) -> OperatorGrid:
    """Total collision rate operator R = P_delta / delta.

    The gas-label integral of the probability operators reduces exactly to
    a coherent smearing of the flux function n_g E|p_g/m_g - p/m| (the
    x_g-integral of the wedge has measure delta * |relative velocity|), so
    R does not depend on delta.

    The position integral runs over one whole period of the grid, where
    int dx |x,p><x,p| / (2 pi hbar) is exactly diagonal in momentum, with
    the packet momentum density N(p, hbar^2 / 2 sigma^2) at hbar k on its
    diagonal.  R is therefore diagonal in momentum with the symbol

        r(hbar k) = n_g int dp E|v_g - p/m| N(hbar k; p, hbar^2 / 2 sigma^2),

    E taken over label velocities at the adjusted temperature T_sigma.  The
    relative velocity v_g - p/m is then Gaussian with mean -hbar k/m and
    variance k_B T_sigma/m_g + hbar^2/(2 m^2 sigma^2), the label spread plus
    the packet's own, so r(hbar k) is n_g E|v_g - hbar k/m| in closed form
    (mean_relative_speed) at the temperature whose k_B T/m_g is that
    variance.  ``points_per_std`` has no effect; it stays for callers that
    pass it (perfbench's channel workload).
    """
    hb = pair.hbar
    sig = pair.brownian_width
    m = pair.brownian_mass
    t_eff = adjusted_temperature(gas) + gas.gas_mass * hb**2 / (2 * gas.k_B * m**2 * sig**2)
    symbol = gas.number_density * mean_relative_speed(gas, hb * grid.k, m, temperature=t_eff)
    # circulant position kernel of the momentum-diagonal operator
    kernel = ifft(symbol)
    idx = np.arange(grid.n)
    mat = kernel[(idx[:, None] - idx[None, :]) % grid.n]
    return OperatorGrid(0.5 * (mat + mat.conj().T), grid)
