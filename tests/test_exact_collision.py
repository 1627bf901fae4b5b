import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from qbm1d import exact_collision as ec, grid_oracle
from qbm1d.errors import TimeTooLate, ZeroRelativeMomentum
from qbm1d.packets import CollisionPair, EvolvedPacket


@pytest.fixture(scope="module")
def pair():
    return CollisionPair.matched(1.0, 0.3, 4.0)


@pytest.fixture(scope="module")
def init(pair):
    # the reference configuration: Brownian packet at +10 moving left at p=-2
    return ec.com_condition(pair, 10.0, -2.0)


@pytest.fixture(scope="module")
def t_c(pair, init):
    return ec.collision_time(pair, init.p)


# ---------------------------------------------------------------------------
# oracles: routes independent of the closed forms, kept on the test side
# ---------------------------------------------------------------------------

def _eigenenergy(pair, kt, kb):
    """Energy of the hard-wall eigenfunction with wavenumbers (kt, kb)."""
    a = pair.alpha
    return (1 + a) * (np.asarray(kt) ** 2 + a * np.asarray(kb) ** 2) * pair.hbar**2 / (2 * pair.gas_mass)


def _spectral_amplitude(pair, init, kt, kb):
    """Expansion amplitude of the initial state over the hard-wall eigenbasis.

    Defined for kt > 0; vanishes linearly as kt -> 0+ (the two Gaussian
    terms cancel).  Vectorized over (kt, kb).
    """
    a = pair.alpha
    s = pair.brownian_width
    hb = pair.hbar
    x, p = init.x, init.p
    kt = np.asarray(kt, dtype=float)
    kb = np.asarray(kb, dtype=float)
    c = (1 + a) * s**2 / (2 * a)
    pref = (1 + a) * s / np.sqrt(2 * np.pi * np.sqrt(a))
    glob = np.exp(1j * x * p * (1 + a) / (2 * a * hb) - kb**2 * (1 + a) * s**2 / 2)
    term_plus = np.exp(1j * kt * x * (1 + a) / a) * np.exp(-((kt + p / hb) ** 2) * c)
    term_minus = np.exp(-1j * kt * x * (1 + a) / a) * np.exp(-((kt - p / hb) ** 2) * c)
    return pref * glob * (term_plus - term_minus)


def _halfplane_nodes(pair, init, t, n_u=128, n_d=256, n_std=12.0):
    """2-D Gauss-Legendre nodes (x_g', x', weight) over the half plane x' > x_g'.

    The axes are the separation d = x' - x_g' in [0, d_hi] and the weighted
    centre u = (x' + alpha x_g')/(1+alpha), so the wall is an edge of the
    box; the extent comes from the free packets' centres and variances.
    """
    a = pair.alpha
    gas = EvolvedPacket(pair.gas_packet(*init.gas_label(pair)), t)
    br = EvolvedPacket(pair.brownian_packet(init.x, init.p), t)
    var_br, var_gas = br.covariance()[0], gas.covariance()[0]
    d_hi = abs(br.center - gas.center) + n_std * np.sqrt(var_br + var_gas)
    u_hi = n_std * np.sqrt(var_br + a**2 * var_gas) / (1 + a)
    un, uw = np.polynomial.legendre.leggauss(n_u)
    dn, dw = np.polynomial.legendre.leggauss(n_d)
    U, D = np.meshgrid(u_hi * un, 0.5 * d_hi * (dn + 1), indexing="ij")
    return U - D / (1 + a), U + a * D / (1 + a), np.outer(u_hi * uw, 0.5 * d_hi * dw)


def _grid_sums(pair, init, t, h=1e-5):
    """Norm, <x'>, <p>, <p_g> and outgoing fidelity as sums of wavefunction
    over one half-plane grid; momenta by central differences."""
    XG, XB, W = _halfplane_nodes(pair, init, t)

    def psi_at(xg, xb):
        return ec.wavefunction(pair, init, t, xg, xb)

    psi = psi_at(XG, XB)
    dens = W * np.abs(psi) ** 2
    d_xb = (psi_at(XG, XB + h) - psi_at(XG, XB - h)) / (2 * h)
    d_xg = (psi_at(XG + h, XB) - psi_at(XG - h, XB)) / (2 * h)
    x_g, p_g = init.gas_label(pair)
    gas_out = EvolvedPacket(pair.gas_packet(-x_g, -p_g), t)
    br_out = EvolvedPacket(pair.brownian_packet(-init.x, -init.p), t)
    target = gas_out.amplitude(XG) * br_out.amplitude(XB)
    return {
        "norm": dens.sum(),
        "x_mean": np.sum(dens * XB),
        "p_mean": pair.hbar * np.imag(np.sum(W * np.conj(psi) * d_xb)),
        "p_g_mean": pair.hbar * np.imag(np.sum(W * np.conj(psi) * d_xg)),
        "fidelity": abs(np.sum(W * np.conj(target) * psi)) ** 2,
    }


def _quad_position_marginal(pair, init, t, x_prime):
    """Adaptive quadrature of |psi|^2 over the gas coordinate up to the wall."""
    a = pair.alpha
    c = init.x + init.p * t / pair.brownian_mass
    std_g = abs(pair.brownian_width**2 + 1j * pair.hbar * t / pair.brownian_mass) / (
        pair.brownian_width * np.sqrt(2.0 * a))
    lo = -abs(c) / a - 12 * std_g
    hi = min(x_prime, abs(c) / a + 12 * std_g)
    if hi <= lo:
        return 0.0
    pts = [v for v in (-c / a, c / a) if lo < v < hi]
    val, err = integrate.quad(
        lambda xg: abs(ec.wavefunction(pair, init, t, xg, x_prime)) ** 2,
        lo, hi, points=pts or None, limit=300, epsabs=1e-10, epsrel=1e-10)
    assert err < 1e-9
    return val


def _halfline_upper(A, B, c, extra_log):
    """``ec._halfline_upper`` with the generic whole-line exponent B^2/4A +
    extra_log, independent of the closed-form weights the library passes."""
    return ec._halfline_upper(A, B, c, extra_log, B**2 / (4 * A) + extra_log)


def _quad_momentum_marginal(pair, init, t, p_prime):
    """Adaptive quadrature over the gas coordinate of |F(x_g', p')|^2, F the
    exact half-line transform of psi over x' > x_g'."""
    a = pair.alpha
    hb = pair.hbar
    st, _, G, pref, m0 = ec._core(pair, init, t)
    A = 1.0 / (2 * st)
    c = init.x + init.p * t / pair.brownian_mass
    std_g = abs(st) / (pair.brownian_width * np.sqrt(2.0 * a))
    lo, hi = -abs(c) / a - 12 * std_g, abs(c) / a + 12 * std_g
    pts = [v for v in (-c / a, c / a) if lo < v < hi]

    def F(xg):
        base = -a * xg**2 / (2 * st) + m0
        plus = _halfline_upper(A, G - 1j * p_prime / hb, xg, base - G * xg)
        minus = _halfline_upper(A, -G - 1j * p_prime / hb, xg, base + G * xg)
        return pref * (plus - minus) / np.sqrt(2 * np.pi * hb)

    with warnings.catch_warnings():
        # roundoff warnings at x = 60 sigma; the error estimate is checked
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(lambda xg: abs(F(xg)) ** 2, lo, hi,
                                  points=pts or None, limit=300, epsabs=1e-10,
                                  epsrel=1e-10)
    assert err < 1e-8
    return val


# the x_g' rule, the former production route of the momentum marginal: gas
# position stds covered around each packet, nodes per resolved length, and
# the most (p', x_g') elements evaluated at once
_N_STD = 8.0
_PER_SCALE = 4.0
_BLOCK = 1 << 18


def _gas_nodes(pair, init, t):
    """(x_g', weight) of a composite Gauss-Legendre rule over the gas packets.

    The incoming and the reflected gas packet sit at -+c/alpha, c the free
    Brownian centre, with one position std; the rule covers _N_STD stds
    around each, past which a Gaussian keeps 1e-15 of its mass.  At fixed p'
    the density in x_g' varies on the scale of that std and oscillates no
    faster than the total-momentum spread hbar sqrt(1+alpha)/(sqrt(2) sigma)
    allows, so the node spacing resolves both lengths.
    """
    a = pair.alpha
    s = pair.brownian_width
    std = abs(s**2 + 1j * pair.hbar * t / pair.brownian_mass) / (s * np.sqrt(2.0 * a))
    gc = abs(init.x + init.p * t / pair.brownian_mass) / a
    half = _N_STD * std
    spans = ([(-gc - half, gc + half)] if gc < half
             else [(-gc - half, -gc + half), (gc - half, gc + half)])
    xs, ws = [], []
    for lo, hi in spans:
        x, w = _gl_rule(lo, hi, 16 * min(std, s / np.sqrt(1 + a)) / _PER_SCALE)
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _xg_rule_momentum_marginal(pair, init, t, ps):
    """Momentum density as the x_g' integral of |F(x_g', p')|^2, F the exact
    half-line transform of psi over x' > x_g', on the rule of _gas_nodes."""
    a = pair.alpha
    st, _, G, pref, m0 = ec._core(pair, init, t)
    xg, w = _gas_nodes(pair, init, t)
    A = 1.0 / (2 * st)
    base = -a * xg**2 / (2 * st) + m0
    out = np.empty(ps.size)
    rows = max(1, _BLOCK // xg.size)
    for i in range(0, ps.size, rows):
        k = 1j * ps[i:i + rows, None] / pair.hbar
        F = (_halfline_upper(A, G - k, xg, base - G * xg)
             - _halfline_upper(A, -G - k, xg, base + G * xg))
        out[i:i + rows] = np.abs(F) ** 2 @ w
    return abs(pref) ** 2 / (2 * np.pi * pair.hbar) * out


def _gl_rule(lo, hi, panel, n=16):
    """Composite Gauss-Legendre (nodes, weights) on [lo, hi], panels <= panel."""
    k = int(np.ceil((hi - lo) / panel))
    x, w = np.polynomial.legendre.leggauss(n)
    h = (hi - lo) / (2 * k)
    mids = lo + h * (2 * np.arange(k) + 1)
    return (mids[:, None] + h * x).ravel(), np.tile(h * w, k)


def _lab_position_mean(lab, t):
    """Closed-form lab-frame Brownian position mean at time t.  In the COM
    frame <x'> = <u> + alpha <d>/(1 + alpha), and <u> = 0; <d> is the signed
    sum of the terms' first moments, sum_k s_k B_k I0_k / 2A."""
    _, _, A, B, i0 = ec._density_moments(lab.pair, lab.com_init, t)
    a = lab.pair.alpha
    com_mean = a / (1 + a) * float(np.real((ec._SIGNS * B) @ i0)) / (2 * A)
    return lab.com_offset + lab.boost_velocity * t + lab.reflection * com_mean


# (alpha, sigma, x, p): the fixture, the benchmark's collide COM frame, equal
# masses, a heavy gas, the trajectory defaults and packets 60 widths apart
MOMENTUM_CONFIGS = [(0.3, 4.0, 10.0, -2.0), (0.7, 3.0, 6.0, -2.0),
                    (1.0, 2.0, 6.0, -2.0), (5.0, 1.0, 4.0, -1.0),
                    (0.02, 8.0, 30.0, -1.0), (0.3, 1.0, 60.0, -2.0)]
# (alpha, sigma, x, p) of completed collisions at momentum ratios 0.7 to 2.1
COMPLETED_CONFIGS = [(0.3, 1.0, 60.0, -1.0), (3.0, 1.0, 40.0, -1.0),
                     (0.3, 2.0, 40.0, -0.3), (1.0, 1.0, 50.0, -0.5)]


class TestCollisionTime:
    def test_reference_value(self, pair, init, t_c):
        expected = np.sqrt(8 / 1.3) * pair.gas_width * 0.3 / 2.0
        assert t_c == pytest.approx(expected, rel=1e-14)
        assert t_c == pytest.approx(2.718, abs=1e-3)

    def test_heavy_limit(self):
        pair = CollisionPair.matched(1.0, 1e-9, 1.0)
        assert ec.collision_time(pair, 2.0) == pytest.approx(
            np.sqrt(8) * pair.gas_width * 1e-9 / 2.0, rel=1e-8)

    def test_inverse_momentum_scaling(self, pair):
        assert ec.collision_time(pair, 4.0) == pytest.approx(
            ec.collision_time(pair, 2.0) / 2, rel=1e-14)

    def test_zero_momentum_raises(self, pair):
        with pytest.raises(ZeroRelativeMomentum):
            ec.collision_time(pair, 0.0)


class TestSpectralAmplitude:
    def test_vanishes_at_small_kt(self, pair, init):
        peak = abs(_spectral_amplitude(pair, init, 2.0, 0.0))
        tiny = abs(_spectral_amplitude(pair, init, 1e-12, 0.0))
        assert tiny < 1e-9 * peak

    def test_peak_location(self, pair, init):
        kts = np.linspace(0.05, 4.0, 400)
        kbs = np.linspace(-1.5, 1.5, 301)
        KT, KB = np.meshgrid(kts, kbs, indexing="ij")
        mag = np.abs(_spectral_amplitude(pair, init, KT, KB))
        i, j = np.unravel_index(np.argmax(mag), mag.shape)
        assert kts[i] == pytest.approx(abs(init.p) / pair.hbar, abs=0.05)
        assert abs(kbs[j]) < 0.02

    @pytest.mark.parametrize("t", [0.0, 2.0, 5.0, 8.0])
    def test_reconstructs_wavefunction(self, pair, init, t):
        # quadrature of the eigenfunction expansion against the closed form
        ktn, ktw = np.polynomial.legendre.leggauss(700)
        kbn, kbw = np.polynomial.legendre.leggauss(360)
        kt = 2.25 * (ktn + 1.0)
        wkt = 2.25 * ktw
        kb = 2.0 * kbn
        wkb = 2.0 * kbw
        KT, KB = np.meshgrid(kt, kb, indexing="ij")
        W = np.outer(wkt, wkb)
        amp = _spectral_amplitude(pair, init, KT, KB)
        phase = np.exp(-1j * _eigenenergy(pair, KT, KB) * t / pair.hbar)
        pts = [(-30.0, 8.0), (-20.0, 5.0), (-35.0, 9.0), (-33.0, 12.0),
               (0.0, 2.0), (-5.0, 1.0)]
        for (xg, xb) in pts:
            basis = -2.0 * np.exp(1j * KB * (xb + pair.alpha * xg)) * np.sin(KT * (xb - xg))
            val = (1j / (np.sqrt(2) * np.pi)) * np.sum(W * amp * phase * basis)
            ref = complex(ec.wavefunction(pair, init, t, xg, xb))
            assert val == pytest.approx(ref, abs=5e-9)


class TestWavefunction:
    def test_zero_on_and_beyond_wall(self, pair, init):
        xs = np.linspace(-20, 20, 41)
        for t in (0.0, 3.0):
            assert np.all(ec.wavefunction(pair, init, t, xs, xs) == 0)
            assert np.all(ec.wavefunction(pair, init, t, xs + 1.0, xs) == 0)

    def test_continuous_at_wall(self, pair, init):
        for eps in (1e-3, 1e-5, 1e-7):
            v = abs(ec.wavefunction(pair, init, 5.0, 0.0, eps))
            assert v < 10 * eps

    def test_reduces_to_product_at_t0(self, pair, init):
        # 512^2 grid: relative L2 distance to the free product amplitude
        n = 512
        xg = np.linspace(-80, 40, n)
        xb = np.linspace(-40, 60, n)
        XG, XB = np.meshgrid(xg, xb, indexing="ij")
        prod = (pair.gas_packet(*init.gas_label(pair)).amplitude(XG)
                * pair.brownian_packet(init.x, init.p).amplitude(XB))
        prod = np.where(XG < XB, prod, 0.0)
        w0 = ec.wavefunction(pair, init, 0.0, XG, XB)
        err = np.linalg.norm(w0 - prod) / np.linalg.norm(prod)
        assert err < 1e-6

    @pytest.mark.parametrize("units", [0.0, 1.0, 3.0])
    def test_unit_norm(self, pair, init, t_c, units):
        assert ec.two_particle_norm(pair, init, units * t_c) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,sigma,x,p", [(1.0, 1.0, 0.5, -0.5),
                                                 (1.0, 1.0, 1.0, -1.0),
                                                 (0.3, 2.0, 1.0, -0.4)])
    def test_norm_of_overlapping_packets(self, alpha, sigma, x, p):
        # 1 minus the overlap of the initial product with its wall image
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        expected = 1 - np.exp(-(1 + alpha) * (x**2 / sigma**2 + p**2 * sigma**2) / alpha)
        for t in (0.0, 1.0, 3.0):
            assert ec.two_particle_norm(pair, init, t) == pytest.approx(expected, abs=1e-12)


class TestCOMRecord:
    def test_holds_only_the_brownian_label(self, pair, init):
        # the gas label is fixed by the Brownian one, so a record that pairs
        # p = -2 with a gas momentum of 5 (fidelity 8.1e-77 and a momentum
        # ratio of 41.6 when it could be built) cannot be built
        assert [f.name for f in dataclasses.fields(ec.COMInitialCondition)] == ["x", "p"]
        assert init.gas_label(pair) == (-10.0 / 0.3, 2.0)
        with pytest.raises(TypeError):
            ec.COMInitialCondition(x_g=-10.0 / 0.3, p_g=5.0, x=10.0, p=-2.0)

    def test_gas_label_readers_keep_their_values(self, pair, init, t_c):
        # at the fig1 defaults, bit for bit: the ratios are those of the record
        # that stored (x_g, p_g) = (-x / alpha, -p) next to (x, p)
        assert ec.outgoing_fidelity(pair, init, 3 * t_c) == 0.9999644196233548
        assert ec.collision_ratios(pair, init) == {"overlap_ratio": 5.204164998665332,
                                                   "momentum_ratio": 16.653327995729065,
                                                   "label_map_error": 6.078245439993482e-123}
        grid = grid_oracle.default_grid(pair, init, 1024, t_max=3 * t_c)
        assert (grid.R_halfwidth, grid.r_length) == (57.248555909180524, 236.1301864149656)


class TestPositionMarginal:
    def test_initial_gaussian(self, pair, init):
        # density of the Brownian packet: N(10, sigma^2/2)
        xs = np.linspace(-6, 26, 161)
        dens = ec.position_marginal(pair, init, 0.0, xs)
        ref = np.exp(-(xs - 10.0) ** 2 / pair.brownian_width**2) / np.sqrt(
            np.pi * pair.brownian_width**2)
        assert np.max(np.abs(dens - ref)) < 1e-5

    def test_late_time_reflected_packet(self, pair, init, t_c):
        t = 5 * t_c
        out = EvolvedPacket(pair.brownian_packet(-init.x, -init.p), t)
        xs = np.linspace(out.center - 15, out.center + 15, 121)
        dens = ec.position_marginal(pair, init, t, xs)
        ref = np.abs(out.amplitude(xs)) ** 2
        assert np.max(np.abs(dens - ref)) < 1e-4

    @pytest.mark.parametrize("t", [0.0, 2.7, 5.0, 9.0])
    def test_nonnegative_and_normalized(self, pair, init, t):
        xs = np.linspace(-60, 60, 1201)
        dens = ec.position_marginal(pair, init, t, xs)
        assert np.all(dens >= -1e-12)
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t,xp", [(0.0, 8.0), (3.0, 4.0), (5.0, 0.5), (9.0, -12.0)])
    def test_erf_closed_form_cross_check(self, pair, init, t, xp):
        quad_val = _quad_position_marginal(pair, init, t, xp)
        erf_val = ec.position_marginal(pair, init, t, xp)
        assert isinstance(erf_val, float)
        assert erf_val == pytest.approx(quad_val, abs=1e-8)

    def test_profile_grid_matches_quad(self, pair, init):
        xs = np.array([-8.0, 0.0, 4.0, 10.0])
        a = [_quad_position_marginal(pair, init, 5.0, float(v)) for v in xs]
        b = ec.position_marginal(pair, init, 5.0, xs)
        np.testing.assert_allclose(b, a, atol=1e-8)

    @pytest.mark.parametrize("alpha,sigma,x,p", [(0.3, 4.0, 10.0, -2.0),
                                                 (0.3, 1.0, 60.0, -2.0)])
    def test_no_floating_point_warnings(self, alpha, sigma, x, p):
        # each element of the vectorized kernel takes only its bounded branch
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        xs = np.linspace(-3 * x, 3 * x, 1201)
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            for t in (0.0, abs(x / p), 3 * abs(x / p)):
                dens = ec.position_marginal(pair, init, t, xs)
                assert np.all(np.isfinite(dens))


class TestMomentumMarginal:
    def test_initial_gaussian(self, pair, init):
        # momentum density of the incoming packet: N(-2, hbar^2/(2 sigma^2))
        ps = np.linspace(-3.2, -0.8, 49)
        dens = ec.momentum_marginal(pair, init, 0.0, ps)
        var = pair.hbar**2 / (2 * pair.brownian_width**2)
        ref = np.exp(-(ps + 2.0) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(dens - ref)) < 1e-5

    @pytest.mark.parametrize("p", [-1.0, -2.0])
    def test_initial_gaussian_far_apart(self, p):
        # packets 60 widths apart: the full-line exponent of D~ is formed in
        # closed form, not as B^2/4A + log C, two parts of ~7,800 that
        # cancel and left 1.6e-12 of the peak
        pair = CollisionPair.matched(1.0, 0.3, 1.0)
        init = ec.com_condition(pair, 60.0, p)
        std = pair.hbar / (np.sqrt(2) * pair.brownian_width)
        ps = np.linspace(p - 6 * std, p + 6 * std, 97)
        ref = np.exp(-((ps - p) / std) ** 2 / 2) / (np.sqrt(2 * np.pi) * std)
        dens = ec.momentum_marginal(pair, init, 0.0, ps)
        assert np.max(np.abs(dens - ref)) <= 1e-14 * ref.max()

    def test_late_time_reflected(self, pair, init, t_c):
        ps = np.linspace(0.8, 3.2, 49)
        dens = ec.momentum_marginal(pair, init, 5 * t_c, ps)
        var = pair.hbar**2 / (2 * pair.brownian_width**2)
        ref = np.exp(-(ps - 2.0) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(dens - ref)) < 1e-4

    def test_normalized_before_collision(self, pair, init):
        val, _ = integrate.quad(
            lambda p: ec.momentum_marginal(pair, init, 0.0, p), -4.5, 4.5,
            limit=200, points=[-2.0])
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_normalized_mid_collision(self, pair, init):
        # the wall kink feeds power-law (~p^-4) momentum tails while the
        # collision is in progress; the window must be wide to catch them
        val, _ = integrate.quad(
            lambda p: ec.momentum_marginal(pair, init, 4.0, p), -12, 12,
            limit=300, points=[-2.0, 2.0])
        assert val == pytest.approx(1.0, abs=3e-5)

    @pytest.mark.parametrize("units", [0.0, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("alpha,sigma,x,p", MOMENTUM_CONFIGS)
    def test_matches_quad(self, alpha, sigma, x, p, units):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        t = units * abs(x / p)
        ps = np.linspace(-abs(p) - 3 / sigma, abs(p) + 3 / sigma, 11)
        ref = [_quad_momentum_marginal(pair, init, t, float(v)) for v in ps]
        tol = 1e-6 if alpha == 0.02 or x == 60.0 else 1e-8
        np.testing.assert_allclose(ec.momentum_marginal(pair, init, t, ps), ref,
                                   rtol=0, atol=tol)
        # the mean over +-12 hbar/sigma around +-p, on a rule that resolves
        # hbar/sigma, against the closed-form <p>
        nodes, w = _gl_rule(-abs(p) - 12 / sigma, abs(p) + 12 / sigma, 1 / sigma, n=8)
        mean = (ec.momentum_marginal(pair, init, t, nodes) * nodes) @ w
        assert mean == pytest.approx(ec.brownian_momentum_mean(pair, init, t), abs=1e-6)

    @pytest.mark.parametrize("alpha,sigma,x,p,units,n", [
        *[(*cfg, units, 41) for cfg in MOMENTUM_CONFIGS for units in (0.0, 0.5, 1.0, 1.5, 3.0)],
        # the quantum regime at the meeting time: p sigma / hbar = 0.3, and 1
        # with packets 60 widths apart, where a fixed rule over P failed
        (0.3, 1.0, 5.0, -0.3, 1.0, 11), (0.3, 1.0, 60.0, -1.0, 1.0, 11)])
    def test_matches_xg_rule(self, alpha, sigma, x, p, units, n):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        t = units * abs(x / p)
        ps = np.linspace(-abs(p) - 3 / sigma, abs(p) + 3 / sigma, n)
        ref = _xg_rule_momentum_marginal(pair, init, t, ps)
        np.testing.assert_allclose(ec.momentum_marginal(pair, init, t, ps), ref,
                                   rtol=0, atol=1e-11 * ref.max())

    def test_empty_momenta(self, pair, init):
        assert ec.momentum_marginal(pair, init, 5.0, np.array([])).shape == (0,)
        assert ec.momentum_marginal(pair, init, 5.0, [], return_nodes=True)[1] == 0

    def test_density_independent_of_the_other_momenta(self):
        # packets 60 widths apart, past the meeting, where the spacing follows
        # the reach of D: densities of a table, computed alone, bit for bit
        pair = CollisionPair.matched(1.0, 0.3, 1.0)
        init = ec.com_condition(pair, 60.0, -2.0)
        _, G, _, A, *_ = ec._factorized(pair, init, 90.0)
        assert abs(G.real) * np.sqrt(2 / A) < ec._WALL_R
        ps = np.linspace(-4.0, 4.0, 241)
        table = ec.momentum_marginal(pair, init, 90.0, ps)
        alone = [ec.momentum_marginal(pair, init, 90.0, v) for v in ps[::4]]
        assert np.array_equal(table[::4], alone)
        _, nodes = ec.momentum_marginal(pair, init, 90.0, ps, return_nodes=True)
        assert nodes > ec.momentum_marginal(pair, init, 90.0, ps[:1], return_nodes=True)[1]

    @pytest.mark.parametrize("alpha,sigma,x,p", [(0.3, 4.0, 10.0, -2.0),
                                                 (0.3, 1.0, 60.0, -2.0)])
    def test_no_floating_point_warnings(self, alpha, sigma, x, p):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        ps = np.linspace(-3 * abs(p) - 12 / sigma, 3 * abs(p) + 12 / sigma, 61)
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            for t in (0.0, abs(x / p), 3 * abs(x / p)):
                dens = ec.momentum_marginal(pair, init, t, ps)
                assert np.all(np.isfinite(dens)) and np.all(dens >= 0)

    def test_late_window_within_its_node_budget_or_raises(self, monkeypatch):
        # below a momentum ratio of about 8 the wall caps the spacing, so the
        # window of one p' grows as t: 2.4e5 nodes at 1e3 collision times,
        # within the budget; a window above the budget is refused before it
        # allocates (the CLI tests take 1e6 collision times, 2.4e8 nodes)
        pair = CollisionPair.matched(1.0, 0.3, 1.0)
        init = ec.com_condition(pair, 3.0, -1.0)
        t = 1e3 * ec.collision_time(pair, init.p)
        dens, nodes = ec.momentum_marginal(pair, init, t, 1.0, return_nodes=True)
        assert np.isfinite(dens) and 2e5 < nodes < ec._MAX_WIDTH
        monkeypatch.setattr(ec, "_MAX_WIDTH", nodes - 1)
        with pytest.raises(TimeTooLate, match="budget"):
            ec.momentum_marginal(pair, init, t, 1.0)

    def test_scalar_and_array_shapes(self, pair, init):
        val = ec.momentum_marginal(pair, init, 5.0, -2.0)
        assert isinstance(val, float)
        grid = ec.momentum_marginal(pair, init, 5.0, np.full((2, 3), -2.0))
        assert grid.shape == (2, 3) and np.all(grid == val)


class TestOutgoingFidelity:
    def test_high_after_collision(self, pair, init, t_c):
        assert ec.outgoing_fidelity(pair, init, 5 * t_c) >= 0.99

    def test_negligible_at_start(self, pair, init):
        assert ec.outgoing_fidelity(pair, init, 1e-9) < 1e-12

    def test_monotone_nondecreasing(self, pair, init, t_c):
        ts = np.linspace(0.0, 5 * t_c, 12)
        vals = [ec.outgoing_fidelity(pair, init, float(t)) for t in ts]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha,sigma,x,p", COMPLETED_CONFIGS)
    def test_completed_collision_limit(self, alpha, sigma, x, p):
        # long after the meeting the image term holds the approaching half of
        # the incoming relative momentum Q ~ N(p, s^2), of weight 1 - Phi(-r),
        # r = |p|/s = sqrt(2) momentum_ratio, and the outgoing momentum is |Q|;
        # the direct term's receding half interferes with it by a term that
        # falls as 1/d0^2 (fidelity 3e-6 to 4e-5 here, <p'> 1e-7 to 3e-5)
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        r = np.sqrt(2) * ec.collision_ratios(pair, init)["momentum_ratio"]
        t = 1e4 * abs(x / p)
        assert ec.outgoing_fidelity(pair, init, t) == pytest.approx(
            (1 - special.ndtr(-r)) ** 2, abs=1e-4)
        folded_mean = (abs(p) / r * np.sqrt(2 / np.pi) * np.exp(-r**2 / 2)
                       + abs(p) * (1 - 2 * special.ndtr(-r)))
        assert ec.brownian_momentum_mean(pair, init, t) == pytest.approx(folded_mean, abs=1e-4)

    @pytest.mark.parametrize("alpha,sigma,x,p", [*COMPLETED_CONFIGS, (0.3, 4.0, 10.0, -2.0)])
    def test_label_map_error(self, alpha, sigma, x, p):
        # Phi(-sqrt(2) m) = erfc(m)/2, m the momentum ratio: 6.1e-123 at the
        # fig1 defaults (the last row), where 1 - erf(m) is 0.  The oracle
        # takes m itself: ndtr(-sqrt(2) m) rounds sqrt(2) m, which at m = 16.65
        # moves the value by 1.1e-13
        pair = CollisionPair.matched(1.0, alpha, sigma)
        ratios = ec.collision_ratios(pair, ec.com_condition(pair, x, p))
        assert ratios["label_map_error"] == pytest.approx(
            special.erfc(ratios["momentum_ratio"]) / 2, rel=1e-13, abs=0)


@pytest.mark.parametrize("route", [ec.two_particle_norm, ec.brownian_momentum_mean,
                                   ec.outgoing_fidelity, ec.position_marginal])
def test_time_that_overflows_the_closed_form_raises(pair, init, route):
    # |s_t|^2 = |sigma^2 + i hbar t / m|^2 overflows a double once hbar t / m
    # passes about 1.3e154
    args = (0.0,) if route is ec.position_marginal else ()
    assert np.isfinite(route(pair, init, 1e150, *args))
    with pytest.raises(TimeTooLate, match="overflows"):
        route(pair, init, 1e200, *args)


class TestClosedFormsAgainstGrid:
    # t = 5 is the contact time, where Re G = 0 and the interference terms of
    # the momentum vanish; t = 4 checks them while the packets overlap
    @pytest.mark.parametrize("t", [0.0, 4.0, 5.0, 13.6])
    def test_matches_halfplane_sum(self, pair, init, t):
        grid = _grid_sums(pair, init, t)
        lab = ec.LabFrameCollision(pair, *init.gas_label(pair), init.x, init.p)
        closed = {
            "norm": ec.two_particle_norm(pair, init, t),
            "x_mean": _lab_position_mean(lab, t),
            "p_mean": ec.brownian_momentum_mean(pair, init, t),
            # zero total momentum in the COM frame
            "p_g_mean": -ec.brownian_momentum_mean(pair, init, t),
            "fidelity": ec.outgoing_fidelity(pair, init, t),
        }
        for name, val in closed.items():
            assert val == pytest.approx(grid[name], abs=1e-6), name
        assert closed["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_contact_fidelity(self):
        # alpha = 1 at the meeting time: the two-resolution quadrature of the
        # fidelity used to fail its drift check here
        pair = CollisionPair.matched(1.0, 1.0, 2.0)
        init = ec.com_condition(pair, 6.0, -2.0)
        val = ec.outgoing_fidelity(pair, init, 3.0)
        assert val == pytest.approx(_grid_sums(pair, init, 3.0)["fidelity"], abs=1e-5)
        assert val == pytest.approx(0.2516246, abs=1e-7)


FREE_AT_START = [(0.3, 1.0, 60.0, -2.0), (3.0, 1.0, 40.0, -1.0), (0.02, 8.0, 40.0, -1.0)]


class TestLargeSeparation:
    # each term's whole-line weight is a free-evolution invariant, 1 or the
    # image overlap (below 1e-300 here), read in closed form; rebuilt from
    # exponents of some 1e3 that cancel, it lost 1e-12, and the norm and the
    # fidelity read above 1
    @pytest.mark.parametrize("alpha,sigma,x,p", [(0.3, 1.0, 60.0, -2.0),
                                                 (0.02, 8.0, 40.0, -1.0),
                                                 (1.0, 0.5, 20.0, -5.0),
                                                 (0.3, 1.0, 60.0, -1.0)])
    def test_unit_norm(self, alpha, sigma, x, p):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        for units in (0.0, 1.0, 3.0, 1e4):
            t = units * abs(x / p)
            assert ec.two_particle_norm(pair, init, t) == pytest.approx(1.0, abs=1e-14)
            assert ec.outgoing_fidelity(pair, init, t) <= 1 + 1e-14

    # the wall cuts below 1e-300 of the product state at these, so at t = 0
    # <p> is p and the position density is N(x, sigma^2/2) to rounding
    @pytest.mark.parametrize("alpha,sigma,x,p", FREE_AT_START)
    def test_free_momentum_mean_at_start(self, alpha, sigma, x, p):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        assert ec.brownian_momentum_mean(pair, init, 0.0) == pytest.approx(p, abs=1e-14)

    @pytest.mark.parametrize("alpha,sigma,x,p", FREE_AT_START)
    def test_free_position_density_at_start(self, alpha, sigma, x, p):
        pair = CollisionPair.matched(1.0, alpha, sigma)
        init = ec.com_condition(pair, x, p)
        xs = np.linspace(x - 3 * sigma, x + 3 * sigma, 121)
        ref = np.exp(-((xs - x) / sigma) ** 2) / (np.sqrt(np.pi) * sigma)
        np.testing.assert_allclose(ec.position_marginal(pair, init, 0.0, xs), ref,
                                   rtol=1e-14, atol=0)


class TestLabFrame:
    def test_boosted_scenario_matches_com(self, pair, init):
        # boost the canonical configuration by V and shift by X0; the marginals
        # must transform as x -> X0 + V t + x_com, p -> m V + p_com
        V, X0 = 0.7, 3.0
        x_g, p_g = init.gas_label(pair)
        lab = ec.LabFrameCollision(
            pair,
            x_g=x_g + X0, p_g=p_g + pair.gas_mass * V,
            x=init.x + X0, p=init.p + pair.brownian_mass * V)
        assert lab.reflection == 1
        assert lab.boost_velocity == pytest.approx(V, rel=1e-12)
        ci = lab.com_init
        assert ci.x == pytest.approx(init.x, rel=1e-12)
        assert ci.p == pytest.approx(init.p, rel=1e-12)
        xs, ps = np.linspace(-20.0, 20.0, 41), np.linspace(-3.0, 3.0, 25)
        for t in (0.0, 4.0):
            np.testing.assert_allclose(lab.position_marginal(t, X0 + V * t + xs),
                                       ec.position_marginal(pair, init, t, xs), atol=1e-12)
            np.testing.assert_allclose(lab.momentum_marginal(t, pair.brownian_mass * V + ps),
                                       ec.momentum_marginal(pair, init, t, ps), atol=1e-12)

    def test_reflected_scenario(self, pair, init):
        # gas on the right moving left: the mirror image of the canonical case
        x_g, p_g = init.gas_label(pair)
        lab = ec.LabFrameCollision(pair, x_g=-x_g, p_g=-p_g, x=-init.x, p=-init.p)
        assert lab.reflection == -1
        xs = np.linspace(-26, 6, 81)
        dens = lab.position_marginal(0.0, xs)
        ref = ec.position_marginal(pair, init, 0.0, -xs)
        np.testing.assert_allclose(dens, ref, atol=1e-10)
        ps = np.linspace(-3.0, 3.0, 25)
        np.testing.assert_allclose(lab.momentum_marginal(4.0, ps),
                                   ec.momentum_marginal(pair, init, 4.0, -ps), atol=1e-12)

    def test_receding_raises(self, pair):
        with pytest.raises(ValueError, match="receding"):
            ec.LabFrameCollision(pair, x_g=-30.0, p_g=-1.0, x=10.0, p=1.0)

    def test_coinciding_centres_raise(self, pair):
        # the COM label is x = 0, which com_condition refuses; its message
        # names both ways that labels fail to collide
        with pytest.raises(ValueError, match="the packets coincide or are receding"):
            ec.LabFrameCollision(pair, x_g=3.0, p_g=1.0, x=3.0, p=-1.0)

    def test_com_condition_built_once(self, pair, init, t_c, monkeypatch):
        # com_condition makes the COM record once, at construction, and every
        # marginal at every time reuses it
        calls, com_condition = [], ec.com_condition

        def spy(*args):
            calls.append(args)
            return com_condition(*args)

        monkeypatch.setattr(ec, "com_condition", spy)
        x_g, p_g = init.gas_label(pair)
        lab = ec.LabFrameCollision(pair, -x_g, -p_g, -init.x, -init.p)
        assert len(calls) == 1
        for t in (0.0, t_c, 3 * t_c):
            lab.position_marginal(t, [-10.0, 0.0])
            lab.momentum_marginal(t, [-2.0, 2.0])
        assert len(calls) == 1
        assert lab.com_init == init

    def test_position_mean_flows(self, pair, init, t_c):
        # position mean moves continuously from +10 toward the wall and back out
        lab = ec.LabFrameCollision(pair, *init.gas_label(pair), init.x, init.p)
        means = [_lab_position_mean(lab, t) for t in (0.0, 2.5, 5.0, 9.0)]
        assert means[0] == pytest.approx(10.0, abs=1e-6)
        assert means[1] < means[0]
        assert means[3] > means[2] - 1.0
