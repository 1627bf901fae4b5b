from dataclasses import replace

import numpy as np
import pytest
from scipy import fft as sfft

from qbm1d import exact_collision as ec
from qbm1d import grid_oracle as go
from qbm1d.errors import GridTooCoarse, GridTooSmall
from qbm1d.packets import CollisionPair, GaussianPacket

# (alpha, sigma, x, p): the fixture's packets, and packets that start inside
# each other's wall image, where the mirror term of the initial state matters
CASES = {"fixture": (0.3, 4.0, 10.0, -2.0), "overlapping": (5.0, 2.0, 6.0, -2.0)}


def _case(name):
    alpha, sigma, x, p = CASES[name]
    pair = CollisionPair.matched(1.0, alpha, sigma)
    init = ec.com_condition(pair, x, p)
    return pair, init, ec.collision_time(pair, init.p_g)


def _lab(pair, R, r):
    """Gas and Brownian coordinates (x_g', x') at the (R, r) nodes."""
    a = pair.alpha
    return R - r / (1 + a), R + a * r / (1 + a)


def _initial_state(pair, init, R, r):
    """The packet product minus its mirror image in the wall r = 0."""
    gas = pair.gas_packet(init.x_g, init.p_g).amplitude
    brownian = pair.brownian_packet(init.x, init.p).amplitude
    (xg, xb), (mirror_xg, mirror_xb) = _lab(pair, R, r), _lab(pair, R, -r)
    return gas(xg) * brownian(xb) - gas(mirror_xg) * brownian(mirror_xb)


def _full_grid_error(pair, init, t, params):
    """compare_to_analytic on the n_R x n_r nodes: the initial state sampled,
    propagated by a 2-D FFT x DST-I round trip and compared pointwise."""
    RR, rr = np.meshgrid(*params.axes(), indexing="ij")
    kR = 2 * np.pi * np.fft.fftfreq(params.n_R, d=params.dR)
    kappa = np.pi * np.arange(1, params.n_r + 1) / params.r_length
    phase = (kR[:, None] ** 2 / pair.total_mass
             + kappa[None, :] ** 2 / pair.reduced_mass)
    spec = sfft.dst(sfft.fft(_initial_state(pair, init, RR, rr), axis=0), type=1, axis=1)
    psi = sfft.ifft(sfft.idst(spec * np.exp(-0.5j * pair.hbar * t * phase), type=1, axis=1),
                    axis=0)
    exact = ec.wavefunction(pair, init, t, *_lab(pair, RR, rr))
    return np.linalg.norm(psi - exact) / np.linalg.norm(exact)


def _total_momentum(state, pair):
    """<P_R>, the total momentum (conserved exactly by the propagator)."""
    w = np.abs(sfft.fft(state.chi)) ** 2
    return float(pair.hbar * (state._wavenumbers()[0] @ w) / np.sum(w))


def _energy(state, pair):
    """Kinetic expectation <H>; the wall contributes only via the basis."""
    kR, kappa = state._wavenumbers()
    wR = np.abs(sfft.fft(state.chi)) ** 2
    wr = np.abs(sfft.dst(state.phi, type=1)) ** 2
    return float(pair.hbar**2 / 2 * ((kR**2 @ wR) / (pair.total_mass * np.sum(wR))
                                     + (kappa**2 @ wr) / (pair.reduced_mass * np.sum(wr))))


@pytest.fixture(scope="module")
def pair():
    return CollisionPair.matched(1.0, 0.3, 4.0)


@pytest.fixture(scope="module")
def init(pair):
    return ec.com_condition(pair, 10.0, -2.0)


@pytest.fixture(scope="module")
def t_c(pair, init):
    return ec.collision_time(pair, init.p_g)


@pytest.fixture(scope="module")
def params():
    return go.GridParams(n_R=1024, n_r=1024, R_halfwidth=50.0, r_length=160.0)


class TestDiscretize:
    def test_unit_norm(self, pair, init, params):
        state = go.discretize(pair, init, params)
        assert state.norm() == pytest.approx(1.0, abs=1e-6)

    def test_wall_leakage_negligible(self, pair, init):
        # mass of the free product state on the forbidden side r <= 0
        s_r = np.sqrt((pair.brownian_width**2 + pair.gas_width**2) / 2)
        r0 = init.x - init.x_g
        from scipy.special import erfc
        tail = 0.5 * erfc(r0 / (np.sqrt(2) * s_r))
        assert tail < 1e-10

    def test_matches_product_amplitudes(self, pair, init, params):
        state = go.discretize(pair, init, params)
        RR, rr = np.meshgrid(state.R, state.r, indexing="ij")
        target = _initial_state(pair, init, RR, rr)
        assert np.max(np.abs(state.psi - target)) < 1e-8

    def test_nyquist_guard(self, pair, init):
        with pytest.raises(GridTooCoarse):
            go.discretize(pair, init, go.GridParams(64, 64, 50.0, 160.0))

    def test_support_guard(self, pair, init):
        with pytest.raises(GridTooSmall):
            go.discretize(pair, init,
                          go.GridParams(1024, 1024, 50.0, 60.0))


class TestPropagate:
    def test_identity_at_zero(self, pair, init, params):
        state = go.discretize(pair, init, params)
        out = go.propagate(state, pair, 0.0)
        np.testing.assert_array_equal(out.psi, state.psi)

    def test_norm_conserved(self, pair, init, params, t_c):
        state = go.propagate(go.discretize(pair, init, params), pair, 3 * t_c)
        assert state.norm() == pytest.approx(1.0, abs=1e-8)

    def test_total_momentum_conserved(self, pair, init, params, t_c):
        state0 = go.discretize(pair, init, params)
        state1 = go.propagate(state0, pair, 3 * t_c)
        p0 = _total_momentum(state0, pair)
        p1 = _total_momentum(state1, pair)
        assert p1 == pytest.approx(p0, abs=1e-10)
        assert p0 == pytest.approx(init.p + init.p_g, abs=1e-6)

    def test_energy_conserved(self, pair, init, params, t_c):
        state0 = go.discretize(pair, init, params)
        state1 = go.propagate(state0, pair, 3 * t_c)
        assert _energy(state1, pair) == pytest.approx(_energy(state0, pair), rel=1e-8)

    def test_mirror_bounce(self, pair):
        # relative-coordinate Gaussian thrown at the wall: after the bounce
        # its modulus equals the freely evolved mirror packet
        mu = pair.reduced_mass
        r0, pr, sig = 30.0, -3.0, 2.5
        n = 1024
        prm = go.GridParams(n_R=n, n_r=n, R_halfwidth=40.0, r_length=220.0)
        R, r = prm.axes()
        chi = GaussianPacket(0.0, 0.0, 6.0, pair.total_mass).amplitude(R)
        phi = GaussianPacket(r0, pr, sig, mu).amplitude(r)
        state = go.GridWavefunction(chi, phi, R, r, 0.0)
        t_star = 3.5 * r0 * mu / abs(pr)  # well past the bounce at r0 mu/|pr|
        out = go.propagate(state, pair, t_star)
        mirror = GaussianPacket(-r0, -pr, sig, mu).evolve(t_star)
        chi_t = GaussianPacket(0.0, 0.0, 6.0, pair.total_mass).evolve(t_star)
        target = np.abs(chi_t.amplitude(R)[:, None] * mirror.amplitude(r)[None, :])
        assert np.max(np.abs(np.abs(out.psi) - target)) < 1e-6


class TestCompareToAnalytic:
    def test_certification_at_tc(self, pair, init, params, t_c):
        err = go.compare_to_analytic(pair, init, t_c, params)
        assert err < 1e-3

    def test_initial_agreement(self, pair, init, params):
        assert go.compare_to_analytic(pair, init, 0.0, params) < 1e-12

    def test_initial_agreement_overlapping_packets(self):
        # the bare product missed the closed form here by 5e-4 to 1.2e-3
        pair, init, t_c = _case("overlapping")
        params = go.default_grid(pair, init, 256, t_max=3 * t_c)
        assert go.compare_to_analytic(pair, init, 0.0, params, validate=False) < 1e-12

    @pytest.mark.parametrize("n_R,n_r", [(96, 96), (192, 192), (256, 256), (32, 256)])
    @pytest.mark.parametrize("units", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_grid_route(self, case, n_R, n_r, units):
        # oracle-verify's extents; n = 96 aliases the fixture in r (error
        # 1.41), n_R = 32 under-resolves R (errors 2e-3 to 0.1)
        pair, init, t_c = _case(case)
        box = go.default_grid(pair, init, n_r, t_max=3 * t_c)
        params = go.GridParams(n_R, n_r, box.R_halfwidth, box.r_length)
        got = go.compare_to_analytic(pair, init, units * t_c, params, validate=False)
        ref = _full_grid_error(pair, init, units * t_c, params)
        # rows the grid resolves read rounding errors of a few 1e-15 on both
        # routes, which agree there only absolutely
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-13)

    def test_times_at_once_match_one_time_each(self):
        # oracle-verify's defaults: one discretized state per grid, propagated
        # to each time, gives the per-time calls' errors bit for bit
        pair = CollisionPair.matched(1.0, 0.3, 4.0)
        init = ec.com_condition(pair, 10.0, -2.0)
        t_c = ec.collision_time(pair, init.p_g)
        times = [u * t_c for u in (0.0, 1.0, 3.0)]
        base = go.default_grid(pair, init, 1024, t_max=max(times))
        for n in (96, 128, 192, 256, 384, 512, 1024):
            params = replace(base, n_R=n, n_r=n)
            errs = go.compare_to_analytic(pair, init, times, params, validate=False)
            assert isinstance(errs, np.ndarray) and errs.shape == (3,)
            one = [go.compare_to_analytic(pair, init, t, params, validate=False) for t in times]
            assert all(isinstance(e, float) for e in one)
            assert errs.tolist() == one, n

    def test_negative_time_in_a_vector_raises(self, pair, init, params):
        with pytest.raises(ValueError, match="t must be >= 0"):
            go.compare_to_analytic(pair, init, [0.0, -1.0], params)

    def test_guards_count_no_tail_behind_the_wall(self):
        # the bare product leaves 1.7e-6 of its mass at r < 0, but the
        # mirrored state the grid starts from has none there
        pair = CollisionPair.matched(1.0, 5.0, 2.0)
        init = ec.com_condition(pair, 6.0, -2.0)
        t_c = ec.collision_time(pair, init.p_g)
        params = go.default_grid(pair, init, 1024, t_max=3 * t_c)
        for t in (0.0, t_c, 3 * t_c):
            assert go.compare_to_analytic(pair, init, t, params, validate=True) < 1e-12
        r0 = init.x - init.x_g
        R0 = (init.x + pair.alpha * init.x_g) / (1 + pair.alpha)
        for short in (replace(params, r_length=r0 + 3.0),
                      replace(params, R_halfwidth=abs(R0) + 1.0)):
            with pytest.raises(GridTooSmall):
                go.compare_to_analytic(pair, init, 0.0, short, validate=True)

    def test_far_apart_packets_stay_finite(self):
        # packets 190 Brownian widths apart: exp(+-d G) alone overflows there
        pair = CollisionPair.matched(1.0, 0.02, 8.0)
        init = ec.com_condition(pair, 30.0, -1.0)
        t_c = ec.collision_time(pair, init.p_g)
        params = go.default_grid(pair, init, 1024, t_max=3 * t_c)
        RR, rr = np.meshgrid(*params.axes(), indexing="ij")
        with np.errstate(over="raise", invalid="raise"):
            for t in (0.0, t_c, 3 * t_c):
                psi = ec.wavefunction(pair, init, t, *_lab(pair, RR[::4, ::4], rr[::4, ::4]))
                assert np.all(np.isfinite(psi))
                err = go.compare_to_analytic(pair, init, t, params, validate=False)
                assert err < 1e-12

    def test_refinement_reduces_error(self, pair, init, t_c):
        # resolution-limited regime: these grids deliberately violate the
        # Nyquist margin, hence validate=False; beyond ~192 the error sits at
        # rounding level (~1e-14)
        errs = {}
        for n in (128, 256):
            prm = go.GridParams(n_R=n, n_r=n, R_halfwidth=50.0, r_length=160.0)
            errs[n] = go.compare_to_analytic(pair, init, t_c, prm, validate=False)
        assert errs[256] < errs[128]
        order = np.log2(errs[128] / errs[256])
        assert order >= 2.0

