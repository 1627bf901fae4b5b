import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qbm1d.packets import (CollisionPair, EvolvedPacket, GaussianPacket,
                           classical_collision_map, overlap)


def quad_complex(f, lo, hi, **kw):
    re, _ = integrate.quad(lambda x: f(x).real, lo, hi, **kw)
    im, _ = integrate.quad(lambda x: f(x).imag, lo, hi, **kw)
    return re + 1j * im


class TestAmplitude:
    def test_peak_magnitude(self):
        pkt = GaussianPacket(1.3, -0.7, 2.0, 1.0)
        assert abs(pkt.amplitude(pkt.center)) == pytest.approx(
            (np.pi * pkt.width**2) ** -0.25, rel=1e-14)

    def test_norm_by_quadrature(self):
        pkt = GaussianPacket(0.5, 1.2, 1.7, 0.8)
        val, _ = integrate.quad(lambda x: abs(pkt.amplitude(x)) ** 2,
                                pkt.center - 10 * pkt.width,
                                pkt.center + 10 * pkt.width)
        assert abs(val - 1.0) < 1e-9

    def test_zero_labels_real_positive(self):
        pkt = GaussianPacket(0.0, 0.0, 1.5, 1.0)
        vals = pkt.amplitude(np.linspace(-5, 5, 101))
        assert np.all(vals.imag == 0)
        assert np.all(vals.real > 0)


class TestFreeEvolution:
    def test_t0_identity(self):
        pkt = GaussianPacket(2.0, -1.0, 1.2, 0.7)
        xs = np.linspace(-4, 8, 257)
        np.testing.assert_allclose(pkt.evolve(0.0).amplitude(xs),
                                   pkt.amplitude(xs), atol=1e-14)

    def test_ehrenfest_center(self):
        pkt = GaussianPacket(1.0, 2.0, 1.5, 2.0)
        ev = pkt.evolve(3.0)
        assert ev.center == pytest.approx(1.0 + 2.0 * 3.0 / 2.0, rel=1e-14)
        mean, _ = integrate.quad(lambda x: x * abs(ev.amplitude(x)) ** 2,
                                 ev.center - 40, ev.center + 40, limit=200)
        assert mean == pytest.approx(ev.center, abs=1e-9)

    def test_against_fft_propagation(self):
        # independent oracle: exact free propagator applied in k-space
        pkt = GaussianPacket(-1.0, 1.7, 0.9, 1.3, hbar=0.9)
        t = 2.2
        n, L = 4096, 160.0
        dx = L / n
        xs = -L / 2 + dx * np.arange(n)
        k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
        psi_t = np.fft.ifft(np.exp(-1j * pkt.hbar * k**2 * t / (2 * pkt.mass))
                            * np.fft.fft(pkt.amplitude(xs)))
        ev = pkt.evolve(t)
        np.testing.assert_allclose(psi_t, ev.amplitude(xs), atol=1e-10)
        dens = np.abs(psi_t) ** 2 * dx
        var_fft = np.sum(xs**2 * dens) - np.sum(xs * dens) ** 2
        assert var_fft == pytest.approx(ev.covariance()[0], abs=1e-6)

    def test_momentum_density_unchanged(self):
        pkt = GaussianPacket(0.3, -0.8, 1.1, 1.0)
        assert pkt.evolve(5.0).covariance()[2] == pkt.evolve(0.0).covariance()[2]

    def test_negative_time_raises(self):
        # on every route: evolve, and direct construction as in outgoing_fidelity
        pkt = GaussianPacket(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="t must be >= 0"):
            pkt.evolve(-1.0)
        with pytest.raises(ValueError, match="t must be >= 0"):
            EvolvedPacket(pkt, -1e-12)

    def test_norm_preserved(self):
        pkt = GaussianPacket(0.0, 3.0, 0.7, 1.0)
        ev = pkt.evolve(4.0)
        val, _ = integrate.quad(lambda x: abs(ev.amplitude(x)) ** 2,
                                ev.center - 120, ev.center + 120, limit=400)
        assert abs(val - 1.0) < 1e-8


class TestOverlap:
    def test_self_overlap(self):
        pkt = GaussianPacket(0.7, -2.0, 1.4, 1.1)
        assert overlap(pkt, pkt) == pytest.approx(1.0, abs=1e-13)

    def test_far_separated(self):
        a = GaussianPacket(0.0, 0.0, 1.0, 1.0)
        b = GaussianPacket(30.0, 0.0, 1.0, 1.0)
        assert abs(overlap(a, b)) < 1e-12

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = GaussianPacket(rng.normal(), rng.normal(), rng.uniform(0.5, 2), 1.0)
            b = GaussianPacket(rng.normal(), rng.normal(),
                           rng.uniform(0.5, 2), 1.0).evolve(rng.uniform(0, 3))
            assert abs(overlap(a, b)) <= 1.0 + 1e-12

    def test_against_quadrature(self):
        a = GaussianPacket(0.4, 1.1, 1.3, 1.0).evolve(0.8)
        b = GaussianPacket(-0.9, 0.6, 1.0, 1.0).evolve(1.9)
        direct = quad_complex(lambda x: np.conj(a.amplitude(x)) * b.amplitude(x),
                              -60, 60, limit=400)
        assert overlap(a, b) == pytest.approx(direct, abs=1e-8)


class TestCollisionMap:
    def test_equal_mass_exchange(self):
        pair = CollisionPair.matched(1.0, 1.0, 2.0)
        out = classical_collision_map(pair, -3.0, 1.5, 2.0, -0.5)
        np.testing.assert_allclose(out, (2.0, -0.5, -3.0, 1.5), rtol=1e-15)

    def test_equal_mass_double_application_restores(self):
        pair = CollisionPair.matched(1.0, 1.0, 2.0)
        labels = (-3.0, 1.5, 2.0, -0.5)
        once = classical_collision_map(pair, *labels)
        twice = classical_collision_map(pair, *once)
        np.testing.assert_allclose(twice, labels, rtol=1e-15)

    def test_printed_example(self):
        pair = CollisionPair.matched(1.0, 0.3, 4.0)
        x_g = -10.0 / 0.3
        _, p_g_out, _, p_out = classical_collision_map(pair, x_g, 2.0, 10.0, -2.0)
        assert p_out == pytest.approx((2 * 2 + 0.7 * (-2)) / 1.3, rel=1e-14)
        assert p_out == pytest.approx(2.0, rel=1e-14)
        assert p_g_out == pytest.approx(-2.0, rel=1e-14)

    def test_conservation_1000_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            alpha = rng.uniform(0.02, 5.0)
            m = rng.uniform(0.2, 3.0)
            pair = CollisionPair.matched(m, alpha * m, rng.uniform(0.5, 4.0))
            x_g, p_g, x, p = rng.normal(0, 5, 4)
            xg2, pg2, x2, p2 = classical_collision_map(pair, x_g, p_g, x, p)
            ptot = p_g + p
            scale_p = max(abs(ptot), abs(p_g), abs(p), 1e-30)
            assert abs((pg2 + p2) - ptot) <= 1e-12 * scale_p
            e_in = p_g**2 / (2 * pair.gas_mass) + p**2 / (2 * m)
            e_out = pg2**2 / (2 * pair.gas_mass) + p2**2 / (2 * m)
            assert abs(e_out - e_in) <= 1e-12 * max(e_in, 1e-30)

    def test_heavy_brownian_limit(self):
        pair = CollisionPair.matched(1.0, 1e-6, 1.0)
        _, pg2, _, p2 = classical_collision_map(pair, -5.0, 0.8, 0.0, 2.0)
        assert p2 == pytest.approx(2.0 + 2 * 0.8, rel=1e-5)
        assert pg2 == pytest.approx(-0.8, rel=1e-5)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(1e-3, 1e3), x_g=st.floats(-10, 10), p_g=st.floats(-10, 10),
       x=st.floats(-10, 10), p=st.floats(-10, 10))
def test_collision_map_conserves(alpha, x_g, p_g, x, p):
    pair = CollisionPair.matched(1.0, alpha, 1.0)
    xg2, pg2, x2, p2 = classical_collision_map(pair, x_g, p_g, x, p)
    assert pg2 + p2 == pytest.approx(p_g + p, rel=1e-11, abs=1e-11)
    e_in = p_g**2 / (2 * alpha) + p**2 / 2
    assert (pg2**2 / (2 * alpha) + p2**2 / 2) == pytest.approx(e_in, rel=1e-10, abs=1e-10)


class TestCollisionPair:
    def test_width_matching_enforced(self):
        with pytest.raises(ValueError):
            CollisionPair(1.0, 0.3, 4.0, 4.0)

    def test_matched_constructor(self):
        pair = CollisionPair.matched(1.0, 0.3, 4.0)
        assert pair.gas_width == pytest.approx(4.0 / np.sqrt(0.3), rel=1e-14)
        assert pair.alpha == pytest.approx(0.3)
        assert pair.reduced_mass == pytest.approx(0.3 / 1.3)
