import dataclasses
import functools
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

from qbm1d import trajectories as tr
from qbm1d.packets import CollisionPair
from qbm1d.thermal import ThermalGasSpec


@pytest.fixture(scope="module")
def pair():
    return CollisionPair.matched(1.0, 0.3, 2.0)


@pytest.fixture(scope="module")
def gas(pair):
    return ThermalGasSpec(temperature=1.0, number_density=0.02, gas_mass=pair.gas_mass,
                          packet_width=pair.gas_width)


def _partner_cdf(p_g, p, gas, pair):
    """CDF of the flux-weighted gas momentum, density ~ phi(z) |z - zv| in
    gas-velocity units z: with g(z) = zv Phi(z) + phi(z), the integral up to z
    is g(z) below zv and 2 g(zv) - g(z) above, out of 2 g(zv) - zv."""
    su = np.sqrt(gas.kT / gas.gas_mass)
    zv = p / pair.brownian_mass / su
    z = np.asarray(p_g) / (gas.gas_mass * su)

    def g(v):
        return zv * ndtr(v) + np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)

    raw = np.where(z <= zv, g(z), 2 * g(zv) - g(z))
    return raw / (2 * g(zv) - zv)


def _pair_and_gas(alpha):
    pair = CollisionPair.matched(1.0, alpha, 2.0)
    return pair, ThermalGasSpec(temperature=1.0, number_density=0.02,
                                gas_mass=pair.gas_mass, packet_width=pair.gas_width)


def _bisect_quantile(zv, u):
    """Partner quantile in z units by bisection over [min(z_v, 0) - 10,
    max(z_v, 0) + 10], outside which lies less than 1e-22 of the mass.  The
    mass below z is matched for u <= 1/2 and the mass above z otherwise, each
    written directly from the density |z - z_v| phi(z), so neither tail is
    lost to cancellation against the total."""
    phi = lambda v: np.exp(-v**2 / 2) / np.sqrt(2 * np.pi)  # noqa: E731
    m_lo = zv * ndtr(zv) + phi(zv)
    m_hi = phi(zv) - zv * ndtr(-zv)

    def mass_below(v):
        return np.where(v <= zv, zv * ndtr(v) + phi(v),
                        m_lo + phi(zv) - phi(v) - zv * (ndtr(v) - ndtr(zv)))

    def mass_above(v):
        return np.where(v >= zv, phi(v) - zv * ndtr(-v),
                        m_hi + zv * (ndtr(-v) - ndtr(-zv)) - phi(v) + phi(zv))

    total = m_lo + m_hi
    lower = u <= 0.5
    lo = np.minimum(zv, 0.0) - 10.0
    hi = np.maximum(zv, 0.0) + 10.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        left = np.where(lower, mass_below(mid) < u * total,
                        mass_above(mid) > (1 - u) * total)
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return 0.5 * (lo + hi)


class _FixedUniforms:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def _merged_in_chunks(t, x, p):
    chunks = [tr._chunk_moments(x[i:i + 250], p[i:i + 250]) for i in range(0, x.size, 250)]
    return tr.EnsembleStats.from_moments(t, functools.reduce(tr._merge_moments, chunks))


def _free_packet_moments(pair, p0, t):
    """<x^2>, <{x,p}> and <p^2> of the packet |0, p0> after free flight for
    time t, by quadrature of its amplitude exp(-a x^2 + b x + c)."""
    packet = pair.brownian_packet(0.0, p0).evolve(t)
    a, b, _ = packet.quadratic_form()
    half = 12 * np.sqrt(packet.position_variance)
    xs = np.linspace(packet.center - half, packet.center + half, 4001)
    psi = packet.amplitude(xs)
    p_psi = -1j * pair.hbar * (-2 * a * xs + b) * psi
    norm = integrate.trapezoid(abs(psi)**2, xs)
    x2 = integrate.trapezoid(xs**2 * abs(psi)**2, xs) / norm
    xp = 2 * integrate.trapezoid(xs * np.conj(psi) * p_psi, xs).real / norm
    p2 = integrate.trapezoid(abs(p_psi)**2, xs) / norm
    return x2, xp, p2


class TestCollisionPartner:
    def test_cdf_matches_quadrature(self, gas, pair):
        # the test's closed form against a direct integral of the density
        p = 1.5
        su = np.sqrt(gas.kT / gas.gas_mass)
        zv = p / pair.brownian_mass / su
        dens = lambda z: abs(z - zv) * np.exp(-z**2 / 2)  # noqa: E731
        total = integrate.quad(dens, -np.inf, zv)[0] + integrate.quad(dens, zv, np.inf)[0]
        for z in (-2.0, 0.3, zv, 3.0):
            part = integrate.quad(dens, -np.inf, min(z, zv))[0]
            if z > zv:
                part += integrate.quad(dens, zv, z)[0]
            assert _partner_cdf(z * gas.gas_mass * su, p, gas, pair) == pytest.approx(
                part / total, abs=1e-10)

    @pytest.mark.parametrize("alpha,p", [
        pytest.param(0.3, 0.0, id="0.0"), pytest.param(0.3, 1.5, id="1.5"),
        pytest.param(0.3, -4.0, id="-4.0"),
        # z_v = 8, 12 and 6.7: a fixed bracket z_v +- 9 cuts off the gas mass
        pytest.param(1.0, 8.0, id="alpha1-8.0"), pytest.param(1.0, 12.0, id="alpha1-12.0"),
        pytest.param(5.0, 3.0, id="alpha5-3.0")])
    def test_ks_against_closed_form_cdf(self, alpha, p):
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(7)
        draws = tr.sample_collision_partner(np.full(20000, p), gas, pair, rng)
        res = stats.kstest(draws, lambda v: _partner_cdf(v, p, gas, pair))
        assert res.pvalue > 1e-3

    def test_matches_bisection_oracle(self):
        pair, gas = _pair_and_gas(1.0)   # z = p_g and z_v = p
        cases = [(zv, u) for zv in (0.0, 0.14, -0.14, 1.0, -1.0, 4.0, -4.0, 8.0, 12.0)
                 for u in (0.0, 1e-16, 1.0 - 2.0**-53)]
        for zv in (0.0, 0.14, -0.14, 1.0, -1.0, 4.0, -4.0):
            # 0.1 % of the branch mass either side of the kink, where the
            # density vanishes; nearer than that the quantile of a double u is
            # ill-conditioned beyond 1e-12
            q = _partner_cdf(zv, zv, gas, pair)
            cases += [(zv, q * (1 - 1e-3)), (zv, q + (1 - q) * 1e-3)]
        zv, u = np.array(cases).T
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            z = tr.sample_collision_partner(zv, gas, pair, _FixedUniforms(u))
        np.testing.assert_allclose(z, _bisect_quantile(zv, u), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha,worst", [(0.02, 7), (1.0, 9)])
    def test_newton_iterations_on_thermal_inputs(self, alpha, worst, monkeypatch):
        # the set-up evaluates _flux_tail three times, each iteration once
        calls = []
        flux_tail = tr._flux_tail
        monkeypatch.setattr(tr, "_flux_tail", lambda b, z: calls.append(1) or flux_tail(b, z))
        pair, gas = _pair_and_gas(alpha)
        p = np.random.default_rng(3).normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), 20000)
        tr.sample_collision_partner(p, gas, pair, np.random.default_rng(4))
        assert len(calls) - 3 <= worst


class TestRun:
    @pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
    def test_reproducible_for_fixed_seed_and_chunks(self, gas, pair):
        rng = np.random.default_rng(1)
        p0 = rng.normal(0.0, 1.0, 500)

        def go():
            return tr.run(np.zeros(500), p0, gas, pair, horizon=20.0, delta=0.5,
                          seed=11, n_chunks=3)

        first, second = go(), go()
        assert [dataclasses.astuple(s) for s in first] == [
            dataclasses.astuple(s) for s in second]
        assert first[-1].mean_p2 != first[0].mean_p2  # collisions happened

    def test_merged_chunk_sums_match_phase_points(self, pair):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.0, 1001)
        p = rng.normal(-1.0, 0.5, 1001)
        merged = _merged_in_chunks(4.0, x, p).with_floors(pair)
        direct = tr.EnsembleStats.from_phase_points(4.0, x, p, pair)
        for name in ("mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2"):
            assert getattr(merged, name) == pytest.approx(getattr(direct, name),
                                                          rel=1e-12), name
        # a mean far above the spread: a variance taken as s2/n - mean^2 from
        # merged raw sums puts se_mean_x 1 % off here
        x = 1e4 + rng.normal(0.0, 1e-3, 1001)
        merged = _merged_in_chunks(4.0, x, p)
        for name, values in (("x", x), ("x2", x**2), ("xp", 2 * x * p)):
            assert getattr(merged, "mean_" + name) == pytest.approx(np.mean(values), rel=1e-12)
            assert getattr(merged, "se_mean_" + name) == pytest.approx(
                np.std(values, ddof=1) / np.sqrt(x.size), rel=1e-9), name

    @pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
    def test_collision_free_ensemble_spreads_like_a_free_packet(self, pair):
        gas = ThermalGasSpec(temperature=1.0, number_density=1e-9, gas_mass=pair.gas_mass,
                             packet_width=pair.gas_width)
        p0 = 0.7
        series = tr.run(np.zeros(50), np.full(50, p0), gas, pair, horizon=40.0,
                        delta=0.5, seed=5, record_every=20)
        assert [s.t for s in series] == [0.0, 10.0, 20.0, 30.0, 40.0]
        for s in series:
            x2, xp, p2 = _free_packet_moments(pair, p0, s.t)
            assert s.mean_x2 == pytest.approx(x2, rel=1e-9)
            assert s.mean_xp == pytest.approx(xp, rel=1e-9, abs=1e-12)
            assert s.mean_p2 == pytest.approx(p2, rel=1e-9)


class TestExcessPositionMSD:
    def test_contact_twins_coincide(self, gas, pair):
        policy = tr.JumpPolicy(gas_flight_window=0.0)
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4, policy=policy)
        assert np.all(msd <= 1e-20)

    def test_flight_window_spreads_twins(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4)
        assert msd[0] == 0.0 and msd[-1] > 0.0
