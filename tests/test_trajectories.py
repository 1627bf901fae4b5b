import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr

from qbm1d import trajectories as tr
from qbm1d.errors import PartnerNotConverged, StepTooLarge
from qbm1d.packets import CollisionPair, classical_collision_map
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


class _FixedUniforms:
    """The given uniforms on the first ``random`` call, then a seeded stream."""

    def __init__(self, u, seed=0):
        self.u = np.asarray(u, dtype=float)
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        if self.u is None:
            return self.rng.random(size)
        assert size == self.u.size
        u, self.u = self.u, None
        return u

    def uniform(self, lo, hi, size):
        return self.rng.uniform(lo, hi, size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


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
        pytest.param(5.0, 3.0, id="alpha5-3.0"),
        # z_v = +-20 and +-40: at +-40 phi and the mass below the kink underflow
        # to 0, the kinks of a cold gas (hence under="ignore")
        pytest.param(1.0, 20.0, id="alpha1-20.0"), pytest.param(1.0, -20.0, id="alpha1--20.0"),
        pytest.param(1.0, 40.0, id="alpha1-40.0"), pytest.param(1.0, -40.0, id="alpha1--40.0"),
        # thermal kinks, z_v normal with variance alpha: each draw against its own CDF
        pytest.param(0.02, None, id="alpha0.02-thermal")])
    def test_ks_against_closed_form_cdf(self, alpha, p):
        pair, gas = _pair_and_gas(alpha)
        rng = np.random.default_rng(7)
        if p is None:
            p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), 20000)
        p = np.broadcast_to(p, 20000)
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            draws = tr.sample_collision_partner(p, gas, pair, rng)
            res = stats.kstest(_partner_cdf(draws, p, gas, pair), "uniform")
        assert res.pvalue > 1e-3

    def test_unconverged_draw_raises(self, gas, pair, monkeypatch):
        monkeypatch.setattr(tr, "_MAX_ROUNDS", 1)
        with pytest.raises(PartnerNotConverged, match="in 1 rejection rounds"):
            tr.sample_collision_partner(np.linspace(-3.0, 3.0, 50), gas, pair,
                                        np.random.default_rng(0))

    def test_nan_momentum_raises(self, gas, pair):
        # no candidate is ever kept against a NaN kink; without the cap the
        # rounds would never end
        with pytest.raises(PartnerNotConverged, match="1 partner draws"):
            tr.sample_collision_partner(np.array([0.0, np.nan, 1.0]), gas, pair,
                                        np.random.default_rng(0))


class TestRun:
    @pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
    def test_reproducible_for_fixed_seed(self, gas, pair):
        rng = np.random.default_rng(1)
        p0 = rng.normal(0.0, 1.0, 500)

        def go():
            return tr.run(np.zeros(500), p0, gas, pair, horizon=20.0, delta=0.5, seed=11)

        first, second = go(), go()
        assert [dataclasses.astuple(s) for s in first] == [
            dataclasses.astuple(s) for s in second]
        assert first[-1].mean_p2 != first[0].mean_p2  # collisions happened

    @pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
    def test_leaves_initial_labels_untouched(self, gas, pair):
        # step_ensemble writes the hits into its momentum array; run steps a copy
        p0 = np.random.default_rng(1).normal(0.0, 1.0, 500)
        x0 = np.zeros(500)
        kept = p0.copy()
        series = tr.run(x0, p0, gas, pair, horizon=20.0, delta=0.5, seed=11)
        assert series[-1].mean_p2 != series[0].mean_p2  # collisions happened
        np.testing.assert_array_equal(p0, kept)
        assert not x0.any()
        p = p0.copy()
        x, p_next = tr.step_ensemble(x0, p, gas, pair, 20.0, np.random.default_rng(0))
        assert p_next is p and not np.array_equal(p, p0) and not x0.any()

    def test_two_pass_standard_errors(self, pair):
        # a mean far above the spread: a variance taken as s2/n - mean^2 from
        # raw sums puts se_mean_x 1 % off here.  At t = 0 the floors of
        # <x> and <{x,p}> are 0 and that of <x^2> is sigma^2/2.
        rng = np.random.default_rng(2)
        x = 1e4 + rng.normal(0.0, 1e-3, 1001)
        p = rng.normal(-1.0, 0.5, 1001)
        stats = tr.EnsembleStats.from_phase_points(0.0, x, p, pair)
        floors = {"x": 0.0, "x2": pair.brownian_width**2 / 2, "xp": 0.0}
        for name, values in (("x", x), ("x2", x**2), ("xp", 2 * x * p)):
            assert getattr(stats, "mean_" + name) - floors[name] == pytest.approx(
                np.mean(values), rel=1e-12), name
            assert getattr(stats, "se_mean_" + name) == pytest.approx(
                np.std(values, ddof=1) / np.sqrt(x.size), rel=1e-9), name

    @pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
    def test_collision_free_ensemble_spreads_like_a_free_packet(self, pair):
        gas = ThermalGasSpec(temperature=1.0, number_density=1e-9, gas_mass=pair.gas_mass,
                             packet_width=pair.gas_width)
        p0 = 0.7
        series = tr.run(np.zeros(50), np.full(50, p0), gas, pair, horizon=40.0,
                        delta=0.5, seed=5)[::20]
        assert [s.t for s in series] == [0.0, 10.0, 20.0, 30.0, 40.0]
        for s in series:
            x2, xp, p2 = _free_packet_moments(pair, p0, s.t)
            assert s.mean_x2 == pytest.approx(x2, rel=1e-9)
            assert s.mean_xp == pytest.approx(xp, rel=1e-9, abs=1e-12)
            assert s.mean_p2 == pytest.approx(p2, rel=1e-9)


def _twin_msd(n, gas, pair, delta, horizon, seed, window):
    """The excess position by contact twins: both twins take each step's draw
    and the label map, one against the gas label displaced by its flight and
    one at contact (eta = 0); msd is their mean squared position gap.
    Returns (msd, the momenta each step draws from)."""
    def apply(x, p, hit, tau, eta, p_g):
        ph = p[hit]
        xh = x[hit] + ph / pair.brownian_mass * tau
        x_g_label = xh - (p_g / pair.gas_mass) * eta
        _, _, x_out, p_out = classical_collision_map(pair, x_g_label, p_g, xh, ph)
        x = x + p / pair.brownian_mass * delta
        x[hit] = x_out + p_out / pair.brownian_mass * (delta - tau)
        p = p.copy()
        p[hit] = p_out
        return x, p

    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, np.sqrt(pair.brownian_mass * gas.kT), n)
    x_ref, x_alt = np.zeros(n), np.zeros(n)
    n_steps = int(round(horizon / delta))
    msd, drawn = np.zeros(n_steps + 1), []
    for step in range(1, n_steps + 1):
        drawn.append(p.copy())
        hit, tau, eta, p_g = tr._draw_collisions(p, gas, pair, delta, rng, window)
        x_ref, _ = apply(x_ref, p, hit, tau, np.zeros_like(eta), p_g)
        x_alt, p = apply(x_alt, p, hit, tau, eta, p_g)
        msd[step] = np.mean((x_alt - x_ref) ** 2)
    return msd, drawn


class TestExcessPositionMSD:
    def test_contact_twins_coincide(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4,
                                        gas_flight_window=0.0)
        assert np.all(msd == 0.0)

    def test_flight_window_spreads_twins(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4)
        assert msd[0] == 0.0 and msd[-1] > 0.0

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    @pytest.mark.parametrize("window", [0.0, 1.0])
    def test_offset_matches_twin_loop(self, alpha, window, monkeypatch):
        pair, gas = _pair_and_gas(alpha)
        ref, ref_drawn = _twin_msd(3000, gas, pair, 0.5, 20.0, 9, window)
        drawn, draw = [], tr._draw_collisions
        monkeypatch.setattr(tr, "_draw_collisions",
                            lambda p, *a: drawn.append(p.copy()) or draw(p, *a))
        ts, msd = tr.excess_position_msd(3000, gas, pair, 0.5, 20.0, 9,
                                         gas_flight_window=window)
        np.testing.assert_array_equal(ts, 0.5 * np.arange(41))
        assert len(drawn) == len(ref_drawn) == 40
        for got, want in zip(drawn, ref_drawn):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(msd, ref, rtol=1e-12, atol=0)
        assert (msd[-1] > 0) == (window > 0)


def _full_rate_draw(p, gas, pair, delta, rng, window=1.0):
    """The unthinned draw: every path's rate, one uniform per path, the hits
    as a boolean mask; the same rng calls in the same order as the thinned
    draw."""
    rate = tr.collision_rate(p, gas, pair)
    hit = rng.random(p.size) < rate * delta
    n_hit = int(np.count_nonzero(hit))
    tau = eta = p_g = np.zeros(n_hit)
    if n_hit:
        tau = rng.uniform(0.0, delta, n_hit)
        if window > 0:
            eta = rng.uniform(-window * delta, window * delta, n_hit)
        p_g = tr.sample_collision_partner(p[hit], gas, pair, rng)
    return hit, tau, eta, p_g


class TestThinnedDraw:
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    @pytest.mark.parametrize("n", [1, 5000])
    @pytest.mark.parametrize("window", [1.0, 0.0])
    def test_matches_full_rate_draw(self, alpha, n, window):
        # thermal momenta plus one path at 6 thermal momenta, whose rate sets
        # the bound: rate * delta = 0.09 there, far above most paths' own
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        for seed in range(4):
            p = np.random.default_rng(100 + seed).normal(0.0, thermal, n)
            p[-1] = (-1) ** seed * 6 * thermal
            delta = 0.09 / float(tr.collision_rate(p[-1], gas, pair))
            rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            mask, *ref = _full_rate_draw(p, gas, pair, delta, rng_ref, window)
            hit, *got = tr._draw_collisions(p, gas, pair, delta, rng, window)
            np.testing.assert_array_equal(hit, np.flatnonzero(mask))
            for name, a, b in zip(("tau", "eta", "p_g"), got, ref):
                assert a.tobytes() == b.tobytes(), name
            assert rng.random() == rng_ref.random()   # the same draws were taken

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_uniforms_at_the_rate_decide_alike(self, alpha):
        # each path's uniform sits at its own rate * delta (no hit) or one ulp
        # below it (a hit), the fast path's too, wherever the bound puts it
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(8).normal(0.0, thermal, 2001)
        for far in (6 * thermal, -6 * thermal):
            p[-1] = far
            delta = 0.09 / float(tr.collision_rate(far, gas, pair))
            bar = tr.collision_rate(p, gas, pair) * delta
            u = np.where(np.arange(p.size) % 2 == 0, np.nextafter(bar, 0.0), bar)
            mask, *_ = _full_rate_draw(p, gas, pair, delta, _FixedUniforms(u, 9))
            hit, *_ = tr._draw_collisions(p, gas, pair, delta, _FixedUniforms(u, 9))
            np.testing.assert_array_equal(hit, np.arange(0, p.size, 2))
            np.testing.assert_array_equal(hit, np.flatnonzero(mask))

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_rate_even_and_nondecreasing_in_p(self, alpha):
        pair, gas = _pair_and_gas(alpha)
        p = np.linspace(0.0, 60.0, 200001)
        rate = tr.collision_rate(p, gas, pair)
        np.testing.assert_array_equal(tr.collision_rate(-p, gas, pair), rate)
        assert np.all(np.diff(rate) >= 0.0)

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_sampler_normaliser_is_the_rate(self, alpha):
        # the partner law's total flux mass G_b(b) + G_-b(-b), in gas velocity
        # units, times n_g sqrt(kT/m_g), against the rate's erf closed form;
        # G_b(b) = b Phi(b) + phi(b) is the mass of |z - b| phi(z) below z = b
        def below_kink(b):
            return b * ndtr(b) + np.exp(-0.5 * b * b) / np.sqrt(2 * np.pi)

        pair, gas = _pair_and_gas(alpha)
        su = np.sqrt(gas.kT / gas.gas_mass)
        p = np.sqrt(pair.brownian_mass * gas.kT) * np.linspace(-40.0, 40.0, 8001)
        b = p / pair.brownian_mass / su
        total = below_kink(b) + below_kink(-b)
        np.testing.assert_allclose(gas.number_density * su * total,
                                   tr.collision_rate(p, gas, pair), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("alpha", [0.02, 1.0])
    def test_one_fast_path_does_not_stop_a_step(self, alpha):
        # rate * delta = 0.2 at one path: the step still thins against it
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(5).normal(0.0, thermal, 1000)
        p[123] = -8 * thermal
        delta = 0.2 / float(tr.collision_rate(p[123], gas, pair))
        mask, *ref = _full_rate_draw(p, gas, pair, delta, np.random.default_rng(6))
        hit, *got = tr._draw_collisions(p, gas, pair, delta, np.random.default_rng(6))
        np.testing.assert_array_equal(hit, np.flatnonzero(mask))
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        x, _ = tr.step_ensemble(np.zeros_like(p), p, gas, pair, delta,
                                np.random.default_rng(6))
        assert np.all(np.isfinite(x))


def _no_step(*args):
    raise AssertionError("a step was taken")


@pytest.mark.filterwarnings("ignore::qbm1d.trajectories.ValidityWarning")
class TestStepCheck:
    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_thermal_law_rate_checked_before_any_step(self, alpha, monkeypatch):
        # the thermal-law rate as the thermal mean of the rate, by quadrature
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        rate = integrate.quad(
            lambda p: float(tr.collision_rate(p, gas, pair)) * stats.norm.pdf(p, 0, thermal),
            -12 * thermal, 12 * thermal, epsabs=0, epsrel=1e-12)[0]
        edge = 0.1 / rate
        p0 = np.zeros(50)   # rate(0) lies below the thermal-law rate
        tr.run(p0, p0, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), seed=1)
        tr.excess_position_msd(50, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), 1)
        monkeypatch.setattr(tr, "step_ensemble", _no_step)
        monkeypatch.setattr(tr, "_draw_collisions", _no_step)
        with pytest.raises(StepTooLarge, match="thermal-law"):
            tr.run(p0, p0, gas, pair, 10 * edge, edge * (1 + 1e-6), seed=1)
        with pytest.raises(StepTooLarge, match="thermal-law"):
            tr.excess_position_msd(50, gas, pair, edge * (1 + 1e-6), 10 * edge, 1)

    @pytest.mark.parametrize("alpha", [0.02, 1.0, 5.0])
    def test_initial_label_rate_checked_before_any_step(self, alpha, monkeypatch):
        pair, gas = _pair_and_gas(alpha)
        thermal = np.sqrt(pair.brownian_mass * gas.kT)
        p = np.random.default_rng(5).normal(0.0, thermal, 1000)
        p[123] = -8 * thermal
        edge = 0.1 / float(tr.collision_rate(p[123], gas, pair))
        x = np.zeros_like(p)
        tr.run(x, p, gas, pair, edge * (1 - 1e-6), edge * (1 - 1e-6), seed=6)
        monkeypatch.setattr(tr, "step_ensemble", _no_step)
        with pytest.raises(StepTooLarge, match="initial-label"):
            tr.run(x, p, gas, pair, 10 * edge, edge * (1 + 1e-6), seed=6)
        # without the fast path the same step is well inside both bounds
        monkeypatch.undo()
        tr.run(x[:123], p[:123], gas, pair, edge * (1 + 1e-6), edge * (1 + 1e-6), seed=6)

    def test_negative_flight_window_raises(self, gas, pair):
        p = np.zeros(10)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr._draw_collisions(p, gas, pair, 0.5, np.random.default_rng(0), -0.5)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.step_ensemble(p, p, gas, pair, 0.5, np.random.default_rng(0), -0.5)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.run(p, p, gas, pair, 1.0, 0.5, seed=0, gas_flight_window=-0.5)
        with pytest.raises(ValueError, match="gas_flight_window"):
            tr.excess_position_msd(10, gas, pair, 0.5, 1.0, 0, gas_flight_window=-0.5)
