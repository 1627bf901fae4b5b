import dataclasses

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

    @pytest.mark.parametrize("p", [0.0, 1.5, -4.0])
    def test_ks_against_closed_form_cdf(self, gas, pair, p):
        rng = np.random.default_rng(7)
        draws = tr.sample_collision_partner(np.full(20000, p), gas, pair, rng)
        res = stats.kstest(draws, lambda v: _partner_cdf(v, p, gas, pair))
        assert res.pvalue > 1e-3


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
        sums = sum(tr._moment_sums(x[i:i + 250], p[i:i + 250]) for i in range(0, 1001, 250))
        merged = tr.EnsembleStats.merge_sums(4.0, x.size, sums).with_floors(pair)
        direct = tr.EnsembleStats.from_phase_points(4.0, x, p, pair)
        for name in ("mean_x", "mean_p", "mean_x2", "mean_xp", "mean_p2"):
            assert getattr(merged, name) == pytest.approx(getattr(direct, name),
                                                          rel=1e-12), name


class TestExcessPositionMSD:
    def test_contact_twins_coincide(self, gas, pair):
        policy = tr.JumpPolicy(gas_flight_window=0.0)
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4, policy=policy)
        assert np.all(msd <= 1e-20)

    def test_flight_window_spreads_twins(self, gas, pair):
        _, msd = tr.excess_position_msd(2000, gas, pair, 0.5, 40.0, seed=4)
        assert msd[0] == 0.0 and msd[-1] > 0.0
