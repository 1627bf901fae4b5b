"""The numpy special functions against scipy, which the tests keep as oracle."""

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import special

from qbm1d import _special, channel, cli, exact_collision as ec, trajectories as tr
from qbm1d.packets import CollisionPair
from qbm1d.thermal import ThermalGasSpec


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestErf:
    def test_within_one_ulp_of_scipy_on_a_dense_grid(self):
        x = np.linspace(-40.0, 40.0, 800_001)
        got, want = _special.erf(x), special.erf(x)
        assert _ulps(got, want).max() <= 1.0
        # Cephes' algorithm: only exp's rounding tells the two apart
        assert np.mean(got == want) > 0.999

    def test_tiny_subnormal_and_infinite_arguments(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e-20, -1e-20,
                      1.0, np.nextafter(1.0, 2.0), np.nextafter(8.0, 0.0), 8.0,
                      1e300, -1e300, np.inf, -np.inf])
        got = _special.erf(x)
        assert _ulps(got, special.erf(x)).max() <= 1.0
        assert np.array_equal(np.signbit(got), np.signbit(x))
        assert got[-2:].tolist() == [1.0, -1.0]
        assert np.isnan(_special.erf(np.nan))

    def test_no_floating_point_warning_at_extreme_arguments(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _special.erf(np.array([1e300, -1e300, np.inf, -np.inf, np.nan]))

    def test_shapes(self):
        assert isinstance(_special.erf(0.5), np.float64)
        assert _special.erf(0.5) == special.erf(0.5)
        assert _special.erf(np.zeros((2, 3))).shape == (2, 3)

    def test_value_does_not_depend_on_the_batch(self):
        x = np.random.default_rng(0).normal(0.0, 1.5, 1000)
        whole = _special.erf(x)
        parts = [_special.erf(x[i:i + 7]) for i in range(0, x.size, 7)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        assert all(_special.erf(v) == w for v, w in zip(x[:50].tolist(), whole))


def _upper_half_plane(n_r, n_theta):
    """|z| from 1e-3 to 1e3 in the closed upper half-plane, the real axis exactly."""
    r = np.logspace(-3, 3, n_r)
    z = r[:, None] * np.exp(1j * np.linspace(0.0, np.pi, n_theta))
    z[:, 0], z[:, -1] = r, -r
    return z.ravel()


# scipy's wofz itself is off by up to 3.1e-14 just above the real axis at
# |x| 4-20 (against 40-digit mpmath); Weideman's series is within 2e-15 there
_SCIPY_WOFZ_RTOL = 4e-14


class TestWofz:
    def test_matches_scipy_over_the_upper_half_plane(self):
        z = _upper_half_plane(601, 721)
        want = special.wofz(z)
        rel = np.abs(_special.wofz(z) - want) / np.abs(want)
        assert rel.max() <= _SCIPY_WOFZ_RTOL
        assert np.median(rel) < 5e-16

    # collide's labels read a thermal-law rate*delta above 0.1, which it lists
    @pytest.mark.filterwarnings("ignore:thermal-law rate:qbm1d.trajectories.ValidityWarning")
    def test_matches_scipy_at_the_arguments_fig1_and_collide_reach(self, tmp_path, monkeypatch):
        args = []
        monkeypatch.setattr(ec, "wofz", lambda z: args.append(np.ravel(z)) or _special.wofz(z))
        # fig1 at its defaults; collide, which needs its labels, at CI's config
        (tmp_path / "fig1.ini").write_text("[scenario]\n")
        (tmp_path / "collide.ini").write_text(
            "[scenario]\nalpha = 0.7\nsigma = 1.0\nx = 3.0\np = -1.0\n"
            "gas_x = -4.285714285714286\ngas_p = 1.0\nfidelity_times = 0.5 4.0\n")
        for kind in ("fig1", "collide"):
            assert cli.main([kind, str(tmp_path / f"{kind}.ini"),
                             "--out-dir", str(tmp_path / kind)]) == 0
        z = np.concatenate(args)
        assert z.size > 10**4 and z.imag.min() >= 0
        want = special.wofz(z)
        assert np.max(np.abs(_special.wofz(z) - want) / np.abs(want)) <= _SCIPY_WOFZ_RTOL

    def test_within_2e_15_of_40_digits(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        z = np.concatenate([
            rng.choice(_upper_half_plane(601, 721), 300, replace=False),
            # scipy's worst band
            rng.uniform(-20.0, 20.0, 100) + 1j * 10 ** rng.uniform(-16.0, 0.0, 100)])
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.exp(-mpmath.mpc(v) ** 2)
                                     * mpmath.erfc(-1j * mpmath.mpc(v))) for v in z])
        assert np.max(np.abs(_special.wofz(z) - want) / np.abs(want)) <= 2e-15

    def test_value_does_not_depend_on_the_batch(self):
        z = np.random.default_rng(2).choice(_upper_half_plane(61, 73), 1000)
        parts = [_special.wofz(z[i:i + 7]) for i in range(0, z.size, 7)]
        assert _special.wofz(z).tobytes() == np.concatenate(parts).tobytes()

    def test_shapes(self):
        z = np.array([[0.5 + 0.5j, 2.0], [0.0, 30j]])
        assert _special.wofz(z).shape == (2, 2)
        assert _special.wofz(0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", cli.OracleVerifyConfig.grid_sizes)
def test_dst1_matches_scipy_at_the_oracle_grid_sizes(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got, want = _special.dst1(x), sfft.dst(x, type=1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    np.testing.assert_allclose(_special.dst1(got) / (2 * (n + 1)), x, rtol=0, atol=1e-14)


def test_packet_mass_reach_is_erfcinv_of_twice_the_tolerance():
    assert channel._PACKET_MASS_REACH == special.erfcinv(2 * channel._PACKET_MASS_TOL)


def test_collision_rate_of_a_concatenation_is_the_rates_of_its_parts():
    pair = CollisionPair.matched(1.0, 0.3, 1.0)
    gas = ThermalGasSpec(temperature=1.0, number_density=0.05, gas_mass=pair.gas_mass,
                         packet_width=pair.gas_width)
    rng = np.random.default_rng(0)
    parts = [rng.normal(0.0, s, n) for s, n in ((0.5, 1), (1.0, 37), (3.0, 300), (8.0, 4096))]
    whole = tr.collision_rate(np.concatenate(parts), gas, pair)
    assert whole.tobytes() == np.concatenate(
        [tr.collision_rate(p, gas, pair) for p in parts]).tobytes()
