import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from qbm1d import moments as mo
from qbm1d import trajectories as tr
from qbm1d.packets import CollisionPair
from qbm1d.thermal import ThermalGasSpec
from qbm1d.trajectories import EnsembleStats


@pytest.fixture(scope="module")
def gas():
    return ThermalGasSpec(temperature=2.0, number_density=0.05, gas_mass=0.3,
                          packet_width=5.0)


@pytest.fixture(scope="module")
def initial():
    # every moment nonzero so a relative comparison is meaningful throughout
    return mo.MomentState(mean_x=0.5, mean_p=1.0, mean_x2=2.0, mean_xp=0.3,
                          mean_p2=3.0)


def system_matrix(params):
    """Augmented generator M with d(v, 1)/dt = M (v, 1), v = (x, p, x2, xp, p2):
    M[:5, :5] is the linear part and M[:5, 5] the constant drive."""
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


def _expm(initial, params, ts):
    """Oracle for closed_form: scipy's expm(M t) of the augmented generator,
    one per time, as rows of vectors."""
    M, v0 = system_matrix(params), np.append(initial.as_vector(), 1.0)
    return np.array([(expm(M * t) @ v0)[:5] for t in ts])


def _vectors(series):
    return np.array([s.as_vector() for s in series])


def _rk4(initial, params, horizon, dt):
    """Reference route for integrate: classic fourth-order Runge-Kutta on
    the affine system, as vectors at every step."""
    M = system_matrix(params)
    A, b = M[:5, :5], M[:5, 5]

    def rhs(v):
        return A @ v + b

    v = initial.as_vector()
    out = [v]
    for _ in range(int(round(horizon / dt))):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(v)
    return np.array(out)


# f t on both sides of the series switch at f t = 1, out to 50 friction times
_FT = np.sort(np.concatenate([[0.0, 1e-12], np.geomspace(1e-6, 50.0, 120),
                              1 + np.array([-1e-9, 1e-9])]))


@pytest.mark.parametrize("include_artifact", [True, False])
def test_closed_form_matches_matrix_exponential(gas, initial, include_artifact):
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5,
                                        include_artifact=include_artifact)
    assert (params.artifact_rate > 0) == include_artifact
    ts = _FT / params.f
    got = mo.closed_form(initial, params, ts)
    assert [s.t for s in got] == ts.tolist()
    np.testing.assert_allclose(_vectors(got), _expm(initial, params, ts), rtol=1e-12, atol=0)


def test_closed_form_at_tiny_friction(gas, initial):
    # f = 1.2e-6, so t = 8e5 at the switch: expm holds 1e-12 up to f t ~ 1.6
    # here, and is the inaccurate side beyond (against a 40-digit mpmath
    # exp(M t) at f = 1.2e-8, f t = 20: expm 4.6e-12, closed_form 4e-16)
    params = mo.FrictionParams.from_gas(replace(gas, number_density=gas.number_density * 1e-5),
                                        1.0, delta=0.5)
    ts = _FT[_FT <= 1.2] / params.f
    np.testing.assert_allclose(_vectors(mo.closed_form(initial, params, ts)),
                               _expm(initial, params, ts), rtol=1e-12, atol=0)


def _decimal_closed_form(initial, params, t):
    """The closed form at t, arranged with psi = (t - phi)/f and dP = P_0 -
    P_eq, in 60-digit arithmetic, where its cancellations cost no float
    digits, rounded to floats."""
    with decimal.localcontext(decimal.Context(prec=60)):
        D = decimal.Decimal
        f, m, t = D(params.f), D(params.mass), D(float(t))
        x0, p0, x20, c0, p20 = map(D, initial.as_vector())
        p_eq = m * D(params.kT)
        dp = p20 - p_eq
        e = (-f * t).exp()
        phi = (1 - e) / f
        psi = (t - phi) / f
        return np.array([float(v) for v in (
            x0 + p0 * phi / m,
            p0 * e,
            x20 + D(params.artifact_rate) * t + (c0 * phi + 2 / m * (p_eq * psi + dp * phi**2 / 2)) / m,
            c0 * e + 2 / m * (p_eq + dp * e) * phi,
            p_eq + dp * e**2)])


@pytest.mark.parametrize("cold", [False, True])
def test_closed_form_to_rounding(gas, initial, cold):
    # against 60-digit arithmetic, from f t = 1e-8 to 50, including a cold
    # start <p^2>_0 = m k_B T / 256, where P_eq + dP E^2 would cancel 2.4
    # digits; 1e-14 leaves room for E's own rounding, f t times that of t
    start = replace(initial, mean_p=0.05, mean_p2=1 / 128) if cold else initial
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5)
    ts = np.concatenate([np.geomspace(1e-8, 50.0, 60), 1 + np.array([-1e-9, 1e-9])]) / params.f
    np.testing.assert_allclose(_vectors(mo.closed_form(start, params, ts)),
                               [_decimal_closed_form(start, params, t) for t in ts],
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("artifact_rate", [0.0, 0.2])
def test_closed_form_without_friction(initial, artifact_rate):
    # f = 0, which FrictionParams allows: free flight in x, p and p^2 constant
    params = mo.FrictionParams(f=0.0, artifact_rate=artifact_rate, mass=2.0, kT=1.5,
                               gas_mass=0.3)
    ts = np.linspace(0.0, 100.0, 41)
    got = _vectors(mo.closed_form(initial, params, ts))
    np.testing.assert_allclose(got, _expm(initial, params, ts), rtol=1e-12, atol=0)
    assert np.all(got[:, 1] == initial.mean_p) and np.all(got[:, 4] == initial.mean_p2)


@pytest.mark.parametrize("include_artifact", [True, False])
def test_rk4_matches_matrix_exponential(gas, initial, include_artifact):
    # 200 RK4 steps at dt = 0.01/f, out to t = 2/f; integrate's rows and the
    # RK4 steps against the expm oracle
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5,
                                        include_artifact=include_artifact)
    assert (params.artifact_rate > 0) == include_artifact
    dt = 0.01 / params.f
    series = mo.integrate(initial, params, 200 * dt, dt)
    assert len(series) == 201
    ref = _expm(initial, params, [s.t for s in series])
    np.testing.assert_allclose(_vectors(series), ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_rk4(initial, params, 200 * dt, dt), ref, rtol=1e-8, atol=0)


def test_step_far_beyond_friction_time_is_exact(gas, initial):
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5)
    dt = 10 / params.f
    series = mo.integrate(initial, params, 30 * dt, dt)
    assert [s.t for s in series] == [i * dt for i in range(31)]
    np.testing.assert_allclose(_vectors(series), _expm(initial, params, [s.t for s in series]),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha,ratio,ok", [(1.0, 1.0, False), (0.02, np.sqrt(0.02), True)])
def test_slow_particle_check_includes_thermal_spread(alpha, ratio, ok):
    # at <p> = 0 only the Brownian thermal speed sqrt(kT/m) counts, against
    # the gas thermal speed sqrt(kT/m_g): the ratio is sqrt(alpha)
    pair = CollisionPair.matched(1.0, alpha, 2.0)
    gas = ThermalGasSpec(temperature=1.0, number_density=0.02, gas_mass=pair.gas_mass,
                         packet_width=pair.gas_width)
    params = mo.FrictionParams.from_gas(gas, pair.brownian_mass)
    assert params.slow_particle_ratio(0.0) == pytest.approx(ratio, rel=1e-15)
    mc = [EnsembleStats.from_label_moments(0.0, 10, [0.0] * 5, [0.0] * 5, pair)]
    ode = [mo.MomentState(mean_x=0.0, mean_p=0.0, mean_x2=mc[0].mean_x2, mean_xp=0.0,
                          mean_p2=mc[0].mean_p2)]
    report = mo.compare_to_trajectories(ode, mc, params)
    assert report.slow_particle_ratio == pytest.approx(ratio, rel=1e-15)
    assert report.slow_particle_ok is ok


# 2e4 paths at the trajectories defaults' delta = 0.5, under 3 typical
# collision times; the test compares moments, not the regime
@pytest.mark.filterwarnings("ignore:coarse step delta:qbm1d.trajectories.ValidityWarning")
def test_artifact_rate_holds_the_trajectories_position_spread():
    # at the trajectories defaults (alpha = 0.02), 2e4 paths from x = p = 0 to
    # t = 250: the ODE's <x^2> is within K = 5 SE of every row on each of
    # five seeds (1.8-3.9 SE over ten seeds), and without the artifact term
    # it is not (6.7-7.5 SE); the paper's printed rate missed by ~5000 SE
    K = 5
    pair = CollisionPair.matched(1.0, 0.02, 8.0)
    gas = ThermalGasSpec(temperature=1.0, number_density=0.02, gas_mass=pair.gas_mass,
                         packet_width=pair.gas_width)
    s2 = pair.brownian_width**2
    initial = mo.MomentState(mean_x=0.0, mean_p=0.0, mean_x2=s2 / 2, mean_xp=0.0,
                             mean_p2=pair.hbar**2 / (2 * s2))
    params = {art: mo.FrictionParams.from_gas(gas, 1.0, 0.5, include_artifact=art)
              for art in (True, False)}
    odes = {art: mo.integrate(initial, params[art], 250.0, 0.5) for art in params}
    for seed in range(5):
        mc = tr.run(np.zeros(20000), np.zeros(20000), gas, pair, 250.0, 0.5, seed)
        gaps = {art: mo.compare_to_trajectories(odes[art], mc, params[art]).max_dev_se["mean_x2"]
                for art in params}
        assert gaps[True] <= K < gaps[False], (seed, gaps)


def _normal(v, s):
    return math.exp(-v * v / (2 * s * s)) / (s * math.sqrt(2 * math.pi))


def test_artifact_rate_closed_form():
    # E[v_g^2 |v_g - v|] over thermal v and v_g by nested quadrature, split
    # at the kink v_g = v; at alpha = 1 the rate is 3/(2 sqrt 2) times the
    # paper's printed rate, its limit at v = 0
    gas = ThermalGasSpec(temperature=2.0, number_density=0.05, gas_mass=0.3,
                         packet_width=5.0)
    sg = np.sqrt(gas.kT / gas.gas_mass)
    for mass, w, delta in ((1.0, 1.0, 0.5), (0.1, 0.5, 2.0), (15.0, 2.0, 0.25)):
        s = np.sqrt(gas.kT / mass)
        mean = integrate.quad(lambda v: _normal(v, s) * integrate.quad(
            lambda vg: vg**2 * abs(vg - v) * _normal(vg, sg), -12 * sg, 12 * sg,
            points=[v], epsabs=0, epsrel=1e-11, limit=200)[0],
            -12 * s, 12 * s, epsabs=0, epsrel=1e-11, limit=200)[0]
        alpha = gas.gas_mass / mass
        want = gas.number_density * (2 * alpha / (1 + alpha) * w * delta) ** 2 / 3 * mean
        assert mo.artifact_diffusion_rate(gas, mass, delta, w) == pytest.approx(want, rel=1e-9)
    printed = gas.number_density / (3 * np.sqrt(np.pi)) * (2 * gas.kT / gas.gas_mass) ** 1.5
    assert mo.artifact_diffusion_rate(gas, gas.gas_mass, 1.0) == pytest.approx(
        3 / (2 * np.sqrt(2)) * printed, rel=1e-14)
