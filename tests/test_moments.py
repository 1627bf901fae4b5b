import numpy as np
import pytest

from qbm1d import moments as mo
from qbm1d.thermal import ThermalGasSpec


@pytest.fixture(scope="module")
def gas():
    return ThermalGasSpec(temperature=2.0, number_density=0.05, gas_mass=0.3,
                          packet_width=5.0)


@pytest.fixture(scope="module")
def initial():
    # every moment nonzero so a relative comparison is meaningful throughout
    return mo.MomentState(mean_x=0.5, mean_p=1.0, mean_x2=2.0, mean_xp=0.3,
                          mean_p2=3.0)


def _rk4(initial, params, horizon, dt):
    """Reference route for integrate: classic fourth-order Runge-Kutta on
    the affine system, as vectors at every step."""
    M = mo.system_matrix(params)
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


@pytest.mark.parametrize("include_artifact", [True, False])
def test_rk4_matches_matrix_exponential(gas, initial, include_artifact):
    # 200 RK4 steps at dt = 0.01/f, out to t = 2/f, against the exact steps
    # of integrate and against closed_form
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5,
                                        include_artifact=include_artifact)
    assert (params.artifact_rate > 0) == include_artifact
    dt = 0.01 / params.f
    series = mo.integrate(initial, params, 200 * dt, dt)
    assert len(series) == 201
    got = np.array([s.as_vector() for s in series])
    exact = mo.closed_form(initial, params, [s.t for s in series])
    ref = np.array([s.as_vector() for s in exact])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(_rk4(initial, params, 200 * dt, dt), ref, rtol=1e-8, atol=0)


def test_step_far_beyond_friction_time_is_exact(gas, initial):
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5)
    dt = 10 / params.f
    series = mo.integrate(initial, params, 30 * dt, dt)
    assert [s.t for s in series] == [i * dt for i in range(31)]
    got = np.array([s.as_vector() for s in series])
    ref = np.array([s.as_vector() for s in mo.closed_form(initial, params,
                                                          [s.t for s in series])])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
