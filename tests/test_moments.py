import numpy as np
import pytest

from qbm1d import moments as mo
from qbm1d.errors import StepTooCoarse
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


@pytest.mark.parametrize("include_artifact", [True, False])
def test_rk4_matches_matrix_exponential(gas, initial, include_artifact):
    # 200 steps at the coarsest allowed step, dt = 0.01/f, out to t = 2/f
    params = mo.FrictionParams.from_gas(gas, 1.0, delta=0.5,
                                        include_artifact=include_artifact)
    assert (params.artifact_rate > 0) == include_artifact
    dt = 0.01 / params.f
    series = mo.integrate(initial, params, 200 * dt, dt)
    assert len(series) == 201
    exact = mo.closed_form(initial, params, [s.t for s in series])
    got = np.array([s.as_vector() for s in series])
    ref = np.array([s.as_vector() for s in exact])
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=0)


def test_step_coarser_than_friction_time_raises(gas, initial):
    params = mo.FrictionParams.from_gas(gas, 1.0)
    with pytest.raises(StepTooCoarse):
        mo.integrate(initial, params, 1.0, 1.01 * 0.01 / params.f)
