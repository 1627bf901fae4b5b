import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qbm1d.errors import NonPositiveAdjustedTemperature
from qbm1d.thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed


def make_spec(T=1.0, n_g=0.01, m_g=0.3, sigma_g=7.303, hbar=1.0, k_B=1.0):
    return ThermalGasSpec(temperature=T, number_density=n_g, gas_mass=m_g,
                          packet_width=sigma_g, hbar=hbar, k_B=k_B)


class TestAdjustedTemperature:
    def test_wide_packet_limit(self):
        spec = make_spec(sigma_g=1e9)
        assert adjusted_temperature(spec) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_raises(self):
        m_g, sigma_g = 0.3, 2.0
        T = 1.0 / (2 * m_g * sigma_g**2)
        with pytest.raises(NonPositiveAdjustedTemperature):
            adjusted_temperature(make_spec(T=T, m_g=m_g, sigma_g=sigma_g))

    def test_printed_value(self):
        # direct evaluation: 1 - 1/(2 * 0.3 * 7.303^2)
        spec = make_spec()
        expected = 1.0 - 1.0 / (2 * 0.3 * 7.303**2)
        assert adjusted_temperature(spec) == pytest.approx(expected, rel=1e-14)
        assert adjusted_temperature(spec) == pytest.approx(0.9688, abs=2e-4)


def test_mixture_momentum_variance_identity():
    # packet spread restores exactly what the label distribution lacks
    spec = make_spec()
    label_var = spec.gas_mass * spec.k_B * adjusted_temperature(spec)
    packet_var = spec.hbar**2 / (2 * spec.packet_width**2)
    assert label_var + packet_var == pytest.approx(
        spec.gas_mass * spec.k_B * spec.temperature, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.05, 50), m_g=st.floats(0.01, 10), sigma_g=st.floats(0.5, 100),
       hbar=st.floats(0.1, 3), k_B=st.floats(0.1, 3))
def test_mixture_variance_identity_property(T, m_g, sigma_g, hbar, k_B):
    spec = ThermalGasSpec(temperature=T, number_density=1.0, gas_mass=m_g,
                          packet_width=sigma_g, hbar=hbar, k_B=k_B)
    try:
        t_adj = adjusted_temperature(spec)
    except NonPositiveAdjustedTemperature:
        assert T - hbar**2 / (2 * m_g * k_B * sigma_g**2) <= 0
        return
    total = m_g * k_B * t_adj + hbar**2 / (2 * sigma_g**2)
    assert total == pytest.approx(m_g * k_B * T, rel=1e-12)


class TestMeanRelativeSpeed:
    def test_at_rest_closed_form(self):
        spec = make_spec(T=1.0, m_g=0.3)
        assert mean_relative_speed(spec, 0.0, 1.0) == pytest.approx(
            np.sqrt(2 * 1.0 / (np.pi * 0.3)), rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.7, -2.5, 6.0])
    def test_against_quadrature(self, p):
        spec = make_spec(T=1.3, m_g=0.4, sigma_g=30.0)
        m = 1.2
        std = np.sqrt(spec.gas_mass * spec.temperature)

        def integrand(pg):
            mu = np.exp(-pg**2 / (2 * std**2)) / np.sqrt(2 * np.pi * std**2)
            return mu * abs(pg / spec.gas_mass - p / m)

        val, _ = integrate.quad(integrand, -12 * std, 12 * std,
                                points=[spec.gas_mass * p / m])
        assert mean_relative_speed(spec, p, m) == pytest.approx(val, rel=1e-9)
