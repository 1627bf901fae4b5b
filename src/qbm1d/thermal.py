"""Thermal ideal-gas ensemble as a mixture of Gaussian packets.

A thermal gas particle at temperature T is statistically identical to a
mixture of minimum-uncertainty packets of width sigma_g whose centers are
uniform in space and whose label momenta follow a Gaussian at the reduced
temperature

    T_sigma = T - hbar^2 / (2 m_g k_B sigma_g^2).

The packet's internal momentum spread hbar^2/(2 sigma_g^2) restores exactly
what the label distribution lacks, so the physical momentum distribution is
the sigma_g-independent Maxwell-Boltzmann law at T:

    m_g k_B T_sigma + hbar^2/(2 sigma_g^2) = m_g k_B T.

The mixture is homogeneous: every physical rate depends on the packet
centres only through the number density n_g, so no normalization length
enters.  The mean relative speed is a folded normal mean, closed form in
erf (``_special.erf``, Cephes' algorithm in numpy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import erf
from .errors import NonPositiveAdjustedTemperature

__all__ = [
    "ThermalGasSpec",
    "adjusted_temperature",
    "mean_relative_speed",
]


@dataclass(frozen=True)
class ThermalGasSpec:
    """Thermal gas parameters: T in energy/k_B units, n_g per length."""

    temperature: float
    number_density: float
    gas_mass: float
    packet_width: float
    hbar: float = 1.0
    k_B: float = 1.0

    def __post_init__(self):
        for name in ("temperature", "number_density", "gas_mass", "packet_width",
                     "hbar", "k_B"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def kT(self) -> float:
        return self.k_B * self.temperature

    @property
    def thermal_momentum(self) -> float:
        """sqrt(m_g k_B T), the Maxwell-Boltzmann momentum scale."""
        return np.sqrt(self.gas_mass * self.kT)


def adjusted_temperature(spec: ThermalGasSpec) -> float:
    """Width-adjusted temperature T_sigma of the packet-label momenta.

    Raises NonPositiveAdjustedTemperature when the packet is too narrow
    (or the gas too cold) for the Gaussian mixture to exist.
    """
    t_adj = spec.temperature - spec.hbar**2 / (
        2 * spec.gas_mass * spec.k_B * spec.packet_width**2
    )
    if t_adj <= 0:
        raise NonPositiveAdjustedTemperature(
            f"T_sigma = {t_adj!r} <= 0; enlarge packet_width or raise temperature"
        )
    return t_adj


def mean_relative_speed(spec: ThermalGasSpec, p, mass, temperature=None):
    """E|p_g/m_g - p/m| for Gaussian gas momenta, closed form.

    Defaults to the mixture's full-T Maxwell-Boltzmann distribution;
    pass ``temperature=adjusted_temperature(spec)`` to integrate over the
    packet-label distribution instead.  Multiplied by n_g this is the
    collision rate of a particle of momentum p and mass ``mass``.
    Vectorized over p (folded normal mean).
    """
    kT = spec.k_B * (spec.temperature if temperature is None else temperature)
    su = np.sqrt(kT / spec.gas_mass)            # gas velocity std
    v = np.asarray(p) / mass
    return (su * np.sqrt(2 / np.pi) * np.exp(-(v**2) / (2 * su**2))
            + v * erf(v / (np.sqrt(2) * su)))
