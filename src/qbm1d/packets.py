"""Gaussian wave-packet algebra.

Width convention (read this first)
----------------------------------
A packet with width parameter ``sigma`` has the position amplitude

    <x'|x,p> = e^{-i x p / 2 hbar} / sqrt(sqrt(pi) sigma)
               * e^{i x' p / hbar} * e^{-(x - x')^2 / (2 sigma^2)}

so the position *density* is Gaussian with variance sigma^2/2 and the
momentum density has variance hbar^2/(2 sigma^2).  ``sigma`` is the
Gaussian length-scale parameter, not the density variance.  Factor-of-two
mistakes here are the dominant bug source in everything downstream; all
moments exposed by this module follow the convention above.

The global factor e^{-i x p / 2 hbar} is part of the convention and makes
the displacement algebra in :mod:`qbm1d.channel` exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianPacket",
    "EvolvedPacket",
    "CollisionPair",
    "overlap",
    "classical_collision_map",
]


@dataclass(frozen=True)
class GaussianPacket:
    """Minimum-uncertainty wave packet |x,p> with length scale ``width``."""

    center: float
    momentum: float
    width: float
    mass: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be > 0")
        if self.mass <= 0:
            raise ValueError("mass must be > 0")
        if self.hbar <= 0:
            raise ValueError("hbar must be > 0")

    def amplitude(self, xq):
        """Complex amplitude <xq | x,p>.  Vectorized over ``xq``."""
        x, p, s, hb = self.center, self.momentum, self.width, self.hbar
        pref = np.exp(-1j * x * p / (2 * hb)) / np.sqrt(np.sqrt(np.pi) * s)
        return pref * np.exp(1j * np.asarray(xq) * p / hb - (x - np.asarray(xq)) ** 2 / (2 * s**2))

    def evolve(self, t: float) -> "EvolvedPacket":
        """Free evolution for time t >= 0.

        Position density becomes Gaussian centered at x + p t/m with variance
        (sigma^2 + hbar^2 t^2 / (m^2 sigma^2))/2; momentum density is unchanged.
        """
        return EvolvedPacket(self, t)


@dataclass(frozen=True)
class EvolvedPacket:
    """U(t)|x,p> under free evolution; stores the packet and elapsed time.

    The complex spreading width sigma^2 + i hbar t / m is derived on demand
    so closed forms stay exact; at t = 0 this reduces to the packet itself.
    """

    packet: GaussianPacket
    t: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")

    @property
    def complex_width(self) -> complex:
        pk = self.packet
        return pk.width**2 + 1j * pk.hbar * self.t / pk.mass

    @property
    def center(self) -> float:
        pk = self.packet
        return pk.center + pk.momentum * self.t / pk.mass

    def covariance(self):
        """(Var x, <{x, p}> - 2 <x><p>, Var p) of the packet at its age t:

            sigma^2/2 + hbar^2 t^2 / (2 m^2 sigma^2),  hbar^2 t / (m sigma^2),
            hbar^2 / (2 sigma^2),

        the free spreading of the position density from the minimum-
        uncertainty packet; the momentum density never changes.
        """
        pk = self.packet
        s2, hb2, spread = pk.width**2, pk.hbar**2, self.t / pk.mass
        return s2 / 2 + hb2 * spread**2 / (2 * s2), hb2 * spread / s2, hb2 / (2 * s2)

    def quadratic_form(self):
        """Coefficients (a, b, c) with amplitude(x) = exp(-a x^2 + b x + c).

        ``c`` includes the full complex log-prefactor, so overlaps reduce
        to one Gaussian integral over the summed forms.
        """
        pk = self.packet
        st = self.complex_width
        x0, p0, hb, m = pk.center, pk.momentum, pk.hbar, pk.mass
        ct = x0 + p0 * self.t / m
        a = 1.0 / (2 * st)
        b = ct / st + 1j * p0 / hb
        c = (
            np.log(np.pi**-0.25) + 0.5 * (np.log(pk.width) - np.log(st))
            + 1j * x0 * p0 / (2 * hb)
            - 1j * p0 * x0 / hb
            - 1j * p0**2 * self.t / (2 * m * hb)
            - ct**2 / (2 * st)
        )
        return a, b, c

    def amplitude(self, xq):
        """Complex amplitude <xq| U(t) |x,p>.  Vectorized over ``xq``."""
        a, b, c = self.quadratic_form()
        xq = np.asarray(xq)
        return np.exp(-a * xq**2 + b * xq + c)


def overlap(a: GaussianPacket | EvolvedPacket, b: GaussianPacket | EvolvedPacket) -> complex:
    """Inner product <a|b> of two (possibly evolved) packets, closed form."""
    if isinstance(a, GaussianPacket):
        a = EvolvedPacket(a, 0.0)
    if isinstance(b, GaussianPacket):
        b = EvolvedPacket(b, 0.0)
    if a.packet.hbar != b.packet.hbar:
        raise ValueError("packets must share hbar")
    aa, ba, ca = a.quadratic_form()
    ab, bb, cb = b.quadratic_form()
    A = np.conj(aa) + ab
    B = np.conj(ba) + bb
    C = np.conj(ca) + cb
    return complex(np.sqrt(np.pi / A) * np.exp(B**2 / (4 * A) + C))


@dataclass(frozen=True)
class CollisionPair:
    """Masses and matched widths of one gas/Brownian collision partner pair.

    The width matching alpha * sigma_g^2 = sigma^2 (alpha = m_g/m) is what
    keeps the outgoing two-particle state a product of Gaussians; it is
    enforced at construction to 1e-12 relative.
    """

    brownian_mass: float
    gas_mass: float
    brownian_width: float
    gas_width: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("brownian_mass", "gas_mass", "brownian_width", "gas_width", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        lhs = self.alpha * self.gas_width**2
        rhs = self.brownian_width**2
        if abs(lhs - rhs) > 1e-12 * rhs:
            raise ValueError(
                "widths must satisfy alpha * sigma_g^2 = sigma^2 "
                f"(got alpha*sigma_g^2 = {lhs!r}, sigma^2 = {rhs!r})"
            )

    @classmethod
    def matched(cls, brownian_mass, gas_mass, brownian_width, hbar=1.0) -> "CollisionPair":
        """Build a pair with the gas width fixed by the matching constraint."""
        alpha = gas_mass / brownian_mass
        return cls(brownian_mass, gas_mass, brownian_width,
                   brownian_width / np.sqrt(alpha), hbar)

    @property
    def alpha(self) -> float:
        return self.gas_mass / self.brownian_mass

    @property
    def total_mass(self) -> float:
        return self.brownian_mass + self.gas_mass

    @property
    def reduced_mass(self) -> float:
        return self.brownian_mass * self.gas_mass / self.total_mass

    def brownian_packet(self, x, p) -> GaussianPacket:
        return GaussianPacket(x, p, self.brownian_width, self.brownian_mass, self.hbar)

    def gas_packet(self, x_g, p_g) -> GaussianPacket:
        return GaussianPacket(x_g, p_g, self.gas_width, self.gas_mass, self.hbar)


def classical_collision_map(pair: CollisionPair, x_g, p_g, x, p):
    """Elastic hard-core collision map on packet labels.

    Returns (x_g_out, p_g_out, x_out, p_out).  Conserves total momentum and
    kinetic energy for every alpha; at alpha = 1 it is the full exchange.
    Accepts scalars or broadcastable arrays.
    """
    a = pair.alpha
    d = 1.0 + a
    x_g_out = (2 * np.asarray(x) - (1 - a) * np.asarray(x_g)) / d
    x_out = (2 * a * np.asarray(x_g) + (1 - a) * np.asarray(x)) / d
    p_g_out = (2 * a * np.asarray(p) - (1 - a) * np.asarray(p_g)) / d
    p_out = (2 * np.asarray(p_g) + (1 - a) * np.asarray(p)) / d
    return x_g_out, p_g_out, x_out, p_out
