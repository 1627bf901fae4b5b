"""One-dimensional collisional quantum Brownian motion toolkit.

Exact hard-core two-particle collisions of matched-width Gaussian packets,
an independent grid oracle, the collision channel in Kraus form, trajectory
Monte Carlo with thermal gas sampling, and the moment ODE system, wired
together by a scenario CLI (``qbm1d``).
"""

from .packets import CollisionPair, EvolvedPacket, GaussianPacket, classical_collision_map, overlap
from .thermal import ThermalGasSpec, adjusted_temperature, mean_relative_speed

__all__ = [
    "GaussianPacket",
    "EvolvedPacket",
    "CollisionPair",
    "classical_collision_map",
    "overlap",
    "ThermalGasSpec",
    "adjusted_temperature",
    "mean_relative_speed",
]

__version__ = "0.1.0"
