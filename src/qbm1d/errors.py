"""Exception types shared across the package."""


class QBM1DError(Exception):
    """Base class for all qbm1d errors."""


class NonPositiveAdjustedTemperature(QBM1DError):
    """The width-adjusted gas temperature T - hbar^2/(2 m_g k_B sigma_g^2)
    is not positive; the Gaussian mixture decomposition does not exist.
    Enlarge sigma_g or raise T."""


class ZeroRelativeMomentum(QBM1DError):
    """Collision time is undefined for p_g = 0."""


class GridTooCoarse(QBM1DError):
    """Grid spacing violates the Nyquist safety margin for the momentum
    content of the state."""


class GridTooSmall(QBM1DError):
    """Grid extents truncate the state's support above the allowed mass."""


class NegativeEigenvalueBeyondTolerance(QBM1DError):
    """An operator that should be positive semidefinite has an eigenvalue
    below the permitted grid-noise floor."""


class EmptyRegion(QBM1DError):
    """Phase-space region has no area where packet centres fit on this grid."""


class StepTooLarge(QBM1DError):
    """rate * delta exceeds 0.1; two-collision events are no longer
    negligible within one coarse step."""


class PartnerNotConverged(QBM1DError):
    """The partner sampler's rejection rounds ran out (a non-finite momentum)."""


class TimeTooLate(QBM1DError):
    """A time at which the momentum rule exceeds its node budget or |s_t|^2 overflows."""


class GridMismatch(QBM1DError):
    """Time series to be compared are not on matching time grids."""


class ConfigError(QBM1DError):
    """Scenario configuration failed validation. Carries the offending
    field path in ``field``."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
