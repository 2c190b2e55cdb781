"""Exception types shared across the package."""

__all__ = [
    "GridCompatibilityError",
    "EllipticityError",
    "UnsupportedPenaltyError",
    "ResolutionError",
    "NumericalError",
    "InconsistentDataError",
    "StudyRefusal",
    "ConfigError",
]


class GridCompatibilityError(ValueError):
    """Grids, norm tags, or shapes that do not fit together."""


class EllipticityError(ValueError):
    """Potential coefficient negative at a quadrature point."""


class UnsupportedPenaltyError(ValueError):
    """Penalty or exponent outside what the requested operation supports."""


class ResolutionError(ValueError):
    """Requested neighborhood or tolerance finer than the grid resolves."""


class NumericalError(RuntimeError):
    """A linear solve or residual check failed beyond its contract."""


class InconsistentDataError(ValueError):
    """Data vector not attainable by the forward map within tolerance."""


class StudyRefusal(RuntimeError):
    """A study declined to run because its hypotheses are violated.

    Carries the measured quantities that triggered the refusal in the
    message so callers can report them verbatim.
    """


class ConfigError(ValueError):
    """Invalid study configuration; collects every problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
