"""Exception hierarchy for domain-rule violations.

Config/CLI problems raise ConfigError; everything else derives from
RepMechError so callers can map physics-domain failures to one exit code.
"""


class RepMechError(Exception):
    """Base class for physics-domain errors."""

    batch_index = None  # a batched kernel's error: the index of the first failing point


class DimensionMismatch(RepMechError):
    pass


class DegenerateMetric(RepMechError):
    pass


class NotOneTimeMetric(RepMechError):
    pass


class NoSpatialDirection(RepMechError):
    """Causality class asked of a signature with several time directions and no spatial one."""


class SpacelikeVelocity(RepMechError):
    """Mass term requires g(v, v) >= 0."""


class NullVelocity(RepMechError):
    """Momentum of the mass term is undefined on the light cone."""


class NegativeEvenRadicand(RepMechError):
    """Even-rank root term evaluated on a negative contraction."""


class ZeroRadicand(RepMechError):
    """Root-term derivative undefined where the contraction vanishes."""


class SpacelikeSegment(RepMechError):
    """Discrete path segment left the causal cone while the mass term is on."""


class SingularReducedHessian(RepMechError):
    """Gauge-fixed dynamics need an invertible reduced velocity Hessian."""


class GaugeViolation(RepMechError):
    pass


class NegativeRadicand(RepMechError):
    """Brane volume radicand went negative; carries the offending cell."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class FormMismatch(RepMechError):
    pass


class UnsupportedDimension(RepMechError):
    pass


class ConfigError(Exception):
    """Invalid run configuration (bad key, bad value, inconsistent dims)."""
