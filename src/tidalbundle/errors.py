"""Exception types shared across the package."""


class TidalError(Exception):
    """Base class for package errors."""


class NullFiberError(TidalError):
    """Fiber vector is null (or too close to null) for norm-based operations."""


class NonFiniteFiberError(TidalError):
    """Fiber vector's squared length g(y,y) is not finite."""


class ChartDomainError(TidalError):
    """Base point lies outside the chart guard of a catalog field."""


class FrameMismatchError(TidalError):
    """Operation mixed components expressed in different frames."""


class ScenarioError(TidalError):
    """Scenario file failed structural or semantic validation."""
