"""Exception types shared across the package."""


class BlowdynError(Exception):
    pass


class DivisionObstruction(BlowdynError):
    """A series was not divisible by the predicted monomial content.

    Raised during lifting when a component fails to factor through the
    chart monomials (degenerate input), or directly by monomial_divide.
    """

    def __init__(self, message="", stage=None, component=None):
        self.stage = stage
        self.component = component
        extra = []
        if stage is not None:
            extra.append("stage %s" % stage)
        if component is not None:
            extra.append("component %s" % component)
        if extra:
            message = (message + " [" + ", ".join(extra) + "]").strip()
        super().__init__(message)


class ZeroCoordinate(BlowdynError):
    """A chart transition was evaluated at a point where it is undefined."""


class NoAllowableDirection(BlowdynError):
    """No characteristic direction is transverse to the divisor."""


class DegenerateDirection(BlowdynError):
    """A characteristic direction with multiplier zero was used where a
    nondegenerate one is required."""


class UnsupportedSpectrum(BlowdynError):
    """The classification routine only covers unipotent linear parts."""


class NonGeneric(BlowdynError):
    """The leading quadratic coefficient required for the generic closed
    forms vanishes."""


class GenericInput(BlowdynError):
    """The 2-D refined invariants are only defined in the nongeneric case."""


class NotJordan(BlowdynError):
    """The linear part of the input is not the expected Jordan matrix."""


class SchemaError(BlowdynError):
    """A map-spec file is malformed."""


class JordanMismatch(SchemaError):
    """Explicit linear terms in a map spec contradict the declared blocks."""


class NonConvergent(BlowdynError):
    """An orbit escaped the divergence radius or produced non-finite values."""

    def __init__(self, message="", step=None):
        self.step = step
        if step is not None:
            message = (message + " [step %d]" % step).strip()
        super().__init__(message)


class PreconditionViolated(BlowdynError):
    """Arguments violate a documented precondition (caps, scalar types, shapes)."""


class InsufficientData(BlowdynError):
    """A trace is too short for the requested estimate."""
