"""Exception types shared across the package.

Every domain error derives from GpnfError so callers (and the CLI) can
distinguish domain failures (exit code 1) from usage bugs.
"""


class GpnfError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedRational(GpnfError, ValueError):
    """Input text or a value that is not an exact rational number."""


class MalformedInput(GpnfError, ValueError):
    """An input file that cannot be read, or whose content does not have
    its format's shape (a missing or unknown key, say)."""


class OutOfRange(GpnfError, ValueError):
    """An integer argument outside its admissible range: a negative index,
    a modulus, power or level count below 1, a root index past the degree,
    a bound past a desk-scale cap."""


class NegativeIndex(OutOfRange, IndexError):
    """A sequence index below 0; an IndexError too, as for a list."""


# -- number fields ----------------------------------------------------------

class NotSquarefree(GpnfError):
    """The defining polynomial has a repeated root."""


class NoRealRoot(GpnfError):
    """A real distinguished root was requested but the polynomial has none."""


class ReducibleDetected(GpnfError):
    """The defining polynomial has a nontrivial rational factor.  Field
    construction raises it with an exact integer factor in the message;
    arithmetic in a field built with check_reducible=False raises it when an
    element turns out to be a zero divisor."""


class CertificateFailed(GpnfError, ArithmeticError):
    """A certified step met a contradiction (an internal alarm): `what`
    names the step, and `box` is the enclosure it reached, or None."""

    def __init__(self, what: str, box=None):
        super().__init__(what if box is None else f"{what}: {box}")
        self.what, self.box = what, box


class PrecisionExhausted(CertificateFailed):
    """A refinement was asked for more than `polys.CEILING_BITS` bits, the
    end of every refine-until-decided loop; `box` is what it held."""


class DivisionByZero(GpnfError):
    pass


class FieldMismatch(GpnfError):
    """Arithmetic between elements of different fields."""


class ComplexEmbedding(GpnfError):
    """A real-embedding operation was applied at a complex root index."""


class RealEmbedding(GpnfError):
    """A complex-embedding operation was applied at a real root index."""


# -- expressions ------------------------------------------------------------

class ExprSyntaxError(GpnfError):
    """Parse failure; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownFunction(GpnfError):
    pass


class NonRealFloorArgument(GpnfError):
    """floor/frac/nint/dist applied to a value with nonzero imaginary part."""


class UnboundVariable(GpnfError):
    pass


# -- constructions ----------------------------------------------------------

class DependentBasis(GpnfError):
    pass


class RankNotOne(GpnfError):
    """The unit group of the field does not have rank 1."""


class InvalidRho(GpnfError):
    """The contraction rate does not satisfy 1 < rho < beta with all other
    conjugates of modulus below 1/rho."""


class ThresholdAmbiguous(GpnfError):
    """Certified refinement could not separate a membership score from the
    decision threshold; indicates violated construction invariants."""


# -- linear recurrent sequences ---------------------------------------------

class DegreeMismatch(GpnfError, ValueError):
    """A polynomial, window or recurrence has the wrong degree or length."""


class SingularSystem(GpnfError):
    """The trace linear system was singular, or a transfer map or value-set
    witness disagreed with the exact terms (impossible for a squarefree
    characteristic polynomial; internal alarm)."""


class NotPisot(GpnfError, ValueError):
    """A number, or the dominant root of a characteristic polynomial, is
    not a Pisot number (Pisot unit, or Salem number, where either is
    asked for)."""


class ZeroSourceSequence(GpnfError):
    pass


class ZeroTraceRep(GpnfError):
    pass


class VandermondeSingular(GpnfError):
    """A recovery-family solve hit a singular system; would mean a vanishing
    conjugate coefficient, contradicting a nonzero sequence."""


class SearchBoundExceeded(GpnfError):
    """The archimedean size of the query forces an index search beyond the
    caller's bound."""


# -- analysis ---------------------------------------------------------------

class RationalSlope(GpnfError):
    pass


class SlopeOutOfRange(GpnfError, ValueError):
    """A Sturmian slope must lie strictly between 0 and 1."""


class WindowTooShort(GpnfError):
    pass


class DensityHypothesisFailed(GpnfError):
    def __init__(self, level: int, message: str = ""):
        super().__init__(message or f"density hypothesis failed at level {level}")
        self.level = level


class PigeonholeFailed(GpnfError):
    def __init__(self, level: int, message: str = ""):
        super().__init__(message or f"pigeonhole failed at level {level}")
        self.level = level
