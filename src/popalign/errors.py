"""Error taxonomy shared across the package.

Every failure mode raised by the library is a subclass of :class:`PopalignError`
so callers can catch the whole family with one clause. Errors carry their
context in the message; a few also expose structured attributes (coordinates,
ids) for programmatic handling. Pipeline stages tag propagated errors with a
``stage`` attribute, see ``popalign.pipeline``.
"""


class PopalignError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(PopalignError):
    """Inputs disagree on a shared dimension (d, E, or vector length)."""


class NonFiniteValue(PopalignError):
    """A NaN or Inf where only finite reals are allowed."""

    def __init__(self, msg, row=None, col=None):
        super().__init__(msg)
        self.row = row
        self.col = col


class DuplicateId(PopalignError):
    """Two records in one pool share an identifier."""

    def __init__(self, msg, id=None):
        super().__init__(msg)
        self.id = id


class NonPositiveBandwidth(PopalignError):
    """Kernel bandwidth must be strictly positive."""


class AllZeroWeights(PopalignError):
    """Weight vector sums to zero, no probability vector exists."""


class NonFiniteWeight(PopalignError):
    """Weight vector contains NaN/Inf or a negative entry."""


class NonPositiveEpsilon(PopalignError):
    """Entropic regularization strength must be strictly positive."""


class DegenerateCostScale(PopalignError):
    """Median cost is zero, median-relative epsilon scaling undefined."""


class NumericalCollapse(PopalignError):
    """A full row/column of exp(-C/eps) underflows to zero in doubles.

    Signals that eps is too small for the cost scale of this instance.
    """

    def __init__(self, msg, axis=None, index=None):
        super().__init__(msg)
        self.axis = axis
        self.index = index


class UnconvergedPlan(PopalignError):
    """A transport plan hit the iteration cap without meeting the tolerance."""


class InstanceTooLarge(PopalignError):
    """Size guard: the instance exceeds a solver's size or memory budget."""


class EmptyInput(PopalignError):
    """An empirical distribution needs at least one sample."""


class InsufficientSamples(PopalignError):
    """Fewer samples than the statistic requires (covariance needs >= 2)."""


class DegenerateBandwidth(PopalignError):
    """Median pairwise distance is zero and no kernel bandwidth was given."""


class ConstantColumn(PopalignError):
    """A column has zero variance, its correlations are undefined."""

    def __init__(self, msg, column=None):
        super().__init__(msg)
        self.column = column


class ZeroVector(PopalignError):
    """Cosine similarity / normalization is undefined for the zero vector."""


class KOutOfRange(PopalignError):
    """Requested k outside [1, index size]."""


class EmptyNegativePool(PopalignError):
    """No negatives survive filtering for one or more queries."""

    def __init__(self, msg, query_ids=()):
        super().__init__(msg)
        self.query_ids = tuple(query_ids)


class ParseError(PopalignError):
    """A line of an input file is not valid JSON."""

    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line


class SchemaError(PopalignError):
    """A parsed record does not match the file schema."""

    def __init__(self, msg, line=None):
        super().__init__(msg)
        self.line = line


class ResponderFailure(PopalignError):
    """A responder call failed; collect_responses calls once per cell, retries are the client's."""

    def __init__(self, msg, row=None, col=None):
        super().__init__(msg)
        self.row = row
        self.col = col


class ClientProtocolError(PopalignError):
    """An external endpoint returned a body violating its wire contract."""


class InvalidConfig(PopalignError):
    """AlignmentConfig field values violate the documented invariants."""


class BoundViolation(PopalignError):
    """An asserted theoretical inequality failed on a concrete instance."""
