"""Exception types shared across the package."""


class ImpshapError(Exception):
    """Base class for all errors raised by impshap."""


class EmptyDataset(ImpshapError):
    """A dataset with zero rows (or zero total weight) was supplied."""


class NoAdmissibleFeature(ImpshapError):
    """Tree construction found no feature that can split the root node."""


class MissingFeatureValue(ImpshapError):
    """An instance lacks a value required to traverse a tree path."""


class ZeroProbabilityContext(ImpshapError):
    """Conditioning on an assignment whose probability is zero."""


class ZeroProbabilityInstance(ZeroProbabilityContext):
    """An instance x with P(V = x) = 0 was given to a local measure."""


class PlayerCountTooLarge(ImpshapError):
    """More players than the exact 2^p enumeration supports."""


class TableTooLarge(ImpshapError):
    """A dense table would exceed the cell limit; refused before allocation."""


class NonZeroEmptyCoalition(ImpshapError):
    """A characteristic function with v(empty) != 0."""


class InternalConsistencyError(ImpshapError):
    """A quantity violated a tolerance that rounding alone cannot explain."""


class ParseError(ImpshapError):
    """Malformed CSV input; message carries row/column context."""


class ArityOverflow(ImpshapError):
    """A categorical column with more categories than supported."""
