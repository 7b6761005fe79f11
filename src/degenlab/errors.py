"""Exception hierarchy shared across the package."""


class DegenLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(DegenLabError):
    """Malformed or out-of-contract constructor input."""


class InvalidComparison(DegenLabError):
    """Attempt to compare base points of different kinds."""


class HeightMismatch(DegenLabError):
    """Valuation data does not sum to the ambient height."""


class NoLimit(DegenLabError):
    """The one-parameter subgroup flow has no limit over the base point."""


class InvalidLocalScheme(DegenLabError):
    """Local monomial data references a chart the point does not lie on."""


class CriterionViolated(DegenLabError):
    """The occupancy criterion fails, so no stabilizing weights exist."""


class TropicalIncompatibility(DegenLabError):
    """A limit subdivision does not refine the declared generic fibre."""


class ParseError(DegenLabError):
    """Scenario text is not valid JSON or has the wrong shape."""


class ValidationError(DegenLabError):
    """Scenario fields are individually valid but mutually inconsistent."""
