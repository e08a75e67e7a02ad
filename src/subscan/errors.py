"""Exception hierarchy shared across the package."""


class SubscanError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(SubscanError, ValueError):
    """An argument or configuration violates a documented precondition."""


class LoadError(SubscanError):
    """A CSV file could not be ingested; the message names the offending row/column."""


class DegenerateDataError(SubscanError):
    """Outcomes are all 0 or all 1, so the scan statistic is undefined."""
