"""Exception taxonomy shared by every module.

``KinfluenceError`` is the common base so callers (and the CLI exit-code
mapping) can distinguish configuration problems from numerical failures.
"""


class KinfluenceError(Exception):
    """Base class for all library errors."""


class ConfigError(KinfluenceError):
    """Invalid configuration, CLI arguments, or file-format mismatch."""


# --- dataset / file errors -------------------------------------------------

class BadMagic(ConfigError):
    """A binary file's magic number does not match the expected format."""


class BadHeader(ConfigError):
    """A binary file's header holds a value its format does not define."""


class CountMismatch(ConfigError):
    """Image and label files disagree on the number of records."""


class TruncatedFile(ConfigError):
    """A binary file is shorter than its header or record size implies."""


class InsufficientClassMembers(ConfigError):
    """A per-class subset request exceeds the available members."""


class DegenerateSplit(ConfigError):
    """A forget/retain split would leave one of the partitions empty."""


class EmptyDataset(ConfigError):
    """An operation requires at least one data point."""


class DimensionMismatch(KinfluenceError):
    """Array shapes are inconsistent with the model or kernel dimensions."""


class CheckpointMismatch(ConfigError):
    """A serialized parameter vector does not match the given model spec."""


# --- numerical errors ------------------------------------------------------

class NumericalError(KinfluenceError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class DivergenceDetected(NumericalError):
    """Training produced a non-finite loss."""


class NonFiniteEncountered(NumericalError):
    """A solver iterate or operator output contains NaN/Inf."""


class SpdViolation(NumericalError):
    """A system that must be positive definite is not: CG observed p'Ap <= 0
    or r'Pr <= 0, a Kronecker preconditioner's shift + min eig(sigma) <= 0,
    or a dense Cholesky factorization failed."""


class NotAtOptimum(NumericalError):
    """Coefficients were requested at a non-stationary parameter vector."""


class NotConverged(NumericalError):
    """A function-space training run or the exact fit did not reach its tolerance."""


class PartitionGap(ConfigError):
    """Row shards do not cover every row of the matrix."""


class PartitionOverlap(ConfigError):
    """Row shards cover some row of the matrix more than once."""
