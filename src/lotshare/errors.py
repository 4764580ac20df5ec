"""Exception types shared across the package."""


class LotshareError(Exception):
    """Base class for all package errors."""


class ShapeError(LotshareError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ConfigError(LotshareError, ValueError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class TrainingDivergedError(ConfigError):
    """A training step's loss is not finite or past ``training.MAX_STEP_LOSS``;
    the learning rate or another setting drives training apart (exit code 2)."""


class DataError(LotshareError, ValueError):
    """Malformed dataset or artifact file (CLI exit code 3)."""


class MaskFormatError(DataError):
    """Corrupt or truncated mask byte stream."""


class FeatureIdError(DataError, IndexError):
    """Feature id outside its field's embedding table."""


class CheckpointFormatError(DataError):
    """Corrupt or incompatible checkpoint file."""


class StateError(LotshareError, RuntimeError):
    """Operation called in the wrong lifecycle state."""


class UndefinedMetricError(LotshareError, ValueError):
    """Metric not defined for the given inputs (e.g. single-class AUC)."""
