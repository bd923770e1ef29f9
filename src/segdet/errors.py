"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, MissingInputError -> 3,
everything else -> 4.
"""


class SegdetError(Exception):
    """Base class for all package errors."""


class ConfigError(SegdetError):
    """A run-config file is malformed or a field is out of range."""


class MissingInputError(SegdetError):
    """A declared stage input (file or directory) does not exist."""


# imaging
class UnsupportedFormatError(SegdetError):
    pass


class CorruptHeaderError(SegdetError):
    pass


class UnsupportedChannelsError(SegdetError):
    pass


class ZeroDimensionError(SegdetError):
    pass


# weak detectors
class DegenerateDataError(SegdetError):
    pass


class NoUsefulFeatureError(SegdetError):
    pass


class ParseError(SegdetError):
    pass


class UnknownSegmentKindError(SegdetError):
    pass


# classifiers
class DegenerateTrainingSetError(SegdetError):
    pass


class DegenerateLabelsError(SegdetError):
    pass


class DimensionMismatchError(SegdetError):
    pass


class PatchTooSmallError(SegdetError):
    pass


# network
class ShapeMismatchError(SegdetError):
    pass


class ConfigShapeError(SegdetError):
    pass


# model files
class ModelVersionMismatchError(SegdetError):
    pass


# evaluation
class NoNegativeImagesError(SegdetError):
    pass


class EvalInvariantError(SegdetError):
    """An evaluation-time invariant (e.g. the proposal-coverage bound) failed."""
