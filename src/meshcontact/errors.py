"""Exception hierarchy shared by all meshcontact modules."""


class MeshContactError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MeshContactError):
    """Operand extents are incompatible (always names the offending shapes)."""


class ConfigError(MeshContactError):
    """A config is constructed with an invalid value, or a valid one does not fit its inputs.

    Configs check their own values when constructed.  A value that can only
    be checked against an input, such as `SceneConfig.c_bp` against a
    template, raises where that input is first used.  CLI exit code 2.
    """


class ContractError(MeshContactError):
    """A call violated an operation precondition."""


class DataError(MeshContactError):
    """A dataset, checkpoint, or report file is missing or corrupt. CLI exit code 3."""


class GenerationError(MeshContactError):
    """Scene generation could not place a valid sample within the retry budget."""


class NumericsError(MeshContactError):
    """Non-finite values where finite ones are required. CLI exit code 4."""


class EvaluationError(NumericsError):
    """A probed function produced a non-finite value; message names the parameter."""


class NonDifferentiableOpError(MeshContactError):
    """Backward pass reached an op with no defined gradient (e.g. hard thresholding)."""
