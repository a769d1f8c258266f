"""Exception hierarchy shared by all meshcontact modules, and the integer check of configs."""

import dataclasses
import numbers
import typing


class MeshContactError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MeshContactError):
    """Operand extents are incompatible (always names the offending shapes)."""


class ConfigError(MeshContactError):
    """A config is constructed with an invalid value, or a valid one does not fit its inputs.

    Configs check their own values when constructed.  A fit that can only be
    checked against an input, such as a template's joint count against the
    scene's body parts, raises where that input is first used.  CLI exit code 2.
    """


def check_int_fields(config) -> None:
    """Raise ConfigError unless every `int` field of the dataclass `config` holds an integer.

    A `tuple[int, ...]` field must be a tuple of integers.  Bools are rejected and numpy
    integers accepted, as for any index or count: a float count constructed and failed
    later with a bare TypeError, and True counted as 1.
    """
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if hints[f.name] is int:
            ok, kind = _is_int(value), "an int"
        elif hints[f.name] == tuple[int, ...]:
            ok, kind = isinstance(value, tuple) and all(map(_is_int, value)), "a tuple of ints"
        else:
            continue
        if not ok:
            raise ConfigError(f"{type(config).__name__}.{f.name} must be {kind}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ContractError(MeshContactError):
    """A call violated an operation precondition."""


class DataError(MeshContactError):
    """A sample file is missing, corrupt or unwritable, or would not read back. CLI exit code 3."""


class GenerationError(MeshContactError):
    """`generate_sample`'s one drop placement left no vertex in contact; it does not retry."""


class NumericsError(MeshContactError):
    """Non-finite values where finite ones are required. CLI exit code 4."""
