"""Exception types shared across the toolkit, and the rule check of the
config validators."""

import numbers


class MoetuneError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(MoetuneError, ValueError):
    """Operand shapes are incompatible."""


class RankError(MoetuneError, ValueError):
    """Tensor has the wrong number of dimensions (e.g. non-scalar loss)."""


class NumericError(MoetuneError, ArithmeticError):
    """A computation produced or received NaN/Inf.

    The message names the op whose output held it. An op called on its own
    checks its output; `DecoderModel.forward` checks its keys, router logits
    and logits, and on a NaN or an Inf there replays itself checking every
    op, so its error names the op as well.
    """


class EmptyMaskError(MoetuneError, ValueError):
    """Loss mask selects no positions."""


class VocabError(MoetuneError, ValueError):
    """Token id outside the vocabulary."""


class LengthError(MoetuneError, ValueError):
    """Sequence exceeds the maximum length."""


class ConfigError(MoetuneError, ValueError):
    """Invalid or inconsistent configuration."""


class ParseError(MoetuneError, ValueError):
    """Input file could not be parsed."""


class RecordError(MoetuneError, ValueError):
    """A single record violates its schema (skippable in lenient mode)."""


class FormatError(MoetuneError, ValueError):
    """Serialized container has the wrong magic, version or structure."""


class IntegrityError(MoetuneError, ValueError):
    """Serialized container is structurally valid but inconsistent."""


class TrainingAborted(MoetuneError, RuntimeError):
    """Training stopped on a non-finite loss or op output; carries the step.

    `step` is the number of optimizer steps completed before the failing one.
    """

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


class TapeError(MoetuneError, RuntimeError):
    """backward() on a tensor that recorded no autograd tape.

    Nothing it depends on requires grad, or it was computed under
    `tensor.no_tape`, as a cached (inference-only) forward is.
    """


def is_number(v, kind=numbers.Real) -> bool:
    """Whether `v` is a `kind` number; a bool is not a number here."""
    return isinstance(v, kind) and not isinstance(v, bool)


def is_int(v) -> bool:
    # `type(v) is int` is a fast path: the ABC check costs about 1 us, and
    # loading a checkpoint asks this of every dim of every tensor it holds
    return type(v) is int or is_number(v, numbers.Integral)


def is_count(v, lo: int = 0) -> bool:
    """Whether `v` is an int >= lo; a bool is not a count."""
    return is_int(v) and v >= lo


def count_rule(config, name: str, lo: int) -> tuple[str, str, bool]:
    """The rule that field `name` of `config` is an int >= lo."""
    return name, f"an int >= {lo}", is_count(getattr(config, name), lo)


def check_rules(config, rules) -> None:
    """ConfigError for the first (field, rule, ok) of `rules` whose ok is
    false, naming the field, the rule and the field's value in `config`."""
    for name, rule, ok in rules:
        if not ok:
            raise ConfigError(
                f"{name} must be {rule}, got {getattr(config, name)!r}")
