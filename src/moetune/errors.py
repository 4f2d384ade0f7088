"""Exception types shared across the toolkit, the checks of entry-point
arguments, and `Config`, the base of the frozen config dataclasses: a
config checks its rules when it is built, so every config that exists is
valid, and it cannot change."""

import dataclasses
import numbers
import os

import numpy as np


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
    # is_int's fast path, inlined: a load asks this of every dim
    return (type(v) is int or is_int(v)) and v >= lo


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


def check_seed(seed) -> None:
    """ConfigError unless `seed` is an int >= 0, a seed numpy takes."""
    if not is_count(seed):
        raise ConfigError(f"seed must be an int >= 0, got {seed!r}")


def check_path(path) -> str:
    """`path` as a str; ConfigError unless it is a str, bytes or os.PathLike
    (an int would be taken as a file descriptor, which names no file)."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ConfigError(f"path must be a str, bytes or os.PathLike, got "
                          f"{type(path).__name__}")
    return os.fsdecode(path)


def check_type(name: str, value, kind: type, optional: bool = False) -> None:
    """ConfigError naming argument `name` unless `value` is a `kind`, or
    None when `optional`."""
    if not (isinstance(value, kind) or optional and value is None):
        raise ConfigError(f"{name} must be {'None or ' * optional}a "
                          f"{kind.__name__}, got {type(value).__name__}")


class Config:
    """Base of the configs: a subclass is declared
    `@dataclass(frozen=True)` and returns its rules, (field, rule, ok)
    triples, from `_rules`.

    Building one, directly, through `dataclasses.replace` or through
    `from_dict`, raises ConfigError for the first rule it breaks: first
    that no field is a numpy scalar, then the class's own. A checkpoint
    writes configs as JSON, which has no numpy scalars; coercing one would
    not do either: an f32 lr read back as an f64 is another lr.
    """

    def __post_init__(self):
        check_rules(self, [
            *[(f.name, "a python value, not a numpy scalar",
               not isinstance(getattr(self, f.name), np.generic))
              for f in dataclasses.fields(self)],
            *self._rules()])

    def _rules(self) -> list[tuple[str, str, bool]]:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config `to_dict` wrote. ConfigError unless `d` is a dict
        whose keys are the fields of `cls`, each once, the message naming a
        missing or an unknown key, or if the config breaks a rule."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} must be read from a dict, got "
                              f"{type(d).__name__}")
        names = [f.name for f in dataclasses.fields(cls)]
        for key in d:
            if key not in names:
                raise ConfigError(f"{cls.__name__} has unknown key {key!r}")
        for name in names:
            if name not in d:
                raise ConfigError(f"{cls.__name__} lacks key {name!r}")
        return cls(**d)
