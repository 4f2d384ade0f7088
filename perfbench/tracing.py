"""Span tracing of moetune's layers, installed from outside the package.

The tracer replaces public functions and methods of the ``moetune`` modules
with wrappers that record one span per call: name, start, end, the span
that was open when the call began (its parent) and an optional row count
and key. Spans stay in memory; ``summarize`` turns a
slice of them into per-name calls, total time, self time (duration minus
the time covered by child spans) and rows. ``restore`` puts every original
object back, so the package is unchanged after a traced run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# span fields, stored as lists to keep per-call cost low
NAME, START, END, PARENT, ROWS, KEY = range(6)

# tensor helpers that are test oracles, not ops of the model
_NOT_OPS = {"finite_difference_grad", "gradient_check"}


@dataclass
class Target:
    """One callable to wrap: ``owner.attr`` is a module function or a method."""

    name: str
    owner: object
    attr: str
    rows: Callable | None = None  # (args, kwargs) -> int
    key: Callable | None = None   # (args, kwargs) -> hashable


def _arg(args, kwargs, pos: int, kw: str):
    return args[pos] if len(args) > pos else kwargs[kw]


def _batch_positions(args, kwargs) -> int:
    """Useful (non-pad) input positions of a ``batch_loss`` call."""
    samples = _arg(args, kwargs, 1, "samples")
    return sum(len(s.token_ids) - 1 for s in samples)


def tensor_op_names() -> list[str]:
    """Public op functions defined in ``moetune.tensor``."""
    from moetune import tensor
    return sorted(
        name for name, obj in vars(tensor).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor.__name__
        and not name.startswith("_") and name not in _NOT_OPS)


def layer_targets() -> list[Target]:
    """Every layer boundary the traced run records; absent names are skipped."""
    from moetune import (checkpoint, data, lora, model, quant, tensor,
                         tokenizer, trainer)
    targets = [Target(f"tensor.{name}", tensor, name)
               for name in tensor_op_names()]
    targets += [
        Target("tensor.backward", tensor.Tensor, "backward"),
        Target("quant.qmatmul", quant, "qmatmul",
               rows=lambda a, k: _arg(a, k, 0, "x").data.shape[0]),
        Target("quant.dequant", quant, "dequantize"),
        Target("quant.adam_step", quant.QuantizedAdam, "step"),
        Target("lora.branch", lora.LoraPair, "branch"),
        Target("model.forward", model.DecoderModel, "forward",
               rows=lambda a, k: np.asarray(_arg(a, k, 1, "token_ids")).size),
        Target("model.moe_forward", model, "moe_forward",
               key=lambda a, k: id(_arg(a, k, 1, "layer"))),
        Target("model.expert", model.Expert, "forward",
               rows=lambda a, k: _arg(a, k, 1, "x").data.shape[0],
               key=lambda a, k: id(a[0])),
        Target("model.init_model", model, "init_model"),
        Target("trainer.train", trainer, "train"),
        Target("trainer.batch_loss", trainer, "batch_loss",
               rows=_batch_positions),
        Target("trainer.generate", trainer, "generate"),
        Target("checkpoint.save", checkpoint, "save_checkpoint"),
        Target("checkpoint.load", checkpoint, "load_checkpoint"),
    ]
    for name in ("ingest_alpaca", "ingest_sharegpt", "clean_filter",
                 "tokenize_corpus"):
        targets.append(Target(f"data.{name}", data, name))
    for name in ("render_chat", "render_prompt"):
        targets.append(Target(f"tokenizer.{name}", tokenizer, name))
    return [t for t in targets if _lookup(t) is not None]


def coarse_targets() -> list[Target]:
    """The two hooks untraced SFT runs keep: step ends and checkpoint saves."""
    from moetune import checkpoint, quant
    return [Target("quant.adam_step", quant.QuantizedAdam, "step"),
            Target("checkpoint.save", checkpoint, "save_checkpoint")]


def _lookup(t: Target):
    if inspect.isclass(t.owner):
        return t.owner.__dict__.get(t.attr)
    return getattr(t.owner, t.attr, None)


def _moetune_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "moetune" or name.startswith("moetune."))]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            original = _lookup(t)
            wrapper = self._wrap(t, original)
            if inspect.isclass(t.owner):
                self._patch(t.owner, t.attr, original, wrapper)
                continue
            # a function imported by name into other modules is rebound there
            for module in _moetune_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, t: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, rows_fn, key_fn = t.name, t.rows, t.key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rows_fn(args, kwargs) if rows_fn else 0,
                    key_fn(args, kwargs) if key_fn else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    # -- output ------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; phases are slices between marks."""
        return len(self.spans)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


def summarize(spans: list[list], lo: int = 0, hi: int | None = None
              ) -> dict[str, Stat]:
    """Per-name calls, total and self seconds and rows over spans[lo:hi]."""
    hi = len(spans) if hi is None else hi
    child_s: dict[int, float] = {}
    for s in spans[lo:hi]:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] = child_s.get(s[PARENT], 0.0) + s[END] - s[START]
    out: dict[str, Stat] = {}
    for i in range(lo, hi):
        s = spans[i]
        st = out.setdefault(s[NAME], Stat())
        dur = s[END] - s[START]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s.get(i, 0.0)
        st.rows += s[ROWS]
    return out


def outermost_s(spans: list[list], prefixes: tuple[str, ...], lo: int = 0,
                hi: int | None = None) -> float:
    """Seconds covered by spans named with a prefix, counting nested ones once."""
    hi = len(spans) if hi is None else hi
    total = 0.0
    for s in spans[lo:hi]:
        if not s[NAME].startswith(prefixes):
            continue
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME].startswith(prefixes):
            continue
        total += s[END] - s[START]
    return total


def child_durations(spans: list[list], child: str, parent: str,
                    lo: int = 0, hi: int | None = None) -> list[float]:
    """Durations of ``child`` spans opened directly inside ``parent`` spans."""
    hi = len(spans) if hi is None else hi
    return [s[END] - s[START] for s in spans[lo:hi]
            if s[NAME] == child and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == parent]


def forward_rows_in(spans: list[list], parent: str, lo: int = 0,
                    hi: int | None = None) -> int:
    """Rows of ``model.forward`` spans nested anywhere inside ``parent`` spans."""
    hi = len(spans) if hi is None else hi
    total = 0
    for s in spans[lo:hi]:
        if s[NAME] != "model.forward":
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != parent:
            p = spans[p][PARENT]
        if p >= 0:
            total += s[ROWS]
    return total


def expert_rows_max_share(spans: list[list], lo: int = 0,
                          hi: int | None = None) -> float:
    """Largest share of one expert in its MoE layer's routed rows.

    Rows are summed per (layer, expert) over ``model.expert`` spans; the
    layer is the key of the enclosing ``model.moe_forward`` span. Returns
    the maximum over layers of max-expert rows / layer rows (1/n_experts
    is perfectly balanced).
    """
    hi = len(spans) if hi is None else hi
    per_layer: dict[object, dict[object, int]] = {}
    for s in spans[lo:hi]:
        if s[NAME] != "model.expert" or s[PARENT] < 0:
            continue
        layer = spans[s[PARENT]][KEY]
        experts = per_layer.setdefault(layer, {})
        experts[s[KEY]] = experts.get(s[KEY], 0) + s[ROWS]
    shares = [max(e.values()) / sum(e.values())
              for e in per_layer.values() if sum(e.values())]
    return max(shares) if shares else 0.0
