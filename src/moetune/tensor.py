"""Dense f32 tensors with tape-based reverse-mode automatic differentiation.

Every operation records its inputs and a backward closure on the output
tensor; ``Tensor.backward()`` traces the graph into a topologically ordered
tape and replays it in reverse, accumulating gradients into the leaves'
``.grad`` and freeing each op output's closure once it has run.
An op output whose readers' backwards need nothing of it can drop its data
before the backward with ``Tensor.release()``, and stay on the tape: the
decoder releases its pre-rotary queries and keys and the two branches it
adds to the residual stream, and the trainer its logits.
Inside ``no_tape()`` ops compute the same values but record nothing: their
outputs keep no parents or closure, so each op's intermediates are freed
when it returns. The decoder's cached (inference-only) forward runs there.
The decoder has one gather, ``index_rows``, which looks up token embeddings
and hands each expert its rows; ``swiglu`` is each expert's activation and
gate product in one op; ``combine_rows`` weights the experts' outputs by
their gates and sums them back in one op. ``lora_linear`` is one adapted
projection, frozen base product plus dropout and low-rank branch, as one op.
Forward outputs are checked for NaN/Inf, so overflow raises NumericError at
the op that produced it instead of propagating silently. Inside
``no_op_checks()`` ops skip that check and the caller checks what leaves:
the decoder's forward checks its logits, keys and router logits, and
replays itself with every op checked to name the op. The matmul and the
attention run on BLAS, forward and backward. BLAS repeats its arithmetic
exactly for a given shape and thread count, so values and gradients are
bit-reproducible run to run. The matmul and attention forwards call it only
on fixed-shape tiles, so an output row is also bitwise the same whatever
the other rows of the call.
``causal_attention`` runs both passes in blocks of query rows over the
lower triangle only: the key blocks above a row block's last position
hold nothing but masked, exactly zero weights. Each row block's weights
are an array of their own, kept for the backward only when the op records
a tape, and a key/value cache is read in place, not copied.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EmptyMaskError,
    NumericError,
    RankError,
    TapeError,
    VocabError,
)

DTYPE = np.float32

# Rows per BLAS call in the matmul forward. Every call multiplies a
# [TILE, K] block, so the result of a row never depends on how many rows the
# caller passed; changing TILE changes every forward value at the ulp level.
TILE = 8

# Keys per block in the attention forward, and query rows per row block of
# both attention passes (a multiple of TILE, so a row block is whole query
# tiles). Key blocks start at key position 0, so a row meets the same blocks
# whatever T_k is; changing KEY_BLOCK changes every attention value at the
# ulp level.
KEY_BLOCK = 64

# When on, a non-finite value raises NumericError naming the op that
# produced it, instead of surfacing later as a NaN loss: every op output is
# checked, or, inside `no_op_checks`, what the caller checks with
# `check_finite`. When off, nothing is checked. On by default; the tests rely
# on it being on.
FINITE_CHECKS = True


# Whether op outputs record the tape; False only inside `no_tape`. A context
# variable, so a thread decoding under `no_tape` leaves another thread's
# training tape alone.
_RECORDING = contextvars.ContextVar("moetune_recording", default=True)

# Whether each op output is checked for NaN/Inf; False only inside
# `no_op_checks`. A context variable for the same reason.
_OP_CHECKS = contextvars.ContextVar("moetune_op_checks", default=True)


class no_tape:
    """Context in which ops record no autograd tape.

    Values are bitwise those of a recording op; outputs have requires_grad
    False and no parents or backward closure, so nothing an op computed
    outlives it except its output, and `backward` through them raises
    TapeError. On exit, by return or by exception, recording goes back to
    what it was on entry, so the contexts nest.
    """

    def __enter__(self) -> None:
        self._token = _RECORDING.set(False)

    def __exit__(self, *exc) -> None:
        _RECORDING.reset(self._token)


class no_op_checks:
    """Context in which op outputs are not checked for NaN/Inf.

    Values are bitwise those of a checked op. The caller checks what leaves
    the context with `check_finite`, and must make sure no non-finite value
    can vanish before that: a NaN that only feeds a comparison, an argsort
    or a masked-out entry never reaches the result. On exit, by return or
    by exception, checking goes back to what it was on entry, so the
    contexts nest.
    """

    def __enter__(self) -> None:
        self._token = _OP_CHECKS.set(False)

    def __exit__(self, *exc) -> None:
        _OP_CHECKS.reset(self._token)


def check_finite(arr: np.ndarray, what: str) -> None:
    """NumericError naming `what` if `arr` holds a NaN or an Inf, checked
    whenever FINITE_CHECKS is on, inside `no_op_checks` too."""
    if FINITE_CHECKS and not np.isfinite(arr).all():
        raise NumericError(f"{what} produced non-finite values")


def _records(parents: tuple["Tensor", ...]) -> bool:
    """Whether an op output with these parents records the tape."""
    return _RECORDING.get() and any(p.requires_grad for p in parents)


class Tensor:
    """A dense float array plus optional gradient, node in the autograd graph.

    Leaf tensors are created directly; op outputs carry ``_parents`` and a
    ``_backward`` closure that adds into the parents' ``.grad``. dtype is
    float32 in the production path; float64 is allowed so finite-difference
    oracles can run the same kernels at higher precision.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=DTYPE):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        if _OP_CHECKS.get():
            check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = _records(parents)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        """Populate ``.grad`` on every reachable leaf with requires_grad.

        The tape lists every reachable tensor with inputs before users, so
        the reverse sweep visits each node exactly once with its output
        gradient fully accumulated. The sweep frees the tape as it goes:
        once an op output has handed its gradient to its inputs, nothing
        adds into it again, so it drops its ``.grad``, closure and parents
        and turns requires_grad off, and what only its closure held is
        freed before the next node runs. Only leaves keep ``.grad``, and
        an op output used again after the backward enters a new graph as a
        constant. A tensor that recorded no tape (nothing it depends on
        requires grad, or it was computed under `no_tape`), or whose tape a
        backward has already freed, raises TapeError.
        """
        if self.data.shape != ():
            raise RankError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise TapeError("backward on a tensor that recorded no tape "
                            "or whose tape a backward freed")
        tape: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                tape.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        _accum(self, np.ones_like(self.data))
        while tape:
            node = tape.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = node._backward = None
                node._parents = ()
                node.requires_grad = False

    def release(self) -> None:
        """Drop this op output's data once every op that reads it exists and
        no backward reads it: `data` is None from then on. The tensor keeps
        its grad, parents and closure, so it keeps its place on the tape and
        passes its gradient on. The decoder releases what it feeds only to
        a `rotary` or a residual `add`, whose backwards read nothing but
        their gradient, and the trainer releases the logits once
        `masked_cross_entropy`, which keeps its own exponentials, has read
        them. Reading a released tensor's data is a bug."""
        self.data = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; the first touch stores ``g + 0``, a copy
    with the bits of zeros plus ``g`` (-0 becomes +0) in one pass."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g + 0
    else:
        t.grad += g


def _accum_at(t: Tensor, idx, g: np.ndarray) -> None:
    """Scatter-add ``g`` into ``t.grad`` at ``idx``, repeated indices adding
    up, allocating zeros on first touch."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    np.add.at(t.grad, idx, g)


# ---------------------------------------------------------------------------
# Elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} != {b.data.shape}")
    with np.errstate(over="ignore"):
        out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return Tensor._from_op(out_data, (a, b), backward, "add")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (no gradient for ``c``)."""
    out_data = a.data * a.data.dtype.type(c)

    def backward(g: np.ndarray) -> None:
        _accum(a, g * a.data.dtype.type(c))

    return Tensor._from_op(out_data, (a,), backward, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with dA = g.Bᵀ, dB = Aᵀ.g.

    The forward is batch-invariant: the rows of a are zero-padded to a
    multiple of TILE and multiplied as a stack of [TILE, K] tiles in one
    batched BLAS call, so every gemm has the same shape whatever the row
    count, and BLAS never switches to gemv or re-blocks as T grows. Each
    output row is then bitwise the same whether it is computed alone, in a
    prefix, or at any position of its tile, which is the causal decoder's
    prefix stability. The guarantee rests on the BLAS and is checked
    empirically by tests/test_tensor.py. Tiled results are not bitwise
    equal to an untiled product. Backward runs plain BLAS.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul requires 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dims {a.data.shape} x {b.data.shape}")
    out_data = _tiled_matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor._from_op(out_data, (a, b), backward, "matmul")


def _tiles(a: np.ndarray) -> np.ndarray:
    """The rows of a zero-padded to whole tiles: [n_tiles, TILE, K]."""
    t, k = a.shape
    tiles = np.zeros((-(-t // TILE), TILE, k), dtype=a.dtype)
    tiles.reshape(-1, k)[:t] = a
    return tiles


def _tiled_matmul(a: np.ndarray, b: np.ndarray,
                  tiles: np.ndarray | None = None) -> np.ndarray:
    """a @ b on the rows of a zero-padded to whole [TILE, K] tiles, as one
    batched BLAS call: the forward kernel of `matmul` and `lora_linear`.
    `tiles` is `_tiles(a)` if the caller already has it."""
    if tiles is None:
        tiles = _tiles(a)
    return (tiles @ b).reshape(-1, b.shape[1])[:a.shape[0]]


def _keep(mask: np.ndarray, p: float, dtype) -> np.ndarray:
    """Inverted dropout's multiplier of a keep mask of 0s and 1s (bool, or
    bits unpacked to uint8): 0 where dropped, 1 / (1 - p) where kept.
    x * _keep(...) has the bits of (x * keep) * factor, since the
    multiplier is 0 or the factor."""
    return mask.astype(dtype) * dtype.type(1.0 / (1.0 - p))


def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, scaling: float,
                p: float, rng: np.random.Generator | None) -> Tensor:
    """Adapted projection x·W + scaling·(dropout_p(x)·A)·B as one op.

    Row-vector LoRA: W [d_in, d_out], A [d_in, r], B [r, d_out]. Every
    product runs on the tiles of `matmul`, so each output row keeps its
    prefix stability. Dropout runs when a generator is given and p > 0:
    the mask is drawn from `rng` as ``rng.random(x.shape) >= p`` and kept
    entries are scaled by 1 / (1 - p) (inverted dropout). Otherwise nothing
    is drawn and the result is bitwise that of p == 0. The op keeps the
    mask packed eight entries to a byte, 1/32 of an f32 array; the backward
    unpacks it and rebuilds the dropped-out x with the forward's
    expressions, so its values are bitwise the forward's. The forward
    evaluates the expressions of the matmul, dropout, matmul, matmul,
    scale, add chain it replaces, in its order, so values are bitwise those
    of the chain; so are the gradients, which the backward hands out in the
    order the chain's tape did: x gets g·Wᵀ (and W its gradient, if it
    requires one), then B, then A, then x the dropout path's share.

    One finiteness check on the output stands for the chain's six: once
    an intermediate holds a NaN or an Inf, every later `@`, `*` and `+`
    keeps it non-finite (Inf·0 is NaN), so the output holds one too.
    """
    if not (x.data.ndim == w.data.ndim == a.data.ndim == b.data.ndim == 2
            and x.data.shape[1] == w.data.shape[0] == a.data.shape[0]
            and b.data.shape == (a.data.shape[1], w.data.shape[1])):
        raise DimensionError(
            f"lora_linear: x {x.data.shape}, W {w.data.shape}, "
            f"A {a.data.shape}, B {b.data.shape}")
    if not 0.0 <= p < 1.0:
        raise DimensionError(f"dropout p must be in [0, 1), got {p}")
    dtype = x.data.dtype
    bits = None  # the dropout mask, packed
    h = x.data
    with np.errstate(over="ignore"):
        # without dropout both products read one padded copy of x, freed
        # before the branch's second product; the backward does not keep it
        tiles = _tiles(x.data)
        base = _tiled_matmul(x.data, w.data, tiles)
        if rng is not None and p > 0.0:
            tiles = None  # the branch reads the dropped-out x
            mask = rng.random(x.data.shape) >= p
            h = x.data * _keep(mask, p, dtype)
            bits = np.packbits(mask, axis=None)
        ha = _tiled_matmul(h, a.data, tiles)
        del tiles
        hab = _tiled_matmul(ha, b.data)
        c = hab.dtype.type(scaling)
        out_data = base + hab * c

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        g_hab = g * c
        if b.requires_grad:
            _accum(b, ha.T @ g_hab)
        if not (a.requires_grad or x.requires_grad):
            return
        g_ha = g_hab @ b.data.T
        keep = None if bits is None else _keep(
            np.unpackbits(bits, count=x.data.size).reshape(x.data.shape),
            p, dtype)
        if a.requires_grad:
            _accum(a, (x.data if keep is None else x.data * keep).T @ g_ha)
        if x.requires_grad:
            g_h = g_ha @ a.data.T
            _accum(x, g_h if keep is None else g_h * keep)

    return Tensor._from_op(out_data, (x, w, a, b), backward, "lora_linear")


def index_rows(x: Tensor, idx) -> Tensor:
    """Gather rows x[idx]; backward scatter-adds into the source rows.

    Strictly increasing rows, as each expert's are, hold no repeat, so the
    backward adds g with one fancy-indexed `+=`, the same sums as
    `np.add.at` at a fraction of its cost; repeated ids (token embeddings)
    go through `np.add.at`.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out_data = x.data[idx]

    def backward(g: np.ndarray) -> None:
        if not np.all(idx[1:] > idx[:-1]):
            _accum_at(x, idx, g)
        elif x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[idx] += g

    return Tensor._from_op(out_data, (x,), backward, "index_rows")


def combine_rows(gates: Tensor, parts, n_rows: int) -> Tensor:
    """Gate-weighted sum of row blocks: the mixture-of-experts combine.

    Each part is (col, rows, y): y [len(rows), d] holds one expert's outputs
    for the unique row indices `rows`, weighted by gates[rows, col]. Output
    row r adds y * gate of every part that picks r, in list order, into a
    zero [n_rows, d] array. Backward: y gets g[rows] * gate, and gates gets
    (g[rows] * y).sum(axis=1) at (rows, col).
    """
    if not parts:
        raise DimensionError("combine_rows needs at least one part")
    d = parts[0][2].data.shape[1]
    if any(y.data.shape != (len(rows), d) for _, rows, y in parts):
        raise DimensionError(f"combine_rows: every part must be [len(rows), {d}]")
    weights = [gates.data[rows, col][:, None] for col, rows, _ in parts]
    out_data = np.zeros((n_rows, d), dtype=gates.data.dtype)
    with np.errstate(over="ignore"):
        for (_, rows, y), w in zip(parts, weights):
            out_data[rows] += y.data * w

    def backward(g: np.ndarray) -> None:
        for (col, rows, y), w in zip(parts, weights):
            g_rows = g[rows]
            _accum(y, g_rows * w)
            if gates.requires_grad:
                _accum_at(gates, (rows, col), (g_rows * y.data).sum(axis=1))

    # Parents are listed experts first, gates last: this fixes the order in
    # which the backward sweep reaches the router and the experts, and so the
    # order in which the hidden states' gradient is summed.
    parents = tuple(y for _, _, y in parts) + (gates,)
    return Tensor._from_op(out_data, parents, backward, "combine_rows")


# ---------------------------------------------------------------------------
# Activations and normalization


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """sigmoid(x) = exp(min(x, 0)) / (1 + exp(-|x|)), as `swiglu` evaluates
    it in its forward and again in its backward."""
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def swiglu(gate_pre: Tensor, up: Tensor) -> Tensor:
    """SwiGLU gate: silu(gate_pre) * up, with silu(x) = x * sigmoid(x).

    sigmoid(x) = exp(min(x, 0)) / (1 + exp(-|x|)): 1 / (1 + e) for x >= 0
    and e / (1 + e) below, with e = exp(-|x|) <= 1, so neither tail
    overflows. Both exponentials run over the whole array; selecting either
    branch by a mask (indexing or np.where) costs more than the arithmetic.
    Backward: up gets g * silu(gate_pre), and gate_pre gets
    (g * up) * sig * (1 + x * (1 - sig)). The op keeps nothing for its
    backward but its two parents: the backward recomputes sig and
    silu(gate_pre) from gate_pre with the forward's expressions, so both
    are bitwise the forward's.
    """
    if gate_pre.data.shape != up.data.shape:
        raise DimensionError(
            f"swiglu: shapes {gate_pre.data.shape} != {up.data.shape}")
    x = gate_pre.data
    sig = _sigmoid(x)
    with np.errstate(over="ignore"):
        out_data = x * sig * up.data

    def backward(g: np.ndarray) -> None:
        x = gate_pre.data
        sig = _sigmoid(x)
        if gate_pre.requires_grad:
            _accum(gate_pre, g * up.data * sig * (1.0 + x * (1.0 - sig)))
        if up.requires_grad:
            _accum(up, g * (x * sig))

    return Tensor._from_op(out_data, (gate_pre, up), backward, "swiglu")


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise RMS normalization with learned gain: y = x / rms(x) * w.

    The op keeps for its backward its parents and inv = 1 / rms(x), one
    value per row; the weight's gradient, taken only when the weight
    requires one, rebuilds x / rms(x) as the forward did, x * inv.
    """
    if x.data.ndim != 2 or weight.data.shape != (x.data.shape[1],):
        raise DimensionError(
            f"rms_norm: x {x.data.shape} vs weight {weight.data.shape}")
    d = x.data.shape[1]
    # accumulate in f64: squaring near-f32-max activations must not overflow
    x64 = x.data.astype(np.float64)
    ms = (x64 * x64).mean(axis=1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + eps)).astype(x.data.dtype)
    out_data = x.data * inv * weight.data

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accum(weight, (g * (x.data * inv)).sum(axis=0))
        if x.requires_grad:
            gw = g * weight.data
            # d/dx of x*inv: inv*gw - x * inv^3/d * sum(gw*x)
            dot = (gw * x.data).sum(axis=1, keepdims=True)
            _accum(x, inv * gw - x.data * (inv ** 3) * dot / d)

    return Tensor._from_op(out_data, (x, weight), backward, "rms_norm")


# ---------------------------------------------------------------------------
# Softmax family


def masked_row_softmax(x: Tensor, select_mask: np.ndarray) -> Tensor:
    """Softmax restricted per row to entries where select_mask is 1.

    Unselected entries come out exactly 0 and receive zero gradient; each row
    must select at least one entry. The mask is a constant, not a tensor.
    """
    if x.data.ndim != 2 or select_mask.shape != x.data.shape:
        raise DimensionError(
            f"masked_row_softmax: x {x.data.shape} vs mask {select_mask.shape}")
    if not np.all(select_mask.sum(axis=1) >= 1):
        raise EmptyMaskError("masked_row_softmax: a row selects no entries")
    sel = select_mask.astype(bool)
    neg = np.where(sel, x.data, -np.inf)
    shifted = neg - neg.max(axis=1, keepdims=True)
    e = np.where(sel, np.exp(shifted), 0.0)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * s).sum(axis=1, keepdims=True)
        _accum(x, s * (g - dot))

    return Tensor._from_op(s.astype(x.data.dtype), (x,), backward,
                           "masked_row_softmax")


def masked_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean of -log softmax(logits)[target] over positions where mask is 1.

    Fused log-sum-exp form; masked-out positions contribute nothing to the
    value or the gradient. A mask value other than 0 and 1 is a ConfigError:
    a 2 would count a position twice. A mask of 0s only is an
    EmptyMaskError.
    """
    if logits.data.ndim != 2:
        raise DimensionError(
            f"masked_cross_entropy logits must be 2-D, got {logits.data.shape}")
    t_count, vocab = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    mask_arr = np.asarray(mask, dtype=logits.data.dtype)
    if targets.shape != (t_count,) or mask_arr.shape != (t_count,):
        raise DimensionError(
            f"targets/mask length must be {t_count}, got "
            f"{targets.shape} and {mask_arr.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise VocabError(f"target id out of range [0, {vocab})")
    if not np.all((mask_arr == 0) | (mask_arr == 1)):
        raise ConfigError(
            "masked_cross_entropy: mask values must be 0 or 1")
    n_masked = float(mask_arr.sum())
    if n_masked <= 0:
        raise EmptyMaskError("masked_cross_entropy: mask selects no positions")

    row_max = logits.data.max(axis=1, keepdims=True)
    e = np.exp(logits.data - row_max)
    sums = e.sum(axis=1, keepdims=True)
    lse = np.log(sums[:, 0]) + row_max[:, 0]
    picked = logits.data[np.arange(t_count), targets]
    per_pos = lse - picked
    loss = (per_pos * mask_arr).sum() / n_masked
    out_data = np.asarray(loss, dtype=logits.data.dtype)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            soft = e / sums
            soft[np.arange(t_count), targets] -= 1.0
            coef = (mask_arr / n_masked)[:, None] * g
            _accum(logits, soft * coef)

    return Tensor._from_op(out_data, (logits,), backward, "masked_cross_entropy")


# ---------------------------------------------------------------------------
# Attention kernels


def rotary_table(n_positions: int, head_dim: int,
                 base: float) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin), f32 [n_positions, head_dim/2], of the rotary angles.

    Row p, pair i is angle p * base^(-2i/head_dim): one f64 product cast to
    f32, so a row does not depend on how many rows the table has."""
    inv_freq = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.arange(n_positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(DTYPE), np.sin(angles).astype(DTYPE)


def rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position embedding applied per head to [T, d].

    `cos` and `sin` are [T, hd/2] rows of `rotary_table`: row t holds the
    angles of x's row t, so rotating x[s:] by rows s: of a table equals
    rows s: of rotating x by the whole table, bitwise. The head dim hd is
    twice the table's width and the head count d / hd. Within each head,
    consecutive (even, odd) channel pairs are rotated by their angle. The
    transform is orthogonal, so the backward pass applies the inverse
    rotation to the gradient.
    """
    t_len, d = x.data.shape
    hd = 2 * cos.shape[1] if cos.ndim == 2 else 0
    if not hd or cos.shape[0] != t_len or sin.shape != cos.shape or d % hd:
        raise DimensionError(
            f"rotary: x {x.data.shape} vs cos {cos.shape}, sin {sin.shape}")
    n_heads = d // hd
    xh = x.data.reshape(t_len, n_heads, hd)
    x1 = xh[:, :, 0::2]
    x2 = xh[:, :, 1::2]
    y = np.empty_like(xh)
    y[:, :, 0::2] = x1 * cos[:, None, :] - x2 * sin[:, None, :]
    y[:, :, 1::2] = x1 * sin[:, None, :] + x2 * cos[:, None, :]
    out_data = y.reshape(t_len, d)

    def backward(g: np.ndarray) -> None:
        gh = g.reshape(t_len, n_heads, hd)
        g1 = gh[:, :, 0::2]
        g2 = gh[:, :, 1::2]
        gx = np.empty_like(gh)
        gx[:, :, 0::2] = g1 * cos[:, None, :] + g2 * sin[:, None, :]
        gx[:, :, 1::2] = -g1 * sin[:, None, :] + g2 * cos[:, None, :]
        _accum(x, gx.reshape(t_len, d))

    return Tensor._from_op(out_data, (x,), backward, "rotary")


def _row_blocks(t_q: int, t_k: int):
    """Yield (i0, i1, kend) for each block of KEY_BLOCK query rows, starting
    at row 0: rows i0..i1-1 attend to key positions below kend, the last
    row's position plus one. Both passes of `causal_attention` run on these
    ranges, so the backward reads only weights the forward wrote."""
    for i0 in range(0, t_q, KEY_BLOCK):
        i1 = min(i0 + KEY_BLOCK, t_q)
        yield i0, i1, t_k - t_q + i1


def _attention_rows(q_tiles: np.ndarray, k_blocks: np.ndarray,
                    v_blocks: np.ndarray, q_pos: np.ndarray,
                    out_t: np.ndarray) -> np.ndarray:
    """Forward of one row block of `causal_attention`: its query tiles
    [H, n_t, TILE, hd], at key positions `q_pos`, against its key blocks
    [H, nb, hd, KEY_BLOCK] and value blocks [H, nb, KEY_BLOCK, hd]. Writes
    the output tiles into `out_t` and returns the softmax weights,
    [H, n_t·TILE, nb·KEY_BLOCK]."""
    n_heads, n_t = q_tiles.shape[:2]
    nb = k_blocks.shape[1]
    # The score gemms write their [TILE, KEY_BLOCK] tiles straight into the
    # weights layout that the softmax and the backward read.
    a = np.empty((n_heads, n_t * TILE, nb * KEY_BLOCK), dtype=q_tiles.dtype)
    tiles = a.reshape(n_heads, n_t, TILE, nb, KEY_BLOCK)
    tiles = tiles.transpose(0, 1, 3, 2, 4)  # [H, q tile, k block, ...]
    np.matmul(q_tiles[:, :, None], k_blocks[:, None], out=tiles)
    np.copyto(a, -np.inf, where=np.arange(nb * KEY_BLOCK) > q_pos[:, None])
    a -= a.max(axis=2, keepdims=True)
    np.exp(a, out=a)
    # An explicit loop, not np.sum over the block axis: numpy sums 8 or more
    # blocks pairwise, in an order that depends on the number of blocks.
    block_sums = a.reshape(n_heads, -1, nb, KEY_BLOCK).sum(axis=3)
    total = block_sums[:, :, 0].copy()
    for b in range(1, nb):
        total += block_sums[:, :, b]
    a /= total[:, :, None]
    pv = tiles @ v_blocks[:, None]  # [H, q tile, k block, TILE, hd]
    out_t[...] = pv[:, :, 0]
    for b in range(1, nb):
        out_t += pv[:, :, b]
    return a


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                     t_k: int | None = None) -> Tensor:
    """Multi-head softmax(QKᵀ/√hd + causal mask)·V.

    q is [T_q, d]; k and v hold T_k >= T_q keys and values. The queries are
    the last T_q of the T_k positions, so query row i attends to key
    positions <= T_k - T_q + i. With T_k == T_q this is plain causal
    self-attention; with T_k > T_q the keys and values of the earlier
    positions come from a cache. Heads are contiguous channel slices;
    outputs are concatenated back to [T_q, d].

    k and v are [T_k, d] when `t_k` is None. Given `t_k`, they are [R, d]
    buffers whose first t_k rows are the keys and values, as a key/value
    cache is; their rows from t_k up to the next multiple of KEY_BLOCK must
    be zero (rows past that are never read). k and v with at least that
    many rows are read in place as key blocks; shorter ones are copied into
    zero-padded blocks. Gradients have the shape of k and v, zero past t_k.

    Both passes run on the lower triangle only, as FlashAttention does: the
    query rows go in blocks of KEY_BLOCK rows from row 0, and a block
    touches only the key blocks up to its last row's position, where the
    causal mask makes every weight above them exactly zero. Each row block
    writes its weights into an [H, rows, kb·KEY_BLOCK] array of its own, kb
    its key blocks. When the op records a tape it keeps these arrays, the
    lower triangle, for the backward; otherwise it holds one at a time.

    The forward runs on fixed-shape BLAS tiles: the key-block tiling of
    FlashAttention under the batch-invariance rule of `matmul`. Queries,
    pre-scaled by 1/√hd, go in zero-padded tiles of TILE rows; keys and
    values are zero-padded into blocks of KEY_BLOCK positions anchored at
    key position 0, not at T_k. Every score product is a [TILE, hd] @
    [hd, KEY_BLOCK] gemm and every value product a [TILE, KEY_BLOCK] @
    [KEY_BLOCK, hd] gemm, whatever T_q and T_k are. Each row takes its max
    over its unmasked keys, sums each block's KEY_BLOCK exponentials, then
    adds up the block sums, and later the blocks' value products, left to
    right up to its row block's last key block; the blocks between its own
    position and that one contribute exact zeros. A row's arithmetic thus
    depends only on its position and on the inputs up to it, so a cached
    decode row and every prefix are bitwise equal to the matching rows of
    the full forward. The guarantee rests on the BLAS and is checked
    empirically by tests/test_tensor.py.

    The backward carries no prefix guarantee. Over the same row blocks it
    reads the block's weights, computes the softmax gradient ds in one
    reused [H, KEY_BLOCK, T_k] buffer, writes the block's query gradient
    and adds its share of the key and value gradients in block order, so
    a call's gradients repeat bitwise.
    """
    t_q, d = q.data.shape
    n_rows = k.data.shape[0]
    t_k = n_rows if t_k is None else t_k
    if (k.data.shape != (n_rows, d) or v.data.shape != (n_rows, d)
            or not t_q <= t_k <= n_rows):
        raise DimensionError(
            f"attention needs q [T_q, d] and k, v [R, d] holding T_k keys, "
            f"T_q <= T_k <= R; got {q.data.shape} {k.data.shape} "
            f"{v.data.shape} and T_k = {t_k}")
    if d % n_heads != 0:
        raise DimensionError(f"d_model {d} not divisible by n_heads {n_heads}")
    hd = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(hd)
    dtype = q.data.dtype
    n_qt, n_kb = -(-t_q // TILE), -(-t_k // KEY_BLOCK)
    tq_pad, tk_pad = n_qt * TILE, n_kb * KEY_BLOCK

    qp = np.zeros((tq_pad, d), dtype=dtype)
    np.multiply(q.data, dtype.type(inv_sqrt), out=qp[:t_q])
    if n_rows >= tk_pad:
        kp, vp = k.data[:tk_pad], v.data[:tk_pad]
    else:
        kp = np.zeros((tk_pad, d), dtype=dtype)
        kp[:t_k] = k.data[:t_k]
        vp = np.zeros((tk_pad, d), dtype=dtype)
        vp[:t_k] = v.data[:t_k]
    # strided views whose last two axes are one head's BLAS operand
    q_tiles = qp.reshape(n_qt, TILE, n_heads, hd).transpose(2, 0, 1, 3)
    k_blocks = kp.reshape(n_kb, KEY_BLOCK, n_heads, hd).transpose(2, 0, 3, 1)
    v_blocks = vp.reshape(n_kb, KEY_BLOCK, n_heads, hd).transpose(2, 0, 1, 3)

    keep = _records((q, k, v))
    weights: list[np.ndarray] = []  # per row block
    out_h = np.empty((n_heads, n_qt, TILE, hd), dtype=dtype)
    q_pos = t_k - t_q + np.arange(tq_pad)
    for i0, i1, kend in _row_blocks(t_q, t_k):
        t0, t1 = i0 // TILE, -(-i1 // TILE)  # the block's query tiles
        nb = -(-kend // KEY_BLOCK)  # and key blocks
        if not keep:  # no backward reads them: hold one block at a time
            weights.clear()
        weights.append(_attention_rows(
            q_tiles[:, t0:t1], k_blocks[:, :nb], v_blocks[:, :nb],
            q_pos[t0 * TILE:t1 * TILE], out_h[:, t0:t1]))
    out_data = (out_h.reshape(n_heads, tq_pad, hd)[:, :t_q]
                .transpose(1, 0, 2).reshape(t_q, d))

    def backward(g: np.ndarray) -> None:
        qh, kh, vh, gh = (x.reshape(len(x), n_heads, hd).transpose(1, 0, 2)
                          for x in (q.data, k.data, v.data, g))
        # gradients laid out [T, H, hd], so [T, d] is a view; BLAS writes
        # the [H, T, hd] views of them
        gq = np.empty((t_q, n_heads, hd), dtype=dtype)
        gk = np.zeros((n_rows, n_heads, hd), dtype=dtype)
        gv = np.zeros((n_rows, n_heads, hd), dtype=dtype)
        gq_h, gk_h, gv_h = (x.transpose(1, 0, 2) for x in (gq, gk, gv))
        need_ds = q.requires_grad or k.requires_grad
        ds_buf = np.empty((n_heads, min(KEY_BLOCK, t_q), t_k), dtype=dtype)
        for (i0, i1, kend), a in zip(_row_blocks(t_q, t_k), weights):
            w = a[:, :i1 - i0, :kend]
            g_b = gh[:, i0:i1]
            if v.requires_grad:
                gv_h[:, :kend] += w.transpose(0, 2, 1) @ g_b
            if not need_ds:
                continue
            # softmax backward, ds = w * (da - rowsum(da * w)) / √hd, built
            # in place over da = g · vᵀ; masked weights are 0, so is ds
            ds = ds_buf[:, :i1 - i0, :kend]
            np.matmul(g_b, vh[:, :kend].transpose(0, 2, 1), out=ds)
            ds -= (ds * w).sum(axis=2, keepdims=True)
            ds *= w
            ds *= dtype.type(inv_sqrt)
            if q.requires_grad:
                np.matmul(ds, kh[:, :kend], out=gq_h[:, i0:i1])
            if k.requires_grad:
                gk_h[:, :kend] += ds.transpose(0, 2, 1) @ qh[:, i0:i1]
        if v.requires_grad:
            _accum(v, gv.reshape(n_rows, d))
        if q.requires_grad:
            _accum(q, gq.reshape(t_q, d))
        if k.requires_grad:
            _accum(k, gk.reshape(n_rows, d))

    return Tensor._from_op(out_data, (q, k, v), backward, "causal_attention")
