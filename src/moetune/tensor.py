"""Dense f32 tensors with tape-based reverse-mode automatic differentiation.

Every operation records its inputs and a backward closure on the output
tensor; ``Tensor.backward()`` traces the graph into a topologically ordered
tape and replays it in reverse, accumulating gradients into ``.grad``.
Forward outputs are checked for NaN/Inf: overflow raises instead of
propagating silently. The matmul and the attention run on BLAS, forward
and backward. BLAS repeats its arithmetic exactly for a given shape and
thread count, so values and gradients are bit-reproducible run to run. The
matmul and attention forwards call it only on fixed-shape tiles, so an
output row is also bitwise the same whatever the other rows of the call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    EmptyMaskError,
    NumericError,
    RankError,
    VocabError,
)

DTYPE = np.float32

# Rows per BLAS call in the matmul forward. Every call multiplies a
# [TILE, K] block, so the result of a row never depends on how many rows the
# caller passed; changing TILE changes every forward value at the ulp level.
TILE = 8

# Keys per block in the attention forward. Blocks start at key position 0,
# so a row meets the same blocks whatever T_k is; changing KEY_BLOCK changes
# every attention value at the ulp level.
KEY_BLOCK = 64

# When on, every op output is checked for NaN/Inf and a non-finite value
# raises NumericError at the op that produced it, instead of surfacing later
# as a NaN loss. On by default; the tests rely on it being on.
FINITE_CHECKS = True


def _check_finite(arr: np.ndarray, op: str) -> None:
    if FINITE_CHECKS and not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


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
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
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
        """Populate ``.grad`` on every reachable tensor with requires_grad.

        The tape lists every reachable tensor with inputs before users, so
        the reverse sweep visits each node exactly once with its output
        gradient fully accumulated.
        """
        if self.data.shape != ():
            raise RankError(
                f"backward requires a scalar loss, got shape {self.data.shape}")
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
        for node in reversed(tape):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``, allocating zeros on first touch."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} != {b.data.shape}")
    with np.errstate(over="ignore"):
        out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor._from_op(out_data, (a, b), backward, "mul")


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
    (t, k), n = a.data.shape, b.data.shape[1]
    n_tiles = -(-t // TILE)
    xp = np.zeros((n_tiles * TILE, k), dtype=a.data.dtype)
    xp[:t] = a.data
    out_data = (xp.reshape(n_tiles, TILE, k) @ b.data).reshape(-1, n)[:t]

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    return Tensor._from_op(out_data, (a, b), backward, "matmul")


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(a, np.full_like(a.data, g))

    return Tensor._from_op(out_data, (a,), backward, "sum")


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: ids (length T) -> [T, d]. Gradient scatter-adds by id."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"embedding ids must be 1-D, got {ids.shape}")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise VocabError(f"token id out of range [0, {vocab})")
    out_data = table.data[ids]

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return Tensor._from_op(out_data, (table,), backward, "embedding")


def index_rows(x: Tensor, idx) -> Tensor:
    """Gather rows x[idx]; backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.int64)
    out_data = x.data[idx]

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, idx, g)

    return Tensor._from_op(out_data, (x,), backward, "index_rows")


def scatter_rows(y: Tensor, idx, n_rows: int) -> Tensor:
    """Place rows of y at positions idx in a zero [n_rows, d] tensor.

    idx must be unique (each destination written once).
    """
    idx = np.asarray(idx, dtype=np.int64)
    out_data = np.zeros((n_rows,) + y.data.shape[1:], dtype=y.data.dtype)
    out_data[idx] = y.data

    def backward(g: np.ndarray) -> None:
        _accum(y, g[idx])

    return Tensor._from_op(out_data, (y,), backward, "scatter_rows")


def gather_column(x: Tensor, row_idx, col: int) -> Tensor:
    """Pick x[row_idx, col] as an [n, 1] column tensor."""
    row_idx = np.asarray(row_idx, dtype=np.int64)
    out_data = x.data[row_idx, col][:, None].copy()

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            np.add.at(x.grad, (row_idx, col), g[:, 0])

    return Tensor._from_op(out_data, (x,), backward, "gather_column")


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """Multiply each row of x [n, d] by the scalar s[i] from s [n, 1]."""
    if s.data.shape != (x.data.shape[0], 1):
        raise DimensionError(
            f"scale_rows: scales {s.data.shape} vs rows {x.data.shape}")
    out_data = x.data * s.data

    def backward(g: np.ndarray) -> None:
        _accum(x, g * s.data)
        if s.requires_grad:
            _accum(s, (g * x.data).sum(axis=1, keepdims=True))

    return Tensor._from_op(out_data, (x, s), backward, "scale_rows")


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with a caller-supplied generator (training only)."""
    if not 0.0 <= p < 1.0:
        raise DimensionError(f"dropout p must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    factor = x.data.dtype.type(1.0 / (1.0 - p))
    out_data = x.data * keep * factor

    def backward(g: np.ndarray) -> None:
        _accum(x, g * keep * factor)

    return Tensor._from_op(out_data, (x,), backward, "dropout")


# ---------------------------------------------------------------------------
# Activations and normalization


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow at either tail)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    out_data = x.data * sig

    def backward(g: np.ndarray) -> None:
        _accum(x, g * sig * (1.0 + x.data * (1.0 - sig)))

    return Tensor._from_op(out_data, (x,), backward, "silu")


def rms_norm(x: Tensor, weight: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise RMS normalization with learned gain: y = x / rms(x) * w."""
    if x.data.ndim != 2 or weight.data.shape != (x.data.shape[1],):
        raise DimensionError(
            f"rms_norm: x {x.data.shape} vs weight {weight.data.shape}")
    d = x.data.shape[1]
    # accumulate in f64: squaring near-f32-max activations must not overflow
    x64 = x.data.astype(np.float64)
    ms = (x64 * x64).mean(axis=1, keepdims=True)
    inv = (1.0 / np.sqrt(ms + eps)).astype(x.data.dtype)
    xhat = x.data * inv
    out_data = xhat * weight.data

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accum(weight, (g * xhat).sum(axis=0))
        if x.requires_grad:
            gw = g * weight.data
            # d/dx of x*inv: inv*gw - x * inv^3/d * sum(gw*x)
            dot = (gw * x.data).sum(axis=1, keepdims=True)
            _accum(x, inv * gw - x.data * (inv ** 3) * dot / d)

    return Tensor._from_op(out_data, (x, weight), backward, "rms_norm")


# ---------------------------------------------------------------------------
# Softmax family


def _stable_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    value or the gradient.
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
    n_masked = float(mask_arr.sum())
    if n_masked <= 0:
        raise EmptyMaskError("masked_cross_entropy: mask selects no positions")

    row_max = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - row_max
    lse = np.log(np.exp(shifted).sum(axis=1)) + row_max[:, 0]
    picked = logits.data[np.arange(t_count), targets]
    per_pos = lse - picked
    loss = (per_pos * mask_arr).sum() / n_masked
    out_data = np.asarray(loss, dtype=logits.data.dtype)

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            soft = _stable_softmax(logits.data)
            soft[np.arange(t_count), targets] -= 1.0
            coef = (mask_arr / n_masked)[:, None] * g
            _accum(logits, soft * coef)

    return Tensor._from_op(out_data, (logits,), backward, "masked_cross_entropy")


# ---------------------------------------------------------------------------
# Attention kernels


def rotary(x: Tensor, n_heads: int, base: float = 10000.0,
           offset: int = 0) -> Tensor:
    """Rotary position embedding applied per head to [T, d].

    Row t sits at position offset + t, so rotary(x[s:], offset=s) equals
    rotary(x)[s:] bitwise; a decoder with a key/value cache passes the
    number of cached positions. Within each head, consecutive (even, odd)
    channel pairs are rotated by angle pos * base^(-2i/head_dim). The
    transform is orthogonal, so the backward pass applies the inverse
    rotation to the gradient.
    """
    t_len, d = x.data.shape
    if d % n_heads != 0:
        raise DimensionError(f"d_model {d} not divisible by n_heads {n_heads}")
    hd = d // n_heads
    if hd % 2 != 0:
        raise DimensionError(f"head_dim {hd} must be even for rotary pairs")
    inv_freq = base ** (-np.arange(0, hd, 2, dtype=np.float64) / hd)
    positions = np.arange(offset, offset + t_len, dtype=np.float64)
    angles = positions[:, None] * inv_freq[None, :]
    cos = np.cos(angles).astype(x.data.dtype)  # [T, hd/2]
    sin = np.sin(angles).astype(x.data.dtype)

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


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head softmax(QKᵀ/√hd + causal mask)·V.

    q is [T_q, d]; k and v are [T_k, d] with T_k >= T_q. The queries are the
    last T_q of the T_k positions, so query row i attends to key positions
    <= T_k - T_q + i. With T_k == T_q this is plain causal self-attention;
    with T_k > T_q the keys and values of the earlier positions come from a
    cache. Heads are contiguous channel slices; outputs are concatenated
    back to [T_q, d].

    The forward runs on fixed-shape BLAS tiles: the key-block tiling of
    FlashAttention under the batch-invariance rule of `matmul`. Queries,
    pre-scaled by 1/√hd, go in zero-padded tiles of TILE rows; keys and
    values are zero-padded into blocks of KEY_BLOCK positions anchored at
    key position 0, not at T_k. Every score product is a [TILE, hd] @
    [hd, KEY_BLOCK] gemm and every value product a [TILE, KEY_BLOCK] @
    [KEY_BLOCK, hd] gemm, whatever T_q and T_k are. Each row takes its max
    over its unmasked keys, sums each block's KEY_BLOCK exponentials, then
    adds up the block sums, and later the blocks' value products, left to
    right; the blocks past its position contribute exact zeros. A row's
    arithmetic thus depends only on its position and on the inputs up to
    it, so a cached decode row and every prefix are bitwise equal to the
    matching rows of the full forward. The guarantee rests on the BLAS and
    is checked empirically by tests/test_tensor.py.

    The backward carries no prefix guarantee. It reads the [H, T_q, T_k]
    attention weights back from the tiles and runs its four contractions
    as batched BLAS products over the heads.
    """
    t_q, d = q.data.shape
    t_k = k.data.shape[0]
    if k.data.shape != (t_k, d) or v.data.shape != (t_k, d) or t_k < t_q:
        raise DimensionError(
            f"attention needs q [T_q, d] and k, v [T_k, d] with T_k >= T_q; "
            f"got {q.data.shape} {k.data.shape} {v.data.shape}")
    if d % n_heads != 0:
        raise DimensionError(f"d_model {d} not divisible by n_heads {n_heads}")
    hd = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(hd)
    dtype = q.data.dtype
    n_qt, n_kb = -(-t_q // TILE), -(-t_k // KEY_BLOCK)
    tq_pad, tk_pad = n_qt * TILE, n_kb * KEY_BLOCK

    qp = np.zeros((tq_pad, d), dtype=dtype)
    np.multiply(q.data, dtype.type(inv_sqrt), out=qp[:t_q])
    kp = np.zeros((tk_pad, d), dtype=dtype)
    kp[:t_k] = k.data
    vp = np.zeros((tk_pad, d), dtype=dtype)
    vp[:t_k] = v.data
    # strided views whose last two axes are one head's BLAS operand
    q_tiles = qp.reshape(n_qt, TILE, n_heads, hd).transpose(2, 0, 1, 3)
    k_blocks = kp.reshape(n_kb, KEY_BLOCK, n_heads, hd).transpose(2, 0, 3, 1)
    v_blocks = vp.reshape(n_kb, KEY_BLOCK, n_heads, hd).transpose(2, 0, 1, 3)

    # The score gemms write their [TILE, KEY_BLOCK] tiles straight into the
    # [H, T_q, T_k] layout that the softmax and the backward read.
    attn = np.empty((n_heads, tq_pad, tk_pad), dtype=dtype)
    a_tiles = attn.reshape(n_heads, n_qt, TILE, n_kb, KEY_BLOCK)
    a_tiles = a_tiles.transpose(0, 1, 3, 2, 4)  # [H, q tile, k block, ...]
    np.matmul(q_tiles[:, :, None], k_blocks[:, None], out=a_tiles)
    q_pos = t_k - t_q + np.arange(tq_pad)
    np.copyto(attn, -np.inf, where=np.arange(tk_pad) > q_pos[:, None])
    attn -= attn.max(axis=2, keepdims=True)
    np.exp(attn, out=attn)
    # An explicit loop, not np.sum over the block axis: numpy sums 8 or more
    # blocks pairwise, in an order that depends on the number of blocks.
    block_sums = attn.reshape(n_heads, tq_pad, n_kb, KEY_BLOCK).sum(axis=3)
    total = block_sums[:, :, 0].copy()
    for b in range(1, n_kb):
        total += block_sums[:, :, b]
    attn /= total[:, :, None]
    pv = a_tiles @ v_blocks[:, None]  # [H, q tile, k block, TILE, hd]
    out_h = pv[:, :, 0].copy()
    for b in range(1, n_kb):
        out_h += pv[:, :, b]
    out_data = (out_h.reshape(n_heads, tq_pad, hd)[:, :t_q]
                .transpose(1, 0, 2).reshape(t_q, d))
    attn = attn[:, :t_q, :t_k]

    def backward(g: np.ndarray) -> None:
        qh = q.data.reshape(t_q, n_heads, hd).transpose(1, 0, 2)
        kh = k.data.reshape(t_k, n_heads, hd).transpose(1, 0, 2)
        vh = v.data.reshape(t_k, n_heads, hd).transpose(1, 0, 2)
        gh = g.reshape(t_q, n_heads, hd).transpose(1, 0, 2)
        if v.requires_grad:
            gv = attn.transpose(0, 2, 1) @ gh
            _accum(v, gv.transpose(1, 0, 2).reshape(t_k, d))
        da = gh @ vh.transpose(0, 2, 1)
        # softmax backward; masked entries have attn == 0, so ds == 0 there
        dot = (da * attn).sum(axis=2, keepdims=True)
        ds = attn * (da - dot) * inv_sqrt
        if q.requires_grad:
            gq = ds @ kh
            _accum(q, gq.transpose(1, 0, 2).reshape(t_q, d))
        if k.requires_grad:
            gk = ds.transpose(0, 2, 1) @ qh
            _accum(k, gk.transpose(1, 0, 2).reshape(t_k, d))

    return Tensor._from_op(out_data, (q, k, v), backward, "causal_attention")
