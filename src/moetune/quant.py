"""Blockwise symmetric 4-bit quantization and the 4-bit Adam optimizer.

Matrices are flattened row-major and split into fixed-size blocks; each
block stores one f32 scale (absmax/7) and one 4-bit code per element.
Codes are unsigned 0..14 with value = (code - 7) * scale, so the grid is
15 symmetric levels and reconstruction error is bounded by scale/2.

The 4-bit Adam keeps all its moments in one AdamState: two 1 x end such
matrices, m and v, and a step count per parameter. Each parameter is a
segment of the flat layout, padded to whole blocks and to a whole byte of
codes, so no block straddles two parameters; a pad holds code 7, which
reads 0 and which Adam keeps at 0. So every code and scale is the one a
pass over that parameter alone computes. A step gathers the segments of
the parameters that have a gradient, updates them in one vectorized pass
and writes their codes and scales back. A parameter without a gradient
keeps its value, moments and step count, and bias-corrects with its own
count when it next has one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionError, FormatError, NumericError,
                     check_rules, check_type, is_count, is_number)
from .tensor import Tensor, matmul

DEFAULT_BLOCK_SIZE = 64


def _n_blocks(n: int, block_size: int) -> int:
    return (n + block_size - 1) // block_size


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes two per byte, low nibble first; odd tail pads 0."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    packed = codes[1::2] << 4
    packed |= codes[0::2]
    return packed


def _unpack_codes(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack_codes for the first n codes."""
    packed = np.asarray(packed, dtype=np.uint8)
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = packed & 0x0F
    out[1::2] = packed >> 4
    return out[:n]


@dataclass(frozen=True, eq=False)
class QuantizedMatrix:
    """Immutable blockwise 4-bit matrix: packed codes plus per-block scales.

    It is frozen, and its codes and scales are made read-only when it is
    built: the f32 copy `dequant` keeps, and the base a checkpoint save
    computes once per model, both rely on a matrix never changing. Two
    matrices are equal only when they are the same object.
    """

    rows: int
    cols: int
    block_size: int
    codes: np.ndarray   # uint8, ceil(rows*cols / 2) bytes
    scales: np.ndarray  # f32, ceil(rows*cols / block_size) entries

    def __post_init__(self):
        self.codes.setflags(write=False)
        self.scales.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    def dequant(self) -> np.ndarray:
        """The f32 matrix, read-only: `dequantize` of it, run at the first
        call and kept."""
        return self._f32

    @functools.cached_property
    def _f32(self) -> np.ndarray:
        w = dequantize(self)
        w.setflags(write=False)
        return w


def quantize_4bit(m: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedMatrix:
    """Quantize a 2-D f32 matrix blockwise with absmax/7 scaling.

    Per block: scale = absmax/7, code = clamp(round_half_away(v/scale), -7, 7) + 7.
    An all-zero block gets scale 0 and codes 7 (exact round trip). An `m`
    that is not a 2-D array of numbers, or a block_size that is not an
    int >= 1, is a DimensionError.
    """
    try:
        m = np.asarray(m, dtype=np.float32)
    except (TypeError, ValueError):  # not numbers
        raise DimensionError(f"quantize_4bit expects a 2-D matrix of "
                             f"numbers, got {type(m).__name__}") from None
    if m.ndim != 2:
        raise DimensionError(f"quantize_4bit expects a 2-D matrix, got {m.shape}")
    if not is_count(block_size, 1):
        raise DimensionError(f"block_size must be an int >= 1, got "
                             f"{block_size!r}")
    if not np.all(np.isfinite(m)):
        raise NumericError("quantize_4bit: input contains NaN/Inf")

    rows, cols = m.shape
    flat = m.reshape(-1)
    n = flat.size
    n_blocks = _n_blocks(n, block_size)

    padded = np.zeros(n_blocks * block_size, dtype=np.float32)
    padded[:n] = flat
    codes, scales = _quantize_blocks(padded.reshape(n_blocks, block_size))
    return QuantizedMatrix(rows, cols, block_size,
                           _pack_codes(codes.reshape(-1)[:n]), scales)


def _quantize_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes (uint8, the shape of `blocks`) and per-row scales of finite f32
    blocks [n_blocks, block_size], as quantize_4bit defines them."""
    absmax = np.abs(blocks).max(axis=1).astype(np.float64)
    scales = (absmax / 7.0).astype(np.float32)
    # Canonicalize so quantize(dequantize(q)) reproduces the scale bitwise:
    # the requantized absmax is f32(7*scale), so snap scale to the fixed
    # point of s -> f32(f64(f32(7*s)) / 7) (idempotent after one step).
    scales = ((np.float32(7.0) * scales).astype(np.float64) / 7.0).astype(np.float32)
    # Ratio against the exact absmax/7 in f64 keeps ties (e.g. 3.5) exact.
    # It lies in [-7, 7]: 7*v is exact, |v| <= absmax and division rounds
    # monotonically; an all-zero block divides by 1 and gives code 7.
    ratio = np.multiply(blocks, 7.0, dtype=np.float64)
    ratio /= np.where(absmax > 0, absmax, 1.0)[:, None]
    # round half away from zero: r + copysign(0.5, r), truncated by the cast
    rounded = np.copysign(0.5, ratio)
    rounded += ratio
    codes = rounded.astype(np.int8)
    codes += 7
    return codes.view(np.uint8), scales


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Reconstruct value = (code - 7) * block_scale, shape restored."""
    n = q.n_elements
    expected_bytes = (n + 1) // 2
    if q.codes.size != expected_bytes:
        raise FormatError(
            f"packed codes length {q.codes.size} != expected {expected_bytes}")
    n_blocks = _n_blocks(n, q.block_size)
    if q.scales.size != n_blocks:
        raise FormatError(f"scale count {q.scales.size} != expected {n_blocks}")
    codes = _unpack_codes(q.codes, n)
    if codes.max(initial=0) > 14:
        raise FormatError("corrupt packing: code value 15 is not in the codebook")
    values = codes.astype(np.float32)
    values -= 7.0
    full = n // q.block_size
    blocks = values[:full * q.block_size].reshape(full, q.block_size)
    blocks *= q.scales[:full, None]
    values[full * q.block_size:] *= q.scales[full:]  # a partial last block
    return values.reshape(q.rows, q.cols)


def qmatmul(x: Tensor, q: QuantizedMatrix, adapter=None,
            rng: np.random.Generator | None = None) -> Tensor:
    """x [m,k] times a quantized [k,n] matrix, plus an optional LoRA adapter.

    Without an adapter this runs `matmul(x, dequantize(q))`, so the result
    is bitwise equal to it. With one it runs `adapter.project` on the
    dequantized kernel: one `lora_linear` op, with dropout only when `rng`
    is given. The quantized side is frozen; gradient flows to x and the
    adapter.
    """
    if x.data.ndim != 2 or x.data.shape[1] != q.rows:
        raise DimensionError(f"qmatmul: {x.data.shape} x {q.shape}")
    w = Tensor(q.dequant())
    if adapter is None:
        return matmul(x, w)
    return adapter.project(x, w, rng)


# ---------------------------------------------------------------------------
# 4-bit Adam


def adam_rules(config) -> list[tuple[str, str, bool]]:
    """The rules on `config`'s beta1, beta2 and eps that keep Adam finite."""
    b1, b2, eps = config.beta1, config.beta2, config.eps
    return [("beta1", "in [0, 1)", is_number(b1) and 0 <= b1 < 1),
            ("beta2", "in [0, 1)", is_number(b2) and 0 <= b2 < 1),
            ("eps", "a number > 0", is_number(eps) and eps > 0)]


def flat_offsets(sizes, block_size: int) -> list[int]:
    """The start of each parameter's segment of the flat layout, then its
    end: segments are padded to whole blocks and whole bytes of codes."""
    unit = block_size * (1 + block_size % 2)
    return [0, *itertools.accumulate(_n_blocks(n, unit) * unit for n in sizes)]


@dataclass
class AdamState:
    """The parameters' names, sizes and update counts, in order, and their
    moments m and v: parameter i holds elements offsets[i] to offsets[i] +
    sizes[i] of each, offsets = flat_offsets(sizes, m.block_size)."""

    names: list[str]
    sizes: list[int]
    steps: list[int]
    m: QuantizedMatrix
    v: QuantizedMatrix

    @classmethod
    def zeros(cls, params: dict[str, Tensor]) -> "AdamState":
        """quantize_4bit of zero moments, and zero steps, for `params`."""
        sizes, bs = [t.data.size for t in params.values()], DEFAULT_BLOCK_SIZE
        end = flat_offsets(sizes, bs)[-1]
        # one matrix serves as m and v: no pass writes a moment in place
        zero = QuantizedMatrix(1, end, bs, np.full(end // 2, 0x77, np.uint8),
                               np.zeros(end // bs, dtype=np.float32))
        return cls(list(params), sizes, [0] * len(sizes), zero, zero)

    def mismatch(self, params: dict[str, Tensor]) -> str | None:
        """None when the state holds `params`, the same names and sizes in
        the same order; otherwise the first difference."""
        want = [(name, t.data.size) for name, t in params.items()]
        for i, (h, w) in enumerate(itertools.zip_longest(
                zip(self.names, self.sizes), want)):
            if h != w:
                return (f"holds {h} at position {i} where the parameters "
                        f"have {w}")
        return None


def _adam_pass(state: AdamState, params: list[Tensor], lr: float,
               beta1: float, beta2: float, eps: float,
               max_norm: float) -> float:
    """One Adam step for every parameter of `state` that has a gradient, on
    the gradients scaled by f32(max_norm / (norm + 1e-6)) when their global
    norm, the sum of each one's f64 sum of squares in parameter order,
    exceeds `max_norm`; returns that norm. The grads stay as given.

    Their segments are gathered by whole units into one flat buffer, each
    bias-corrected with its own step count. A non-finite gradient or moment
    raises NumericError before anything is written; otherwise each such
    param is updated in place, and m and v become copies with new codes and
    scales in those units (the matrices are never written in place).
    """
    bs = state.m.block_size
    unit = bs * (1 + bs % 2)
    seg = np.diff(flat_offsets(state.sizes, bs))
    has_grad = [t.grad is not None for t in params]
    live = np.flatnonzero(has_grad)
    keep = np.repeat(has_grad, seg // unit)  # the units of live segments
    seg = seg[live]
    starts = np.cumsum(seg) - seg
    names = [state.names[i] for i in live]
    g = np.zeros(seg.sum(), dtype=np.float32)
    norm = 0.0
    for i, lo in zip(live, starts):
        grad = params[i].grad
        if grad.size != state.sizes[i]:
            raise DimensionError(f"{state.names[i]}: grad holds {grad.size} "
                                 f"elements, the parameter {state.sizes[i]}")
        part = g[lo:lo + grad.size]
        part[:] = grad.reshape(-1)
        # f32 squares are exact in f64; each segment's sum skips its pad
        norm += float(np.square(part, dtype=np.float64).sum())
    g = g.reshape(-1, bs)
    finite = np.isfinite(g)
    if not finite.all():
        raise NumericError(f"4-bit Adam: non-finite gradient for "
                           f"{_first_false(finite, names, starts)}")
    norm = math.sqrt(norm)
    if norm > max_norm:
        g *= np.float32(max_norm / (norm + 1e-6))
    # a pad reads 0, as quantize_4bit pads, and Adam keeps it at 0 (code 7),
    # so every code and scale is the one a pass over its parameter computes
    m, v = _gather(state.m, keep, unit), _gather(state.v, keep, unit)

    # Adam's f32 arithmetic in the per-tensor order, in place:
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g,
    # update = lr (m / c1) / (sqrt(v / c2) + eps), where each segment's bias
    # correction c = 1 - b**t rounds to f32 as a python float operand does
    m *= beta1
    buf = (1.0 - beta1) * g
    m += buf
    np.multiply(1.0 - beta2, g, out=buf)
    buf *= g
    v *= beta2
    v += buf
    if not (np.isfinite(m).all() and np.isfinite(v).all()):
        finite = np.isfinite(m) & np.isfinite(v)
        raise NumericError(f"4-bit Adam: non-finite moment for "
                           f"{_first_false(finite, names, starts)}")
    c1, c2 = (np.repeat(np.array([1.0 - b ** (state.steps[i] + 1)
                                  for i in live], dtype=np.float32),
                        seg // bs)[:, None] for b in (beta1, beta2))
    denom = np.divide(v, c2, out=g)
    np.sqrt(denom, out=denom)
    denom += eps
    update = np.divide(m, c1, out=buf)
    update *= lr
    update /= denom
    update = update.reshape(-1)

    for i, lo in zip(live, starts):
        param = params[i].data
        param -= update[lo:lo + param.size].reshape(param.shape)
        state.steps[i] += 1
    state.m, state.v = (_put(state.m, keep, unit, m),
                        _put(state.v, keep, unit, v))
    return norm


def _gather(q: QuantizedMatrix, keep: np.ndarray, unit: int) -> np.ndarray:
    """The blocks of flat matrix `q` in the units `keep` marks, dequantized."""
    codes = q.codes.reshape(-1, unit // 2)[keep].reshape(-1)
    scales = q.scales.reshape(-1, unit // q.block_size)[keep].reshape(-1)
    return dequantize(QuantizedMatrix(1, 2 * codes.size, q.block_size, codes,
                                      scales)).reshape(-1, q.block_size)


def _put(q: QuantizedMatrix, keep: np.ndarray, unit: int,
         blocks: np.ndarray) -> QuantizedMatrix:
    """A copy of flat matrix `q` whose units that `keep` marks hold
    `blocks`, as _gather lays them out, quantized."""
    codes, scales = _quantize_blocks(blocks)
    out_codes, out_scales = q.codes.copy(), q.scales.copy()
    for a, new, width in ((out_codes, _pack_codes(codes.reshape(-1)), unit // 2),
                          (out_scales, scales, unit // q.block_size)):
        a.reshape(-1, width)[keep] = new.reshape(-1, width)
    # wrapped once filled: a QuantizedMatrix makes its arrays read-only
    return QuantizedMatrix(1, q.cols, q.block_size, out_codes, out_scales)


def _first_false(finite: np.ndarray, names: list[str], starts) -> str:
    """Name of the segment that holds the first False of `finite`."""
    return names[np.searchsorted(starts, np.argmin(finite), "right") - 1]


class QuantizedAdam:
    """Adam over named f32 tensors with 4-bit moment storage.

    `state` is one AdamState over `params`, in their order. `step` clips the
    gradients to one global norm and updates the parameters that have one,
    and their moments (see _adam_pass), bitwise as a loop that clips, then
    per parameter dequantizes both moments, updates the param and
    requantizes them. Params that are not a dict of Tensors, betas outside
    [0, 1), an eps or max_norm that is not a number > 0, an lr that is not
    a finite number >= 0 and a state of other parameters are ConfigErrors;
    a non-finite gradient or moment is a NumericError that changes nothing.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        check_type("params", params, dict)
        for name, t in params.items():
            check_type(f"param {name!r}", t, Tensor)
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        check_rules(self, adam_rules(self))
        self.state = AdamState.zeros(params)

    def step(self, lr: float, max_norm: float = math.inf) -> float:
        """Apply one update at `lr` to every parameter that has a gradient,
        clipped to a global norm of `max_norm`; returns the norm before
        clipping (0.0 when no parameter has a gradient)."""
        if not (is_number(lr) and 0 <= lr < math.inf):  # NaN fails it
            raise ConfigError(f"lr must be a finite number >= 0, got {lr!r}")
        if not (is_number(max_norm) and max_norm > 0):
            raise ConfigError(f"max_norm must be a number > 0, got "
                              f"{max_norm!r}")
        why = self.state.mismatch(self.params)
        if why is not None:
            raise ConfigError(f"optimizer state {why}")
        params = list(self.params.values())
        if all(t.grad is None for t in params):
            return 0.0
        return _adam_pass(self.state, params, lr, self.beta1, self.beta2,
                          self.eps, max_norm)
