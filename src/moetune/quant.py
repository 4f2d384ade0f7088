"""Blockwise symmetric 4-bit quantization and the 4-bit Adam optimizer.

Matrices are flattened row-major and split into fixed-size blocks; each
block stores one f32 scale (absmax/7) and one 4-bit code per element.
Codes are unsigned 0..14 with value = (code - 7) * scale, so the grid is
15 symmetric levels and reconstruction error is bounded by scale/2.

The 4-bit Adam keeps each parameter's moments as two such 1 x n matrices
plus its own step count. One step updates every parameter that has a
gradient in one vectorized pass. The live parameters are laid end to end in
a flat buffer, each padded with zeros to whole blocks, so no block straddles
two parameters and every code and scale is the one a pass over that
parameter alone computes; each parameter's new moments are views of the
pass's packed codes and scales. A parameter without a gradient is skipped:
it keeps its value, moments and step count, and bias-corrects with its own
count when it next has a gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, NumericError
from .tensor import Tensor, matmul

DEFAULT_BLOCK_SIZE = 64


def _n_blocks(n: int, block_size: int) -> int:
    return (n + block_size - 1) // block_size


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes two per byte, low nibble first; odd tail pads 0."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    packed = codes[1::2] << 4
    packed |= codes[0::2]
    return packed


def unpack_codes(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_codes for the first n codes."""
    packed = np.asarray(packed, dtype=np.uint8)
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = packed & 0x0F
    out[1::2] = packed >> 4
    return out[:n]


@dataclass
class QuantizedMatrix:
    """Immutable blockwise 4-bit matrix: packed codes plus per-block scales."""

    rows: int
    cols: int
    block_size: int
    codes: np.ndarray   # uint8, ceil(rows*cols / 2) bytes
    scales: np.ndarray  # f32, ceil(rows*cols / block_size) entries
    _dequant_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    def dequant(self) -> np.ndarray:
        """Reconstruct the f32 matrix; cached, the matrix is immutable."""
        if self._dequant_cache is None:
            self._dequant_cache = dequantize(self)
        return self._dequant_cache


def quantize_4bit(m: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> QuantizedMatrix:
    """Quantize a 2-D f32 matrix blockwise with absmax/7 scaling.

    Per block: scale = absmax/7, code = clamp(round_half_away(v/scale), -7, 7) + 7.
    An all-zero block gets scale 0 and codes 7 (exact round trip).
    """
    m = np.asarray(m, dtype=np.float32)
    if m.ndim != 2:
        raise DimensionError(f"quantize_4bit expects a 2-D matrix, got {m.shape}")
    if block_size < 1:
        raise DimensionError(f"block_size must be >= 1, got {block_size}")
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
                           pack_codes(codes.reshape(-1)[:n]), scales)


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
    codes = unpack_codes(q.codes, n)
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


@dataclass
class QuantizedOptimState:
    """Per-parameter Adam moments held as 4-bit block arrays plus a step count."""

    m: QuantizedMatrix
    v: QuantizedMatrix
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "QuantizedOptimState":
        return cls(m=_zeros_flat(n), v=_zeros_flat(n))


def _zeros_flat(n: int) -> QuantizedMatrix:
    """quantize_4bit(np.zeros((1, n))), built directly: every block gets
    scale 0 and every code 7; for odd n the last byte's high nibble is the
    0 that pack_codes pads with."""
    codes = np.full((n + 1) // 2, 0x77, dtype=np.uint8)
    if n % 2:
        codes[-1] = 0x07
    return QuantizedMatrix(1, n, DEFAULT_BLOCK_SIZE, codes, np.zeros(
        _n_blocks(n, DEFAULT_BLOCK_SIZE), dtype=np.float32))


def _adam_pass(live: list[tuple[str, np.ndarray, np.ndarray,
                                QuantizedOptimState]],
               lr: float, beta1: float, beta2: float, eps: float,
               max_norm: float) -> float:
    """One Adam step for every (name, param, grad, state) in `live`, on the
    gradients scaled by f32(max_norm / (norm + 1e-6)) when their global
    norm, the sum of each segment's f64 sum of squares in `live` order,
    exceeds `max_norm`; returns that norm. The grads in `live` stay as given.

    The segments are laid end to end in one flat buffer of whole blocks,
    each padded to a multiple of the block size (and of 2, so that every
    segment starts on a byte of packed codes). No block straddles two
    segments, and pad values are zero like quantize_4bit's, so every code
    and scale is the one a pass over that parameter alone computes. Each
    segment bias-corrects with its own step count. A non-finite gradient
    or moment raises NumericError before anything is written; otherwise
    every param is updated in place and every state gets views of this
    pass's new codes and scales, which are never written again.
    """
    bs = live[0][3].m.block_size
    unit = bs * (1 + bs % 2)
    offsets, pads = [], []
    g_parts, m_codes, m_scales, v_codes, v_scales = [], [], [], [], []
    c1, c2, seg_blocks = [], [], []
    end = 0
    for name, param, grad, st in live:
        n = param.size
        if grad.size != n or st.m.n_elements != n or st.v.n_elements != n:
            raise DimensionError(
                f"{name}: param, grad and moments differ in size: {n}, "
                f"{grad.size}, {st.m.n_elements}, {st.v.n_elements}")
        if st.m.block_size != bs or st.v.block_size != bs:
            raise DimensionError(f"{name}: moments are not in blocks of {bs}")
        seg = _n_blocks(n, unit) * unit
        offsets.append(end)
        g_parts.append(np.asarray(grad, dtype=np.float32).reshape(-1))
        m_codes.append(st.m.codes)
        v_codes.append(st.v.codes)
        m_scales.append(st.m.scales)
        v_scales.append(st.v.scales)
        if seg > n:
            pads.append((end + n, end + seg))
            g_parts.append(np.zeros(seg - n, dtype=np.float32))
            byte_pad = np.zeros(seg // 2 - (n + 1) // 2, dtype=np.uint8)
            scale_pad = np.zeros(seg // bs - _n_blocks(n, bs), dtype=np.float32)
            m_codes.append(byte_pad)
            v_codes.append(byte_pad)
            m_scales.append(scale_pad)
            v_scales.append(scale_pad)
        t = st.step + 1
        c1.append(1.0 - beta1 ** t)
        c2.append(1.0 - beta2 ** t)
        seg_blocks.append(seg // bs)
        end += seg

    g = np.concatenate(g_parts).reshape(-1, bs)
    finite = np.isfinite(g)
    if not finite.all():
        raise NumericError(f"4-bit Adam: non-finite gradient for "
                           f"{_first_false(finite, live, offsets)}")
    # f32 squares are exact in f64; each segment's sum skips its pad
    squares = np.square(g.reshape(-1), dtype=np.float64)
    norm = 0.0
    for (_, param, _, _), lo in zip(live, offsets):
        norm += float(squares[lo:lo + param.size].sum())
    norm = math.sqrt(norm)
    if norm > max_norm:
        g *= np.float32(max_norm / (norm + 1e-6))
    m, v = (dequantize(QuantizedMatrix(1, end, bs, np.concatenate(codes),
                                       np.concatenate(scales))).reshape(-1, bs)
            for codes, scales in ((m_codes, m_scales), (v_codes, v_scales)))
    for lo, hi in pads:  # a pad code, or an odd tail's 0 nibble, reads -7
        m.reshape(-1)[lo:hi] = 0.0
        v.reshape(-1)[lo:hi] = 0.0

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
                           f"{_first_false(finite, live, offsets)}")
    c1, c2 = (np.repeat(np.array(c, dtype=np.float32), seg_blocks)[:, None]
              for c in (c1, c2))
    denom = np.divide(v, c2, out=g)
    np.sqrt(denom, out=denom)
    denom += eps
    update = np.divide(m, c1, out=buf)
    update *= lr
    update /= denom
    update = update.reshape(-1)

    (mq, ms), (vq, vs) = _quantize_blocks(m), _quantize_blocks(v)
    for lo, hi in pads:  # pack_codes pads an odd tail with code 0
        mq.reshape(-1)[lo:hi] = 0
        vq.reshape(-1)[lo:hi] = 0
    mq, vq = pack_codes(mq.reshape(-1)), pack_codes(vq.reshape(-1))
    for (_, param, _, st), lo in zip(live, offsets):
        n = param.size
        param -= update[lo:lo + n].reshape(param.shape)
        nbytes = slice(lo // 2, lo // 2 + (n + 1) // 2)
        nblocks = slice(lo // bs, lo // bs + _n_blocks(n, bs))
        st.m = QuantizedMatrix(1, n, bs, mq[nbytes], ms[nblocks])
        st.v = QuantizedMatrix(1, n, bs, vq[nbytes], vs[nblocks])
        st.step += 1
    return norm


def _first_false(finite: np.ndarray, live, offsets) -> str:
    """Name of the segment that holds the first False of `finite`."""
    first = int(np.argmin(finite.reshape(-1)))
    return next(name for (name, *_), lo in zip(reversed(live),
                                                reversed(offsets))
                if lo <= first)


class QuantizedAdam:
    """Adam over named f32 tensors with 4-bit moment storage.

    `state` maps each name to its own QuantizedOptimState. `step` runs one
    pass over the parameters that have a gradient (see _adam_pass): it
    clips their gradients to one global norm, and each is a segment of one
    flat buffer, padded to whole blocks, whose new moments are views of
    that pass's codes and scales. A parameter without a gradient keeps its
    value, moments (views of the last pass that updated it) and step count;
    its next update bias-corrects with its own count. Values, codes and
    scales are bitwise those of a loop that clips the gradients, then, per
    parameter, dequantizes both moments, updates the param and requantizes
    the moments. An lr that is not a finite number >= 0 is a ConfigError,
    a non-finite gradient or moment a NumericError that changes nothing.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, QuantizedOptimState] = {
            name: QuantizedOptimState.zeros(t.data.size)
            for name, t in params.items()
        }

    def step(self, lr: float, max_norm: float = math.inf) -> float:
        """Apply one update at `lr` to every parameter that has a gradient,
        clipped to a global norm of `max_norm`; returns the norm before
        clipping (0.0 when no parameter has a gradient)."""
        if not 0 <= lr < math.inf:  # NaN fails it too
            raise ConfigError(f"lr must be a finite number >= 0, got {lr!r}")
        live = [(name, t.data, t.grad, self.state[name])
                for name, t in self.params.items() if t.grad is not None]
        return (_adam_pass(live, lr, self.beta1, self.beta2, self.eps,
                           max_norm) if live else 0.0)
