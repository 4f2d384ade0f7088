"""Blockwise symmetric 4-bit quantization and the 4-bit Adam optimizer.

Matrices are flattened row-major and split into fixed-size blocks; each
block stores one f32 scale (absmax/7) and one 4-bit code per element.
Codes are unsigned 0..14 with value = (code - 7) * scale, so the grid is
15 symmetric levels and reconstruction error is bounded by scale/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, NumericError
from .tensor import Tensor, matmul

DEFAULT_BLOCK_SIZE = 64


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round is half-even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack 4-bit codes two per byte, low nibble first; odd tail pads 0."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    pairs = codes.reshape(-1, 2)
    return (pairs[:, 0] | (pairs[:, 1] << 4)).astype(np.uint8)


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
    n_blocks = (n + block_size - 1) // block_size

    padded = np.zeros(n_blocks * block_size, dtype=np.float32)
    padded[:n] = flat
    blocks = padded.reshape(n_blocks, block_size)

    absmax = np.abs(blocks).max(axis=1).astype(np.float64)
    scales = (absmax / 7.0).astype(np.float32)
    # Canonicalize so quantize(dequantize(q)) reproduces the scale bitwise:
    # the requantized absmax is f32(7*scale), so snap scale to the fixed
    # point of s -> f32(f64(f32(7*s)) / 7) (idempotent after one step).
    scales = ((np.float32(7.0) * scales).astype(np.float64) / 7.0).astype(np.float32)
    # Ratio against the exact absmax/7 in f64 keeps ties (e.g. 3.5) exact.
    safe = np.where(absmax > 0, absmax, 1.0)
    ratio = blocks.astype(np.float64) * 7.0 / safe[:, None]
    codes = _round_half_away(ratio)
    np.clip(codes, -7, 7, out=codes)
    codes = np.where(absmax[:, None] > 0, codes, 0.0) + 7
    codes = codes.astype(np.uint8).reshape(-1)[:n]

    return QuantizedMatrix(rows, cols, block_size, pack_codes(codes), scales)


def dequantize(q: QuantizedMatrix) -> np.ndarray:
    """Reconstruct value = (code - 7) * block_scale, shape restored."""
    n = q.n_elements
    expected_bytes = (n + 1) // 2
    if q.codes.size != expected_bytes:
        raise FormatError(
            f"packed codes length {q.codes.size} != expected {expected_bytes}")
    n_blocks = (n + q.block_size - 1) // q.block_size
    if q.scales.size != n_blocks:
        raise FormatError(f"scale count {q.scales.size} != expected {n_blocks}")
    codes = unpack_codes(q.codes, n)
    if codes.max(initial=0) > 14:
        raise FormatError("corrupt packing: code value 15 is not in the codebook")
    levels = codes.astype(np.float32) - 7.0
    scales_per_elem = np.repeat(q.scales, q.block_size)[:n]
    return (levels * scales_per_elem).reshape(q.rows, q.cols)


def qmatmul(x: Tensor, q: QuantizedMatrix, adapter=None, training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """x [m,k] times a quantized [k,n] matrix, plus an optional LoRA adapter.

    Without an adapter this runs `matmul(x, dequantize(q))`, so the result
    is bitwise equal to it. With one it runs `adapter.project` on the
    dequantized kernel: one `lora_linear` op, dropout in training only.
    The quantized side is frozen; gradient flows to x and the adapter.
    """
    if x.data.ndim != 2 or x.data.shape[1] != q.rows:
        raise DimensionError(f"qmatmul: {x.data.shape} x {q.shape}")
    w = Tensor(q.dequant())
    if adapter is None:
        return matmul(x, w)
    return adapter.project(x, w, training, rng)


# ---------------------------------------------------------------------------
# 4-bit Adam


def _quantize_flat(v: np.ndarray, block_size: int) -> QuantizedMatrix:
    return quantize_4bit(v.reshape(1, -1), block_size)


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
    n_blocks = (n + DEFAULT_BLOCK_SIZE - 1) // DEFAULT_BLOCK_SIZE
    return QuantizedMatrix(1, n, DEFAULT_BLOCK_SIZE, codes,
                           np.zeros(n_blocks, dtype=np.float32))


def adam_step_quantized(param: np.ndarray, grad: np.ndarray,
                        state: QuantizedOptimState, lr: float,
                        beta1: float = 0.9, beta2: float = 0.999,
                        eps: float = 1e-8) -> QuantizedOptimState:
    """One Adam step with bias correction; moments round-trip through 4-bit.

    Dequantizes both moments, applies the standard update to the f32 param
    in place, then requantizes the moments blockwise. Second moments stay
    >= 0 because symmetric quantization preserves sign.
    """
    if lr < 0:
        raise DimensionError(f"lr must be >= 0, got {lr}")
    if not np.all(np.isfinite(grad)):
        raise NumericError("adam_step_quantized: non-finite gradient")
    g = np.asarray(grad, dtype=np.float32).reshape(-1)
    p = param.reshape(-1)
    if g.size != p.size:
        raise DimensionError(f"param/grad size mismatch: {p.size} vs {g.size}")

    block_size = state.m.block_size
    m = state.m.dequant().reshape(-1)
    v = state.v.dequant().reshape(-1)

    t = state.step + 1
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    p -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(param.dtype)

    state.m = _quantize_flat(m, block_size)
    state.v = _quantize_flat(v, block_size)
    state.step = t
    return state


class QuantizedAdam:
    """Adam over a list of named f32 tensors with 4-bit moment storage."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state: dict[str, QuantizedOptimState] = {
            name: QuantizedOptimState.zeros(t.data.size)
            for name, t in params.items()
        }

    def step(self, lr: float | None = None) -> None:
        """Apply one update to every parameter that has a gradient."""
        use_lr = self.lr if lr is None else lr
        for name, t in self.params.items():
            if t.grad is None:
                continue
            adam_step_quantized(t.data, t.grad, self.state[name], use_lr,
                                self.beta1, self.beta2, self.eps)
