"""Finite-difference gradient oracle, and the elementwise product and the
scalar loss the autograd tests reduce to."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from moetune.errors import DimensionError
from moetune.tensor import Tensor, _accum


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; backward gives a g * b and b g * a."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} != {b.data.shape}")
    with np.errstate(over="ignore"):
        out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor._from_op(out_data, (a, b), backward, "mul")


def sum_all(a: Tensor) -> Tensor:
    """Sum of every element as a 0-d tensor; backward spreads g to all."""
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g: np.ndarray) -> None:
        _accum(a, np.full_like(a.data, g))

    return Tensor._from_op(out_data, (a,), backward, "sum")


def finite_difference_grad(loss_fn: Callable[[], Tensor], param: Tensor,
                           eps: float = 1e-3) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every element of param."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(loss_fn().data)
        flat[i] = orig - eps
        down = float(loss_fn().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def gradient_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                   eps: float = 1e-3, rtol: float = 1e-3) -> float:
    """Compare analytic gradients against central finite differences.

    Relative error per parameter is ||g_analytic - g_fd|| / max(||g_fd||, tiny);
    returns the worst ratio and raises AssertionError if it exceeds rtol.
    Callers should build the graph in float64 for a clean oracle.
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    worst = 0.0
    for p in params:
        analytic = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_grad(loss_fn, p, eps)
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
        rel = float(np.linalg.norm(analytic - numeric) / denom)
        worst = max(worst, rel)
        if rel > rtol:
            raise AssertionError(
                f"gradient check failed: relative error {rel:.3e} > {rtol:.0e}")
    return worst
