"""Generic tape primitives and the central-difference gradient oracle.

The library computes each training loss as one hand-written tape node;
``oracles.py`` rebuilds those losses from the primitives here, one step per
primitive, and the tests compare the two bit for bit.  :func:`check_gradients`
compares a loss's analytic gradients against ``(f(p+eps)-f(p-eps))/(2 eps)``
entry by entry.  Everything is built on the public ``autodiff.node``, so the
tape itself is the library's.

Shapes are strict, as in the library: elementwise primitives require
identical shapes, and ``scale_rows`` takes one scalar per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from aurelab.autodiff import Array, Tensor, gradients, node
from aurelab.errors import ShapeError


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return node(a.data - b.data, (a, b), lambda g: (g, -g))


def neg(x: Tensor) -> Tensor:
    return node(-x.data, (x,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return node(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, factor: float) -> Tensor:
    f = float(factor)
    return node(x.data * f, (x,), lambda g: (g * f,))


def scale_rows(x: Tensor, factors: Tensor) -> Tensor:
    """Multiply row i of ``x`` by the scalar ``factors[i, 0]``."""
    if factors.shape != (x.rows, 1):
        raise ShapeError(f"row factors must be {x.rows}x1, got {factors.shape}")
    xd, fd = x.data, factors.data

    def vjp(g: Array):
        return g * fd, (g * xd).sum(axis=1, keepdims=True)

    return node(xd * fd, (x, factors), vjp)


def relu(x: Tensor) -> Tensor:
    """Hinge: max(0, x) elementwise, subgradient 0 at the kink."""
    xd = x.data
    mask = (xd > 0).astype(np.float64)
    return node(xd * mask, (x,), lambda g: (g * mask,))


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise ValueError("log requires strictly positive entries")
    return node(np.log(xd), (x,), lambda g: (g / xd,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; gradient passes only through unclamped entries."""
    xd = x.data
    mask = ((xd > lo) & (xd < hi)).astype(np.float64)
    return node(np.clip(xd, lo, hi), (x,), lambda g: (g * mask,))


def softmax_row(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; each output row sums to 1."""
    xd = x.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return node(out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    shape = x.shape
    size = x.data.size
    return node(np.array([[x.data.mean()]]), (x,),
                lambda g: (np.full(shape, g[0, 0] / size),))


# ---------------------------------------------------------------------------
# the finite-difference oracle


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    max_abs_error: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def ok(self, tol: float) -> bool:
        return self.max_rel_error < tol

    def __str__(self) -> str:
        lines = [f"{e.name}: rel={e.max_rel_error:.3e} abs={e.max_abs_error:.3e}"
                 for e in self.entries]
        return "\n".join(lines)


def finite_difference_gradients(loss_fn: Callable[[], Tensor],
                                params: Sequence[Tensor],
                                eps: float = 1e-5) -> list[Array]:
    """Central differences of ``loss_fn`` with respect to each parameter.

    ``loss_fn`` must rebuild its graph from the parameters' current data on
    every call.  Entries are perturbed in place and restored.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            f_plus = loss_fn().item()
            flat[k] = orig - eps
            f_minus = loss_fn().item()
            flat[k] = orig
            gflat[k] = (f_plus - f_minus) / (2.0 * eps)
        out.append(g)
    return out


def check_gradients(loss_fn: Callable[[], Tensor],
                    params: Sequence[Tensor],
                    eps: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    The relative error per parameter is the max absolute entry difference
    normalized by that parameter's gradient magnitude, floored at 1/1000 of
    the largest gradient magnitude across all checked parameters: a
    parameter whose true gradient is vanishingly small compared to the rest
    is judged against the loss's overall gradient scale, since central
    differences cannot resolve below their truncation floor.
    """
    analytic = gradients(loss_fn(), params)
    numeric = finite_difference_gradients(loss_fn, params, eps)
    scales = [max(float(np.max(np.abs(a))), float(np.max(np.abs(n))))
              for a, n in zip(analytic, numeric)]
    floor = max(max(scales, default=0.0) * 1e-3, 1e-8)
    entries = []
    for i, (p, a, n, scale) in enumerate(zip(params, analytic, numeric,
                                             scales)):
        abs_err = float(np.max(np.abs(a - n))) if a.size else 0.0
        entries.append(GradCheckEntry(p.name or f"param{i}",
                                      abs_err / max(scale, floor), abs_err))
    return GradCheckReport(entries)
