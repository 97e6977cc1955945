"""Dense float64 matrices with reverse-mode gradients.

Every value is a two dimensional float64 matrix wrapped in a :class:`Tensor`.
Applying a primitive records the operation on the result node (operands plus
a vector-Jacobian callback), so the graph doubles as the gradient tape:
:func:`gradients` replays it backward from a scalar loss and returns exactly
one shape-matched gradient per requested parameter.

Shapes are strict.  Elementwise primitives require identical shapes; the only
sanctioned mismatches are the named primitives ``add_row`` (row-vector bias),
``scale_rows`` (per-row scalar), ``tile_rows``, ``block_matmul`` and
``block_row_dot``.

:func:`check_gradients` is the central-difference oracle used by the test
suite; it compares analytic gradients against ``(f(p+eps)-f(p-eps))/(2 eps)``
entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def _as_matrix(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Tensor:
    """A float64 matrix node in the computation graph.

    Leaves come from :func:`parameter` (tracked for gradients) or
    :func:`constant` (plain data).  Interior nodes are produced by the
    primitives below.  ``data`` is owned by the node and must not be
    mutated while a graph referencing it is still alive, except for the
    in-place parameter updates an optimizer performs between steps.
    """

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_matrix(data)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple] | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor({self.rows}x{self.cols}{grad}{tag})"


def parameter(data, name: str = "") -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def scalar(value: float) -> Tensor:
    return Tensor(np.array([[float(value)]]), requires_grad=False)


def _op(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return g @ bd.T, ad.T @ g

    return _op(ad @ bd, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def add_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a 1 x cols bias row to every row of ``x``."""
    if bias.shape != (1, x.cols):
        raise ShapeError(f"bias must be 1x{x.cols}, got {bias.shape}")
    return _op(x.data + bias.data, (x, bias),
               lambda g: (g, g.sum(axis=0, keepdims=True)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _op(a.data - b.data, (a, b), lambda g: (g, -g))


def neg(x: Tensor) -> Tensor:
    return _op(-x.data, (x,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _op(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, factor: float) -> Tensor:
    f = float(factor)
    return _op(x.data * f, (x,), lambda g: (g * f,))


def scale_rows(x: Tensor, factors: Tensor) -> Tensor:
    """Multiply row i of ``x`` by the scalar ``factors[i, 0]``."""
    if factors.shape != (x.rows, 1):
        raise ShapeError(f"row factors must be {x.rows}x1, got {factors.shape}")
    xd, fd = x.data, factors.data

    def vjp(g: Array):
        return g * fd, (g * xd).sum(axis=1, keepdims=True)

    return _op(xd * fd, (x, factors), vjp)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _op(out, (x,), lambda g: (g * out * (1.0 - out),))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """x for x >= 0, slope*x otherwise; the subgradient at 0 is slope."""
    s = float(slope)
    if not 0.0 < s < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {s}")
    xd = x.data
    factor = np.maximum(xd > 0, s)   # 1.0 where x > 0, else slope (NaN too)
    return _op(xd * factor, (x,), lambda g: (g * factor,))


def relu(x: Tensor) -> Tensor:
    """Hinge: max(0, x) elementwise, subgradient 0 at the kink."""
    xd = x.data
    mask = (xd > 0).astype(np.float64)
    return _op(xd * mask, (x,), lambda g: (g * mask,))


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise ValueError("log requires strictly positive entries")
    return _op(np.log(xd), (x,), lambda g: (g / xd,))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp into [lo, hi]; gradient passes only through unclamped entries."""
    xd = x.data
    mask = ((xd > lo) & (xd < hi)).astype(np.float64)
    return _op(np.clip(xd, lo, hi), (x,), lambda g: (g * mask,))


def softmax_row(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; each output row sums to 1."""
    xd = x.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g: Array):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return _op(out, (x,), vjp)


def log_softmax_row(x: Tensor) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g: Array):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return _op(out, (x,), vjp)


def total_sum(x: Tensor) -> Tensor:
    shape = x.shape
    return _op(np.array([[x.data.sum()]]), (x,),
               lambda g: (np.full(shape, g[0, 0]),))


def mean_all(x: Tensor) -> Tensor:
    shape = x.shape
    size = x.data.size
    return _op(np.array([[x.data.mean()]]), (x,),
               lambda g: (np.full(shape, g[0, 0] / size),))


def row_sum(x: Tensor) -> Tensor:
    """Sum each row, producing a rows x 1 column."""
    cols = x.cols
    return _op(x.data.sum(axis=1, keepdims=True), (x,),
               lambda g: (np.repeat(g, cols, axis=1),))


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} to ({rows}, {cols})")
    orig = x.shape
    return _op(x.data.reshape(rows, cols), (x,),
               lambda g: (g.reshape(orig),))


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Stack ``reps`` vertical copies of ``x``; the gradient sums the copies."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    r, c = x.shape
    return _op(np.tile(x.data, (reps, 1)), (x,),
               lambda g: (g.reshape(reps, r, c).sum(axis=0),))


def block_matmul(left: Array, x: Tensor, block_rows: int) -> Tensor:
    """Left-multiply each vertical block of ``x`` by the constant ``left``.

    ``x`` is treated as a stack of (block_rows x cols) blocks; each block b
    becomes left @ b.  ``left`` must be square with side ``block_rows`` and
    is not differentiated.
    """
    left = np.asarray(left, dtype=np.float64)
    if left.shape != (block_rows, block_rows):
        raise ShapeError(f"left must be {block_rows}x{block_rows}, got {left.shape}")
    if x.rows % block_rows != 0:
        raise ShapeError(f"{x.rows} rows do not divide into blocks of {block_rows}")
    n_blocks = x.rows // block_rows
    cols = x.cols
    blocks = x.data.reshape(n_blocks, block_rows, cols)
    out = np.matmul(left, blocks).reshape(x.rows, cols)
    left_t = left.T

    def vjp(g: Array):
        gb = g.reshape(n_blocks, block_rows, cols)
        return (np.matmul(left_t, gb).reshape(x.rows, cols),)

    return _op(out, (x,), vjp)


def block_row_dot(x: Tensor, w: Tensor) -> Tensor:
    """Dot each row of each vertical block of ``x`` with the same row of ``w``.

    ``x`` is a stack of (w.rows x w.cols) blocks; output row i holds block
    i's row-wise dot products, so the result is (x.rows / w.rows) x w.rows.
    """
    block_rows, cols = w.shape
    if x.cols != cols or x.rows % block_rows != 0:
        raise ShapeError(f"{x.shape} does not stack into blocks of {w.shape}")
    x3 = x.data.reshape(-1, block_rows, cols)
    wd = w.data

    def vjp(g: Array):
        g3 = g[:, :, None]
        return (g3 * wd).reshape(x.shape), (g3 * x3).sum(axis=0)

    return _op((x3 * wd).sum(axis=2), (x, w), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Gradient of a 1x1 ``loss`` with respect to each tensor in ``params``.

    Returns one array per parameter, shape-matched; parameters the loss does
    not depend on get zeros.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be 1x1, got {loss.shape}")
    grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
    for node in reversed(_topo_order(loss)):
        if node._vjp is None:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
    return [grads.get(id(p), np.zeros_like(p.data)) for p in params]


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
