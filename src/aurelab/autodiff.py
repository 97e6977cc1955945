"""Dense float64 matrices with reverse-mode gradients.

Every value is a two dimensional float64 matrix wrapped in a :class:`Tensor`.
Applying a primitive gives the result a tape entry: its parents' entries and
a vector-Jacobian callback, but no values.  :func:`gradients` replays the
entries backward from a scalar loss and returns exactly one shape-matched
gradient per requested parameter.  A value lives only as long as a caller or
a vjp closure holds it, so an interior matrix no vjp reads is freed while the
loss built on it is still alive.  :func:`node` builds an interior node from a
result and a hand-written vector-Jacobian product; the primitives below use
it, and so do the training losses, each of which is a single node.

Shapes are strict.  Elementwise primitives require identical shapes; the only
sanctioned mismatches are the named primitives ``add_row`` (row-vector bias),
``tile_rows``, ``block_matmul`` and ``block_row_dot``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


def _as_matrix(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class _Tape:
    """A node's entry on the gradient tape: its parents' entries, ``None``
    for a parent that needs no gradient, and its vjp.  A tracked leaf's
    entry has no parents and no vjp."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents: tuple, vjp: Callable[[Array], tuple] | None):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A float64 matrix node in the computation graph.

    Leaves come from :func:`parameter` (tracked for gradients) or
    :func:`constant` (plain data).  Interior nodes are produced by the
    primitives below.  A node that needs a gradient has a tape entry; a
    constant has none.  ``data`` must not be mutated while a vjp that
    reads it is still alive, except for the in-place parameter updates an
    optimizer performs between steps.  A trained parameter's ``data`` is a
    view of its branch's flat buffer, which the trainer updates in place:
    it is written only in place, never rebound.
    """

    __slots__ = ("data", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_matrix(data)
        self.name = name
        self._tape = _Tape((), None) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._tape is not None

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


def node(data: Array, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """An interior node holding ``data``, a primitive's 2-D float64 result.

    ``vjp(g)`` receives the upstream gradient (an array shaped like
    ``data``) and returns one entry per parent, in parent order: that
    parent's gradient contribution, or ``None`` when the parent needs no
    gradient.  The node's tape entry keeps the parents' entries and ``vjp``,
    not the parents; a node none of whose parents needs a gradient is a
    constant and gets no entry.  ``data`` is taken as it is; only the
    leaves convert and check their input.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.name = ""
    entries = tuple([p._tape for p in parents])
    out._tape = _Tape(entries, vjp) if any(entries) else None
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    a_grad, b_grad = a.requires_grad, b.requires_grad

    def vjp(g: Array):
        return (g @ bd.T if a_grad else None,
                ad.T @ g if b_grad else None)

    return node(ad @ bd, (a, b), vjp)


def add_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a 1 x cols bias row to every row of ``x``."""
    if bias.shape != (1, x.cols):
        raise ShapeError(f"bias must be 1x{x.cols}, got {bias.shape}")
    return node(x.data + bias.data, (x, bias),
                lambda g: (g, g.sum(axis=0, keepdims=True)))


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exponential overflows: both branches need exp(-|x|) alone."""
    xd = x.data
    e = np.exp(-np.abs(xd))
    d = 1.0 + e
    out = np.where(xd >= 0, 1.0 / d, e / d)
    return node(out, (x,), lambda g: (g * out * (1.0 - out),))


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """x for x >= 0, slope*x otherwise; the subgradient at 0 is slope."""
    s = float(slope)
    if not 0.0 < s < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {s}")
    xd = x.data
    # x * s > x exactly where x < 0, and at +-0 and NaN max gives x * s's
    # bits; the vjp keeps a bool mask, an eighth of a float factor's bytes
    mask = xd > 0
    out = xd * s
    np.maximum(xd, out, out=out)

    def vjp(g):
        factor = np.maximum(mask, s)   # 1.0 where x > 0, else slope
        factor *= g
        return (factor,)

    return node(out, (x,), vjp)


def log_softmax_row(x: Tensor) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g: Array):
        return (g - soft * g.sum(axis=1, keepdims=True),)

    return node(out, (x,), vjp)


def total_sum(x: Tensor) -> Tensor:
    shape = x.shape
    return node(np.array([[x.data.sum()]]), (x,),
                lambda g: (np.full(shape, g[0, 0]),))


def row_sum(x: Tensor) -> Tensor:
    """Sum each row, producing a rows x 1 column."""
    cols = x.cols
    return node(x.data.sum(axis=1, keepdims=True), (x,),
                lambda g: (np.repeat(g, cols, axis=1),))


def reshape(x: Tensor, rows: int, cols: int) -> Tensor:
    if rows * cols != x.data.size:
        raise ShapeError(f"cannot reshape {x.shape} to ({rows}, {cols})")
    orig = x.shape
    return node(x.data.reshape(rows, cols), (x,),
                lambda g: (g.reshape(orig),))


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Stack ``reps`` vertical copies of ``x``; the gradient sums the copies."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    r, c = x.shape
    return node(np.tile(x.data, (reps, 1)), (x,),
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
    rows, cols = x.shape
    n_blocks = rows // block_rows
    blocks = x.data.reshape(n_blocks, block_rows, cols)
    out = np.matmul(left, blocks).reshape(rows, cols)
    left_t = left.T

    def vjp(g: Array):
        gb = g.reshape(n_blocks, block_rows, cols)
        return (np.matmul(left_t, gb).reshape(rows, cols),)

    return node(out, (x,), vjp)


def block_row_dot(x: Tensor, w: Tensor) -> Tensor:
    """Dot each row of each vertical block of ``x`` with the same row of ``w``.

    ``x`` is a stack of (w.rows x w.cols) blocks; output row i holds block
    i's row-wise dot products, so the result is (x.rows / w.rows) x w.rows.
    """
    block_rows, cols = w.shape
    if x.cols != cols or x.rows % block_rows != 0:
        raise ShapeError(f"{x.shape} does not stack into blocks of {w.shape}")
    x3 = x.data.reshape(-1, block_rows, cols)
    wd, shape = w.data, x.shape

    def vjp(g: Array):
        return (np.einsum("bm,mc->bmc", g, wd).reshape(shape),
                np.einsum("bm,bmc->mc", g, x3))

    return node((x3 * wd).sum(axis=2), (x, w), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: _Tape) -> list[_Tape]:
    """Depth-first post-order of the tape entries below ``root``.

    The tape holds parents' entries and vjps, not values, and entries
    stand one for one for the nodes that need a gradient.  The order fixes
    the order in which a node's gradient contributions are summed, so it
    decides the gradient's last bits.  Entries are keyed by identity.
    """
    order: list[_Tape] = []
    seen: set[_Tape] = set()
    stack: list[tuple[_Tape, bool]] = [(root, False)]
    pop, push, visit = stack.pop, stack.append, seen.add
    while stack:
        t, expanded = pop()
        if expanded:
            order.append(t)
            continue
        if t in seen:
            continue
        visit(t)
        push((t, True))
        for p in t.parents:
            if p is not None and p not in seen:
                push((p, False))
    return order


def gradients(loss: Tensor, params: Sequence[Tensor]) -> list[Array]:
    """Gradient of a 1x1 ``loss`` with respect to each tensor in ``params``.

    Returns one array per parameter, shape-matched; parameters the loss does
    not depend on get zeros.  The tape is left as it was, so a second call
    on the same loss gives the same arrays.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"loss must be 1x1, got {loss.shape}")
    root = loss._tape or _Tape((), None)   # an untracked loss reaches none
    grads: dict[_Tape, Array] = {root: np.ones((1, 1))}
    for t in reversed(_topo_order(root)):
        if t.vjp is None:
            continue
        g = grads.pop(t, None)
        if g is None:
            continue
        for p, pg in zip(t.parents, t.vjp(g)):
            if pg is None or p is None:
                continue
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg
    return [g if (g := grads.get(p._tape)) is not None
            else np.zeros_like(p.data) for p in params]
