"""Small timings made beside the work: autodiff primitives and host speed.

:func:`primitive_costs` gives the forward-plus-backward cost of single
autodiff primitives at protocol shapes.  Each case builds the primitive on
random parameters, sums the output with ``total_sum`` and calls
``gradients`` once, so a figure covers the forward op, its vector-Jacobian
product and a small fixed cost for the sum and the tape walk.  The shapes
are the ones a protocol step produces: 48-sample batches, 10 units (480
node rows), 64 GCN channels and 128 hidden units.  :class:`HostProbe`
samples host speed while a round's work runs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

from aurelab import autodiff as ad

CALLS = 60
REPEATS = 5


def _cases(rng: np.random.Generator) -> dict:
    def p(rows, cols):
        return ad.parameter(rng.standard_normal((rows, cols)))

    nodes, gcn_w = p(480, 64), p(64, 64)
    unit_w = p(10, 64)
    adjacency = rng.random((10, 10))
    adjacency /= adjacency.sum(axis=1, keepdims=True)
    hidden, logits, units = p(48, 128), p(48, 5), p(48, 10)
    return {
        "autodiff.matmul_480x64_us": (lambda: ad.matmul(nodes, gcn_w),
                                      [nodes, gcn_w]),
        "autodiff.block_matmul_480x64_us": (
            lambda: ad.block_matmul(adjacency, nodes, 10), [nodes]),
        "autodiff.leaky_relu_480x64_us": (lambda: ad.leaky_relu(nodes),
                                          [nodes]),
        "autodiff.tile_rows_480x64_us": (lambda: ad.tile_rows(unit_w, 48),
                                         [unit_w]),
        "autodiff.row_sum_480x64_us": (lambda: ad.row_sum(nodes), [nodes]),
        "autodiff.leaky_relu_48x128_us": (lambda: ad.leaky_relu(hidden),
                                          [hidden]),
        "autodiff.log_softmax_row_48x5_us": (
            lambda: ad.log_softmax_row(logits), [logits]),
        "autodiff.sigmoid_48x10_us": (lambda: ad.sigmoid(units), [units]),
    }


def primitive_costs(seed: int) -> dict[str, float]:
    """Median microseconds per forward-plus-backward call, per primitive."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = {}
    for name, (forward, params) in _cases(rng).items():
        per_call = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(CALLS):
                ad.gradients(ad.total_sum(forward()), params)
            per_call.append((time.perf_counter() - start) / CALLS * 1e6)
        out[name] = statistics.median(per_call)
    return out




class HostProbe:
    """Samples host speed while a round's work runs.

    A fixed numpy loop that no aurelab change can move (``np.where`` on
    random signs, the same pattern as ``leaky_relu``, then a matmul) is
    timed every ``INTERVAL_S`` during the work from a ``SIGALRM`` handler,
    and once after it.  The shared host alternates
    between speed states for seconds to minutes; a round's probe median
    says which state it ran in.  ``spent_s`` is the probe's own time inside
    the work, which the round subtracts from its wall time.
    """

    INTERVAL_S = 0.2
    # Median probe sample on the 2-core development host in its fast state;
    # times scaled by NOMINAL_MS / median read as seconds on that host.
    NOMINAL_MS = 2.4

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self._a = rng.standard_normal((480, 64))
        self._w = rng.standard_normal((64, 64))
        self.samples_ms: list[float] = []
        self.spent_s = 0.0

    def _sample(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            np.where(self._a > 0, self._a, 0.01 * self._a) @ self._w
        took = time.perf_counter() - start
        self.samples_ms.append(took * 1e3)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.spent_s += self._sample()

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)
