import ast
import math
import weakref
import zlib
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab.errors import ShapeError
import tape_kit as tk
from oracles import (broadcast_block_row_dot_grads, factor_leaky_relu,
                     masked_sigmoid, two_where_leaky_relu)


def rand(rng, r, c):
    return rng.standard_normal((r, c))


class TestForwardValues:
    def test_matmul_identity(self):
        a = ad.constant(np.eye(2))
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_matmul_orthogonal_selection(self):
        a = ad.constant([[1.0, 0.0]])
        b = ad.constant([[0.0], [5.0]])
        assert ad.matmul(a, b).item() == pytest.approx(0.0)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))

    def test_sigmoid_zero_is_half(self):
        assert ad.sigmoid(ad.constant([[0.0]])).item() == 0.5

    def test_sigmoid_log3_is_three_quarters(self):
        assert ad.sigmoid(ad.constant([[math.log(3.0)]])).item() == pytest.approx(
            0.75, abs=1e-12)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.sigmoid(ad.constant([[-1000.0, 1000.0]])).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_leaky_relu_values(self):
        out = ad.leaky_relu(ad.constant([[2.0, -1.0]]), 0.01)
        np.testing.assert_allclose(out.data, [[2.0, -0.01]])

    @pytest.mark.parametrize("slope", [0.01, 0.25, 0.999])
    def test_leaky_relu_edge_bits_match_two_where_oracle(self, slope):
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                 5e-324 * 7, -2.2250738585072014e-308, 1e-310, -1e-310]
        rng = np.random.default_rng(11)
        x = np.concatenate([edges, rng.standard_normal(84)]).reshape(8, 12)
        node = ad.parameter(x)
        out = ad.leaky_relu(node, slope)
        with np.errstate(invalid="ignore"):   # the sum meets inf - inf
            (grad,) = ad.gradients(ad.total_sum(out), [node])
        want_out, want_grad = two_where_leaky_relu(x, slope)
        assert out.data.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        assert grad[0, 0] == grad[0, 1] == slope   # subgradient at +-0

    @pytest.mark.parametrize("slope", [0.01, 0.25, 0.999])
    def test_leaky_relu_bits_match_the_factor_composition(self, slope):
        # a GCN layer's shape at the benchmark's batch, with every edge value
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                 1e-310, -1e-310, 1.7976931348623157e308, -1e308]
        rng = np.random.default_rng(13)
        x = rng.standard_normal((480, 64))
        x.flat[:len(edges)] = edges
        g = rng.standard_normal(x.shape)
        g.flat[len(edges):2 * len(edges)] = edges
        node = ad.parameter(x)
        out = ad.leaky_relu(node, slope)
        (grad,) = out._tape.vjp(g)
        want_out, want_grad = factor_leaky_relu(x, slope, g)
        assert out.data.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_sigmoid_bits_match_masked_oracle(self):
        tiny = np.nextafter(0.0, 1.0)
        edges = [0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 745.0,
                 -745.0, 800.0, -800.0, 36.7]
        rng = np.random.default_rng(12)
        x = np.concatenate([edges, rng.standard_normal(84) * 20]).reshape(8, 12)
        with np.errstate(over="ignore", invalid="ignore"):
            want = masked_sigmoid(x)
        got = ad.sigmoid(ad.constant(x)).data
        nan = np.isnan(want)   # a NaN's sign bit is not compared
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_leaky_relu_slope_domain(self):
        with pytest.raises(ValueError):
            ad.leaky_relu(ad.constant([[1.0]]), 1.0)

    def test_softmax_uniform_row(self):
        out = tk.softmax_row(ad.constant([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3])

    def test_softmax_no_overflow(self):
        out = tk.softmax_row(ad.constant([[1000.0, 0.0]])).data
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tk.log(ad.constant([[0.0]]))

    def test_reshape_roundtrip(self):
        x = ad.constant(np.arange(6, dtype=float).reshape(2, 3))
        assert np.array_equal(ad.reshape(x, 3, 2).data.ravel(), x.data.ravel())
        with pytest.raises(ShapeError):
            ad.reshape(x, 4, 2)

    def test_block_matmul_matches_per_block_product(self):
        rng = np.random.default_rng(3)
        left = rng.standard_normal((3, 3))
        x = ad.constant(rng.standard_normal((6, 4)))
        out = ad.block_matmul(left, x, 3)
        expected = np.vstack([left @ x.data[:3], left @ x.data[3:]])
        np.testing.assert_allclose(out.data, expected)


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.lists(st.floats(min_value=-50, max_value=50),
                           min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(values):
    out = tk.softmax_row(ad.constant([values]))
    assert abs(out.data.sum() - 1.0) < 1e-12


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_block_row_dot_gradient_bits_match_broadcast_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = ad.parameter(rand(rng, 48 * 10, 64))
        w = ad.parameter(rand(rng, 10, 64))
        g = rand(rng, 48, 10)
        out = ad.block_row_dot(x, w)
        gx, gw = out._tape.vjp(g)
        want_x, want_w = broadcast_block_row_dot_grads(
            g, x.data.reshape(48, 10, 64), w.data)
        assert gx.tobytes() == want_x.reshape(x.shape).tobytes()
        assert gw.tobytes() == want_w.tobytes()

    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(0)
        w = ad.parameter(rand(rng, 3, 4), "w")
        report = tk.check_gradients(lambda: ad.total_sum(tk.mul(w, w)), [w])
        assert report.max_rel_error < 1e-8

    @pytest.mark.parametrize("factor", [1.0, 1.001, -1.0])
    def test_oracle_fails_a_wrong_vjp(self, factor):
        # a sigmoid whose vjp is off by 0.1% or has the wrong sign fails at
        # the primitives' tolerance (1e-6) and at acceptance criterion 1's
        # (1e-4); the right vjp passes both
        rng = np.random.default_rng(5)
        x = ad.parameter(rand(rng, 3, 4), "x")
        probe = ad.constant(rand(rng, 3, 4))

        def loss_fn():
            s = ad.sigmoid(x)
            node = ad.node(s.data, (x,),
                           lambda g: (factor * s._tape.vjp(g)[0],))
            return ad.total_sum(tk.mul(node, probe))

        report = tk.check_gradients(loss_fn, [x])
        assert [report.ok(1e-6), report.ok(1e-4)] == [factor == 1.0] * 2

    def test_unused_parameter_gets_zeros(self):
        w = ad.parameter([[1.0, 2.0]], "w")
        unused = ad.parameter([[3.0]], "unused")
        grads = ad.gradients(ad.total_sum(w), [w, unused])
        assert np.array_equal(grads[0], np.ones((1, 2)))
        assert np.array_equal(grads[1], np.zeros((1, 1)))

    def test_loss_must_be_scalar(self):
        w = ad.parameter([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            ad.gradients(w, [w])

    def test_shared_subexpression_accumulates(self):
        # d/dw of (w*w + w) = 2w + 1
        w = ad.parameter([[3.0]], "w")
        loss = ad.total_sum(tk.add(tk.mul(w, w), w))
        (g,) = ad.gradients(loss, [w])
        np.testing.assert_allclose(g, [[7.0]])

    def test_matmul_sum_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = ad.parameter(rand(rng, 3, 4), "a")
        b = ad.parameter(rand(rng, 4, 2), "b")
        report = tk.check_gradients(lambda: ad.total_sum(ad.matmul(a, b)), [a, b])
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("x0", [-2.0, 0.0, 3.0])
    def test_sigmoid_gradient_matches_closed_form_and_fd(self, x0):
        x = ad.parameter([[x0]], "x")
        loss_fn = lambda: ad.total_sum(ad.sigmoid(x))
        (analytic,) = ad.gradients(loss_fn(), [x])
        s = 1.0 / (1.0 + math.exp(-x0))
        assert analytic[0, 0] == pytest.approx(s * (1 - s), rel=1e-12)
        assert tk.check_gradients(loss_fn, [x]).max_rel_error < 1e-6

    def test_leaky_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(2)
        vals = rand(rng, 3, 3)
        vals[np.abs(vals) < 1e-3] = 0.5
        x = ad.parameter(vals, "x")
        report = tk.check_gradients(
            lambda: ad.total_sum(ad.leaky_relu(x, 0.01)), [x])
        assert report.max_rel_error < 1e-6

    def test_leaky_relu_subgradient_at_zero_is_slope(self):
        x = ad.parameter([[0.0]], "x")
        (g,) = ad.gradients(ad.total_sum(ad.leaky_relu(x, 0.25)), [x])
        assert g[0, 0] == 0.25

    def test_softmax_jacobian_vector_product_vs_fd(self):
        rng = np.random.default_rng(4)
        x = ad.parameter(rand(rng, 2, 5), "x")
        probe = ad.constant(rand(rng, 2, 5))
        report = tk.check_gradients(
            lambda: ad.total_sum(tk.mul(tk.softmax_row(x), probe)), [x])
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("op", ["log_softmax", "scale_rows", "add_row",
                                    "tile_rows", "row_sum", "clip", "block",
                                    "block_row_dot"])
    def test_remaining_primitive_gradients(self, op):
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        if op == "log_softmax":
            x = ad.parameter(rand(rng, 3, 4), "x")
            probe = ad.constant(rand(rng, 3, 4))
            fn = lambda: ad.total_sum(tk.mul(ad.log_softmax_row(x), probe))
            params = [x]
        elif op == "scale_rows":
            x = ad.parameter(rand(rng, 4, 3), "x")
            s = ad.parameter(rand(rng, 4, 1), "s")
            fn = lambda: ad.total_sum(tk.scale_rows(x, s))
            params = [x, s]
        elif op == "add_row":
            x = ad.parameter(rand(rng, 4, 3), "x")
            b = ad.parameter(rand(rng, 1, 3), "b")
            probe = ad.constant(rand(rng, 4, 3))
            fn = lambda: ad.total_sum(tk.mul(ad.add_row(x, b), probe))
            params = [x, b]
        elif op == "tile_rows":
            x = ad.parameter(rand(rng, 2, 3), "x")
            probe = ad.constant(rand(rng, 6, 3))
            fn = lambda: ad.total_sum(tk.mul(ad.tile_rows(x, 3), probe))
            params = [x]
        elif op == "row_sum":
            x = ad.parameter(rand(rng, 4, 3), "x")
            probe = ad.constant(rand(rng, 4, 1))
            fn = lambda: ad.total_sum(tk.mul(ad.row_sum(x), probe))
            params = [x]
        elif op == "block_row_dot":
            x = ad.parameter(rand(rng, 8, 3), "x")
            w = ad.parameter(rand(rng, 4, 3), "w")
            probe = ad.constant(rand(rng, 2, 4))
            fn = lambda: ad.total_sum(tk.mul(ad.block_row_dot(x, w), probe))
            params = [x, w]
        elif op == "clip":
            vals = rand(rng, 3, 3)
            vals[np.abs(vals - 0.5) < 1e-2] = 0.0   # keep away from clip edges
            x = ad.parameter(vals, "x")
            fn = lambda: ad.total_sum(tk.clip(x, -0.5, 0.5))
            params = [x]
        else:
            left = rand(rng, 3, 3)
            x = ad.parameter(rand(rng, 9, 4), "x")
            probe = ad.constant(rand(rng, 9, 4))
            fn = lambda: ad.total_sum(tk.mul(ad.block_matmul(left, x, 3), probe))
            params = [x]
        assert tk.check_gradients(fn, params).max_rel_error < 1e-6

    def test_all_primitives_pass_fd_for_100_seeds(self):
        # Composite touching every differentiable primitive, random smooth
        # probe points, relative error < 1e-4 per seed.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            w1 = ad.parameter(rand(rng, 3, 4), "w1")
            b1 = ad.parameter(rand(rng, 1, 4), "b1")
            w2 = ad.parameter(rand(rng, 4, 2), "w2")
            scales = ad.parameter(rng.random((6, 1)) + 0.5, "scales")
            x = ad.constant(rand(rng, 6, 3))
            left = rng.random((2, 2)) + 0.1
            probe = ad.constant(rand(rng, 6, 2))

            def loss_fn():
                h = ad.leaky_relu(ad.add_row(ad.matmul(x, w1), b1), 0.01)
                z = tk.scale_rows(ad.matmul(h, w2), scales)
                z = ad.block_matmul(left, z, 2)
                p = tk.clip(ad.sigmoid(z), 1e-9, 1 - 1e-9)
                t1 = ad.total_sum(tk.mul(tk.log(p), probe))
                t2 = ad.total_sum(tk.mul(ad.log_softmax_row(z), probe))
                t3 = tk.mean_all(tk.mul(tk.softmax_row(z), probe))
                t4 = ad.total_sum(ad.row_sum(tk.relu(tk.sub(z, ad.constant(
                    np.full((6, 2), 0.05))))))
                return tk.add(tk.add(tk.scale(t1, 0.3), tk.scale(t2, 0.5)),
                              tk.add(t3, tk.neg(tk.scale(t4, 0.1))))

            report = tk.check_gradients(loss_fn, [w1, b1, w2, scales])
            assert report.max_rel_error < 1e-4, f"seed {seed}: {report}"

    def test_primitives_are_deterministic(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 4, 4)
        a = tk.softmax_row(ad.sigmoid(ad.constant(x))).data
        b = tk.softmax_row(ad.sigmoid(ad.constant(x.copy()))).data
        assert a.tobytes() == b.tobytes()


class TestTape:
    """The tape keeps parents' entries and vjps, not values: a value that
    no vjp reads is freed while a loss built on it is alive, and replaying
    the tape leaves it as it was."""

    def test_matmul_output_under_add_row_is_freed(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rand(rng, 6, 3))
        w, b = ad.parameter(rand(rng, 3, 4)), ad.parameter(rand(rng, 1, 4))
        probe = ad.constant(rand(rng, 6, 4))
        product = ad.matmul(x, w)
        freed = weakref.ref(product.data)
        loss = ad.total_sum(tk.mul(ad.add_row(product, b), probe))
        del product
        assert freed() is None
        kept = ad.matmul(x, w)
        want = ad.gradients(
            ad.total_sum(tk.mul(ad.add_row(kept, b), probe)), [w, b])
        for got, expected in zip(ad.gradients(loss, [w, b]), want):
            assert got.tobytes() == expected.tobytes()

    def test_leaky_relu_output_under_block_matmul_is_freed(self):
        # the shape of the first graph convolution's output feeding the
        # second's propagation
        rng = np.random.default_rng(1)
        nodes = ad.parameter(rand(rng, 12, 4))
        w = ad.parameter(rand(rng, 4, 5))
        left = rng.random((3, 3))
        hidden = ad.leaky_relu(nodes, 0.01)
        freed = weakref.ref(hidden.data)
        loss = ad.total_sum(ad.matmul(ad.block_matmul(left, hidden, 3), w))
        del hidden
        assert freed() is None
        report = tk.check_gradients(lambda: ad.total_sum(ad.matmul(
            ad.block_matmul(left, ad.leaky_relu(nodes, 0.01), 3), w)),
            [nodes, w])
        assert report.max_rel_error < 1e-6
        kept = ad.leaky_relu(nodes, 0.01)
        want = ad.gradients(
            ad.total_sum(ad.matmul(ad.block_matmul(left, kept, 3), w)),
            [nodes, w])
        for got, expected in zip(ad.gradients(loss, [nodes, w]), want):
            assert got.tobytes() == expected.tobytes()

    def test_a_second_replay_gives_the_same_bits(self):
        rng = np.random.default_rng(2)
        w1, w2 = ad.parameter(rand(rng, 3, 4)), ad.parameter(rand(rng, 4, 2))
        x = ad.constant(rand(rng, 6, 3))
        h = ad.leaky_relu(ad.matmul(x, w1), 0.01)
        z = ad.matmul(h, w2)
        # z feeds three nodes, so its contributions are summed
        loss = tk.add(ad.total_sum(ad.sigmoid(z)),
                      tk.add(ad.total_sum(ad.log_softmax_row(z)),
                             ad.total_sum(ad.row_sum(z))))
        first = ad.gradients(loss, [w1, w2])
        second = ad.gradients(loss, [w1, w2])
        assert [g.tobytes() for g in first] == [g.tobytes() for g in second]
        assert all(g.any() for g in first)

    def test_a_loss_with_no_tracked_parent_gives_zeros(self):
        rng = np.random.default_rng(3)
        w = ad.parameter(rand(rng, 3, 4))
        loss = ad.total_sum(ad.matmul(ad.constant(rand(rng, 2, 3)),
                                      ad.constant(w.data.copy())))
        assert not loss.requires_grad
        (g,) = ad.gradients(loss, [w])
        assert g.shape == w.shape and not g.any()


def test_every_public_autodiff_name_has_a_caller():
    """Test-only primitives live in ``tape_kit``: every public def or class
    of ``autodiff`` is used by the package or the benchmark, as ``ad.X``,
    ``autodiff.X`` or ``from .autodiff import X``."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "aurelab"

    def parse(path):
        return ast.parse(path.read_text(), str(path))

    public = {n.name for n in parse(package / "autodiff.py").body
              if isinstance(n, (ast.FunctionDef, ast.ClassDef))
              and not n.name.startswith("_")}
    used = set()
    for path in (*package.glob("*.py"), *(root / "perfbench").glob("*.py")):
        if path.name == "autodiff.py":
            continue
        for n in ast.walk(parse(path)):
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in ("ad", "autodiff")):
                used.add(n.attr)
            elif (isinstance(n, ast.ImportFrom)
                  and n.module in ("autodiff", "aurelab.autodiff")):
                used.update(a.name for a in n.names)
    assert "gradients" in public
    assert sorted(public - used) == []
