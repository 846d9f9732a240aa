"""Unit tests for the reverse-mode autodiff engine."""

import numpy as np
import pytest

from relrank import autodiff as ad
from relrank.autodiff import (
    CheckpointError,
    GradCheckError,
    ParameterSet,
    Tensor,
    grad_check,
)


class TestBasicOps:
    def test_product_rule(self):
        x = Tensor(2.0)
        y = Tensor(3.0)
        z = x * y
        z.backward()
        assert x.grad == 3.0
        assert y.grad == 2.0

    def test_add_sub_scalars(self):
        x = Tensor(np.array([1.0, 2.0]))
        out = ((x + 1.0) - 0.5).sum()
        out.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(2)) + Tensor(np.zeros(3))

    def test_non_scalar_backward_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).backward()

    def test_matmul_all_rank_combos(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        v, w = rng.normal(size=4), rng.normal(size=3)

        rep = grad_check(lambda a, b: (a @ b).sum(), [A, B])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: (a @ b).sum(), [A, v])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: (a @ b).sum(), [w, A])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: a @ b, [v, v + 1.0])
        assert rep.passed, rep

    def test_grad_accumulates_until_cleared(self):
        x = Tensor(1.5)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == 4.0

    def test_unreachable_tensor_reads_zero_grad(self):
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3))
        (x.sum()).backward()
        np.testing.assert_array_equal(y.grad, np.zeros(3))


class TestSoftmax:
    def test_uniform_logits(self):
        out = Tensor(np.array([0.0, 0.0])).softmax()
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=(4, 7)) * 10.0
            y = Tensor(x).softmax(axis=1)
            np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(y.data >= 0.0)

    def test_jacobian_rows_sum_to_zero(self):
        # d(softmax)/dx applied to a one-hot upstream gradient sums to 0.
        x = Tensor(np.array([0.0, 0.0]))
        y = x.softmax()
        y[0].backward()
        assert abs(x.grad.sum()) < 1e-15

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.0])
        a = Tensor(x).softmax()
        b = Tensor(x + 17.0).softmax()
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_stable_for_large_logits(self):
        y = Tensor(np.array([1000.0, 0.0])).softmax()
        assert np.isfinite(y.data).all()


class TestNormalization:
    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        y = ad.l2_normalize_rows(Tensor(rng.normal(size=(20, 6))))
        np.testing.assert_allclose(np.linalg.norm(y.data, axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_zero_vector_passthrough(self):
        x = Tensor(np.zeros((2, 4)))
        y = ad.l2_normalize_rows(x)
        (y.sum()).backward()
        np.testing.assert_array_equal(y.data, np.zeros((2, 4)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 4)))

    def test_rows_variant_with_zero_row(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0]])
        x = Tensor(m)
        y = ad.l2_normalize_rows(x)
        y.sum().backward()
        np.testing.assert_allclose(y.data[0], [0.6, 0.8])
        np.testing.assert_array_equal(y.data[1], [0.0, 0.0])
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_cosine_zero_norm_is_zero(self):
        # A cosine of normalized rows is 0 against a zero row, and no
        # gradient reaches the other side through it.
        a = Tensor(np.zeros((1, 3)))
        b = Tensor(np.ones((1, 3)))
        c = (ad.l2_normalize_rows(a) @ ad.l2_normalize_rows(b).T).sum()
        c.backward()
        assert c.data == 0.0
        np.testing.assert_array_equal(b.grad, np.zeros((1, 3)))


class TestPooling:
    def test_kmax_identity_mean(self):
        # avg of k-max with k = length equals the plain mean.
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=9)
            got = Tensor(v).kmax(9).mean()
            assert abs(got.item() - v.mean()) < 1e-12

    def test_kmax_tie_prefers_earlier_index(self):
        x = Tensor(np.array([1.0, 2.0, 2.0, 0.0]))
        y = x.kmax(1)
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_kmax_sorted_descending(self):
        y = Tensor(np.array([0.1, 0.9, 0.5])).kmax(2)
        np.testing.assert_array_equal(y.data, [0.9, 0.5])

    def test_kmax_2d_rows(self):
        m = np.array([[0.4, 0.9, 0.1], [0.2, 0.2, 0.8]])
        y = Tensor(m).kmax(2)
        np.testing.assert_array_equal(y.data, [[0.9, 0.4], [0.8, 0.2]])

    def test_max_axis_tie_gradient(self):
        m = Tensor(np.array([[2.0, 2.0], [1.0, 3.0]]))
        y = m.max(axis=1)
        y.sum().backward()
        np.testing.assert_array_equal(m.grad, [[1.0, 0.0], [0.0, 1.0]])

    def test_kmax_too_large_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).kmax(4)


class TestConv2d:
    def test_identity_kernel_reproduces_windows(self):
        # A single one-hot kernel picks out the corresponding input window,
        # checked exhaustively over all positions of a 4x4 input.
        x = np.arange(16, dtype=float).reshape(4, 4)
        for i in range(2):
            for j in range(2):
                k = np.zeros((1, 2, 2))
                k[0, i, j] = 1.0
                out = ad.conv2d(Tensor(x), Tensor(k))
                np.testing.assert_array_equal(out.data[0], x[i:i + 3, j:j + 3])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        w = rng.normal(size=(3, 2, 2))
        b = rng.normal(size=3)
        rep = grad_check(lambda a, f, c: ad.conv2d(a, f, c).sum(), [x, w, b])
        assert rep.passed, rep

    def test_pad_then_conv_preserves_shape(self):
        x = Tensor(np.ones((4, 5)))
        p = ad.pad2d(x, (1, 1), (1, 1))
        out = ad.conv2d(p, Tensor(np.ones((2, 3, 3))))
        assert out.data.shape == (2, 4, 5)


class TestShaping:
    def test_concat_and_slice_roundtrip(self):
        a = Tensor(np.array([1.0, 2.0]))
        b = Tensor(np.array([3.0]))
        c = ad.concat([a, b])
        c[2].backward()
        np.testing.assert_array_equal(b.grad, [1.0])
        np.testing.assert_array_equal(a.grad, [0.0, 0.0])

    def test_stack_gradients(self):
        rng = np.random.default_rng(5)
        rows = [rng.normal(size=3) for _ in range(4)]
        rep = grad_check(lambda *ts: ad.stack(ts).sum(), rows)
        assert rep.passed

    def test_gather_rows_accumulates_repeats(self):
        m = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        out = ad.gather_rows(m, [1, 1, 0])
        out.sum().backward()
        np.testing.assert_array_equal(m.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_gather_rows_rejects_negative(self):
        with pytest.raises(ValueError):
            ad.gather_rows(Tensor(np.zeros((2, 2))), [-1])

    def test_add_rowvec(self):
        rng = np.random.default_rng(6)
        rep = grad_check(lambda m, v: ad.add_rowvec(m, v).sum(),
                         [rng.normal(size=(3, 4)), rng.normal(size=4)])
        assert rep.passed

    def test_transpose_values_and_gradient(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 5))
        t = Tensor(a)
        np.testing.assert_array_equal(t.T.data, a.T)
        rep = grad_check(lambda m, w: (m.T @ w).sum(),
                         [a, rng.normal(size=(3, 2))])
        assert rep.passed
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).transpose()


class TestRandomGraphs:
    def test_random_five_op_graphs_match_finite_differences(self):
        # Chains of mixed ops, checked against central differences.
        rng = np.random.default_rng(7)
        for trial in range(10):
            W = rng.normal(size=(4, 4))
            v = rng.normal(size=4)
            u = rng.normal(size=4)

            def f(Wt, vt, ut):
                h = (Wt @ vt).tanh()
                s = h.softmax()
                z = (s * ut).sigmoid()
                return ad.dot(z, h.relu()) + z.mean()

            rep = grad_check(f, [W, v, u])
            assert rep.passed, f"trial {trial}: {rep}"

    def test_polynomial_is_near_exact(self):
        # f(x) = sum(x^2) has gradient 2x; central differences are exact on
        # quadratics up to roundoff.
        x = np.array([1.0, -2.0, 3.0])
        rep = grad_check(lambda t: (t * t).sum(), [x], h=1e-4)
        assert rep.max_rel_error < 1e-8

    def test_forward_is_pure(self):
        x = Tensor(np.linspace(-1, 1, 8))
        a = x.softmax().data.copy()
        b = x.softmax().data.copy()
        assert np.array_equal(a, b)

    def test_nondeterministic_function_aborts(self):
        state = {"n": 0}

        def f(t):
            state["n"] += 1
            return (t * float(state["n"])).sum()

        with pytest.raises(GradCheckError):
            grad_check(f, [np.ones(2)])


class TestGradCheckInPlace:
    def test_tensor_inputs_are_perturbed_in_place_and_restored(self):
        # f ignores its arguments and reads the tensor through a closure,
        # as a model reads its own parameters.
        w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]))
        original = w.data
        before = original.copy()
        x = Tensor(np.array([0.3, -0.7]))
        rep = grad_check(lambda *_: (w @ x).tanh().sum(), [w, x])
        assert rep.passed, rep
        assert w.data is original
        np.testing.assert_array_equal(w.data, before)

    def test_wrong_gradient_through_a_tensor_input_fails(self):
        w = Tensor(np.array([0.5, -1.0]))

        def f(*_):
            return Tensor(w.data * 2.0).sum()  # reads w outside the graph

        assert not grad_check(f, [w]).passed


class TestNoGrad:
    def test_no_graph_is_built(self):
        with ad.no_grad():
            x = Tensor(np.ones(3))
            y = (x * 2.0).sum()
        assert y.parents == ()
        assert y._backward is None

    def test_values_match_traced_mode(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=5)
        traced = (Tensor(v).softmax() * 3.0).sum().item()
        with ad.no_grad():
            plain = (Tensor(v).softmax() * 3.0).sum().item()
        assert traced == plain


class TestParameterSet:
    def test_duplicate_name_rejected(self):
        ps = ParameterSet()
        ps.add("w", np.zeros(2))
        with pytest.raises(ValueError):
            ps.add("w", np.zeros(2))

    def test_clip_grad_norm(self):
        ps = ParameterSet()
        t = ps.add("w", np.zeros(4))
        t.grad = np.full(4, 10.0)
        norm = ps.clip_grad_norm(5.0)
        assert norm == pytest.approx(20.0)
        assert ps.grad_norm() == pytest.approx(5.0)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        ps = ParameterSet()
        ps.add("enc.fw.W", rng.normal(size=(8, 2)))
        ps.add("scalar", rng.normal())
        ps.add("vec", rng.normal(size=5))
        path = tmp_path / "model.ckpt"
        ad.save_params(path, ps)
        loaded = ad.load_params(path)
        assert loaded.names() == ps.names()
        for name in ps.names():
            # Shape must survive too: a 0-d scalar must not come back as (1,).
            assert loaded[name].data.shape == ps[name].data.shape
            np.testing.assert_array_equal(loaded[name].data, ps[name].data)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            ad.load_params(path)

    def test_checkpoint_truncated(self, tmp_path):
        ps = ParameterSet()
        ps.add("w", np.ones((3, 3)))
        path = tmp_path / "model.ckpt"
        ad.save_params(path, ps)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CheckpointError):
            ad.load_params(path)

    def test_checkpoint_trailing_bytes(self, tmp_path):
        ps = ParameterSet()
        ps.add("w", np.ones((3, 3)))
        path = tmp_path / "model.ckpt"
        ad.save_params(path, ps)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(CheckpointError, match="trailing bytes at offset 96"):
            ad.load_params(path)
