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

    def test_einsum_all_rank_combos(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        v, w = rng.normal(size=4), rng.normal(size=3)

        rep = grad_check(lambda a, b: ad.einsum("ij,jk->ik", a, b).sum(), [A, B])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: ad.einsum("ij,j->i", a, b).sum(), [A, v])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: ad.einsum("i,ij->j", a, b).sum(), [w, A])
        assert rep.passed, rep
        rep = grad_check(lambda a, b: ad.einsum("i,i->", a, b), [v, v + 1.0])
        assert rep.passed, rep

    def test_grad_accumulates_until_cleared(self):
        x = Tensor(1.5)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == 4.0

    def test_second_backward_over_one_graph_doubles_leaf_gradient(self):
        x = Tensor(1.0)
        y = x * 2.0
        z = y * 3.0
        z.backward()
        z.backward()
        assert x.grad == 12.0

    def test_array_handed_to_two_parents_is_not_summed_in_place(self):
        # add returns (g, g); adding a's second gradient into that array in
        # place would leak it into b.
        x = Tensor(np.array([1.0, 2.0]))
        a = x * 2.0
        b = x * 3.0
        ((a + b) + a).sum().backward()
        np.testing.assert_array_equal(x.grad, [7.0, 7.0])

    def test_scatters_after_a_handed_array_add_into_a_copy(self):
        # c's rule hands one array to a and b; a then also receives two
        # Scatters, which must not add into the array b holds too.
        rng = np.random.default_rng(5)
        x, y = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(4, 3)))
        w, w1, w2 = (rng.normal(size=s) for s in [(4, 3), (2, 3), (3, 3)])
        a, b = x * 2.0, y * 3.0
        handed = []

        def rule(g):
            handed.append((g, g.copy()))
            return g, g

        c = Tensor(a.data + b.data, (a, b), "add", rule)
        rows1, rows2 = np.array([0, 2]), np.array([1, 1, 3])
        ((c * Tensor(w)).sum() + (a[rows1] * Tensor(w1)).sum()
         + (ad.gather_rows(a, rows2) * Tensor(w2)).sum()).backward()

        grad_a = w.copy()
        np.add.at(grad_a, rows1, w1)
        np.add.at(grad_a, rows2, w2)
        np.testing.assert_allclose(x.grad, 2.0 * grad_a, rtol=1e-15)
        np.testing.assert_allclose(y.grad, 3.0 * w, rtol=1e-15)
        [(array, before)] = handed
        np.testing.assert_array_equal(array, before)

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
        c = ad.einsum("iw,jw->ij", ad.l2_normalize_rows(a),
                      ad.l2_normalize_rows(b)).sum()
        c.backward()
        assert c.data == 0.0
        np.testing.assert_array_equal(b.grad, np.zeros((1, 3)))


class TestPooling:
    def test_kmax_identity_mean(self):
        # avg of k-max with k = length equals the plain mean.
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=9)
            got = Tensor(v).kmax(9).sum() * (1.0 / 9)
            assert abs(float(got.data) - v.mean()) < 1e-12

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
                out = ad.conv2d(x, Tensor(k))
                np.testing.assert_array_equal(out.data[0], x[i:i + 3, j:j + 3])

    def test_gradients(self):
        # Filters and bias only: the input is a constant array.
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        w = rng.normal(size=(3, 2, 2))
        b = rng.normal(size=3)
        rep = grad_check(lambda f, c: ad.conv2d(x, f, c).sum(), [w, b])
        assert rep.passed, rep

    @pytest.mark.parametrize("batch", [1, 3])
    def test_batched_gradients(self, batch):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(batch, 5, 6))
        rep = grad_check(lambda f, c: weighted_sum(ad.conv2d(x, f, c),
                                                   np.random.default_rng(7)),
                         [rng.normal(size=(3, 2, 2)), rng.normal(size=3)])
        assert rep.passed, rep

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_a_batch_convolves_each_image_as_alone(self, lead):
        # The same bits forward; the gradients add the images' terms in
        # another order.
        rng = np.random.default_rng(8)
        x = rng.normal(size=lead + (5, 7))
        w, b = Tensor(rng.normal(size=(4, 3, 3))), Tensor(rng.normal(size=4))
        g = rng.normal(size=lead + (4, 3, 5))
        out = ad.conv2d(x, w, b)
        assert out.shape == g.shape
        (out * g).sum().backward()
        batched = w.grad.copy(), b.grad.copy()
        w.grad = b.grad = None
        for image, image_g, image_out in zip(x.reshape(-1, 5, 7),
                                             g.reshape(-1, 4, 3, 5),
                                             out.data.reshape(-1, 4, 3, 5)):
            alone = ad.conv2d(image, w, b)
            np.testing.assert_array_equal(image_out, alone.data)
            (alone * image_g).sum().backward()  # leaf gradients add up
        np.testing.assert_allclose(batched[0], w.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched[1], b.grad, rtol=0, atol=1e-12)

    def test_pad_then_conv_preserves_shape(self):
        p = np.pad(np.ones((4, 5)), ((1, 1), (1, 1)))
        out = ad.conv2d(p, Tensor(np.ones((2, 3, 3))))
        assert out.data.shape == (2, 4, 5)

    def test_tensor_input_raises(self):
        with pytest.raises(TypeError):
            ad.conv2d(Tensor(np.ones((4, 5))), Tensor(np.ones((2, 3, 3))))


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

    def test_gather_rows_adds_into_the_leaf_gradient_row_by_row(self):
        # Bitwise what np.add.at straight into the leaf's gradient gives:
        # repeated rows add one after another onto what the leaf already
        # holds, never summed apart first.
        rng = np.random.default_rng(11)
        emb = Tensor(rng.normal(size=(50, 4)))
        expected = np.zeros((50, 4))
        for _ in range(3):
            idx = rng.integers(0, 10, size=40)
            w = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-8, 9, size=(40, 1))
            (ad.gather_rows(emb, idx) * Tensor(w)).sum().backward()
            np.add.at(expected, idx, w)
        assert emb.grad.tobytes() == expected.tobytes()

    def test_gather_rows_from_an_interior_tensor(self):
        rng = np.random.default_rng(12)
        rep = grad_check(
            lambda m, w: (ad.gather_rows(m * 2.0, [1, 1, 0]) * w).sum() + (m * m).sum(),
            [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))])
        assert rep.passed, rep

    def test_gather_rows_rejects_negative(self):
        with pytest.raises(ValueError):
            ad.gather_rows(Tensor(np.zeros((2, 2))), [-1])

    def test_add_rowvec(self):
        rng = np.random.default_rng(6)
        rep = grad_check(lambda m, v: ad.add_rowvec(m, v).sum(),
                         [rng.normal(size=(3, 4)), rng.normal(size=4)])
        assert rep.passed


def weighted_sum(t, rng):
    """A scalar that reads every entry of ``t`` with its own weight."""
    return (t * rng.normal(size=t.shape)).sum()


class TestPaddedBatchOps:
    """The ops of the padded scoring pass: finite differences, masks, and
    bits that do not depend on the batch or on trailing padding."""

    @pytest.mark.parametrize("spec,shapes", [
        ("bqw,bdw->bqd", [(2, 3, 4), (2, 5, 4)]),
        ("bqd,bdw->bqw", [(2, 3, 5), (2, 5, 4)]),
        ("...qw,...dw->...qd", [(3, 4), (5, 4)]),
        ("...f,f->...", [(2, 3, 4), (4,)]),
        ("ni,io->no", [(6, 4), (4, 3)]),
        ("b,->b", [(5,), ()]),
    ])
    def test_einsum_matches_finite_differences(self, spec, shapes):
        rng = np.random.default_rng(30)
        rep = grad_check(lambda *ts: weighted_sum(ad.einsum(spec, *ts),
                                                  np.random.default_rng(31)),
                         [rng.normal(size=s) for s in shapes])
        assert rep.passed, rep

    def test_einsum_array_operands_are_constants(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(4, 3))
        w = Tensor(rng.normal(size=3))
        y = ad.einsum("bf,f->b", x, w)
        assert y.parents == (w,)
        y.sum().backward()
        np.testing.assert_allclose(w.grad, x.sum(axis=0), rtol=1e-12)

    def test_einsum_without_a_rule_rejected(self):
        with pytest.raises(ValueError, match="no gradient rule"):
            ad.einsum("ij->i", Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError, match="no gradient rule"):
            ad.einsum("ii->i", Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("spec,a,b", [
        ("bqw,bdw->bqd", (3, 6), (9, 6)),
        ("bqd,bdw->bqw", (3, 9), (9, 6)),
        ("...f,f->...", (3, 7), (7,)),
    ])
    def test_einsum_row_bits_do_not_depend_on_the_batch(self, spec, a, b):
        # Each row alone against the same row inside a batch of 5, where the
        # other rows are padded further (zeros after the real entries).
        rng = np.random.default_rng(33)
        batch = [rng.normal(size=(5,) + a), rng.normal(size=(5,) + b)]
        if spec == "bqd,bdw->bqw":  # weights of padded terms are 0
            batch[0][1:, :, 5:] = 0.0
            batch[1][1:, 5:] = 0.0
        if spec == "...f,f->...":
            batch[1] = batch[1][0]
        together = ad.einsum(spec, *map(Tensor, batch)).data
        for i in range(5):
            alone = [batch[0][i:i + 1], batch[1] if batch[1].ndim == 1
                     else batch[1][i:i + 1]]
            if spec == "bqd,bdw->bqw" and i > 0:  # the row's real length alone
                alone = [alone[0][..., :5], alone[1][:, :5]]
            got = ad.einsum(spec, *map(Tensor, alone)).data[0]
            np.testing.assert_array_equal(together[i], got)

    def test_sum_adds_in_order_so_trailing_zeros_keep_its_bits(self):
        rng = np.random.default_rng(34)
        hits = 0
        for n in (7, 9, 100, 127, 128, 129, 200):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
            padded = np.concatenate([x, np.zeros(77)])
            in_order = 0.0
            for v in x:
                in_order += v
            assert Tensor(x).sum().data == in_order
            assert Tensor(padded).sum().data == in_order
            hits += np.sum(padded) != np.sum(x)  # numpy's own sum moves
        assert hits > 0

    def test_masked_softmax(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(2, 3, 6))
        mask = np.arange(6)[None, None, :] < np.array([4, 2])[:, None, None]
        big = x.copy()
        big[~np.broadcast_to(mask, x.shape)] = 1e6  # padding would win
        t = Tensor(big)
        y = t.softmax(mask=mask)
        for b, n in enumerate((4, 2)):
            np.testing.assert_array_equal(y.data[b, :, :n],
                                          Tensor(x[b, :, :n]).softmax().data)
            np.testing.assert_array_equal(y.data[b, :, n:], 0.0)
        weighted_sum(y, rng).backward()
        np.testing.assert_array_equal(t.grad[~np.broadcast_to(mask, x.shape)], 0.0)
        rep = grad_check(lambda z: weighted_sum(z.softmax(mask=mask),
                                                np.random.default_rng(36)), [x])
        assert rep.passed, rep
        with pytest.raises(ValueError, match="no unmasked cell"):
            Tensor(x).softmax(mask=np.zeros((2, 3, 6), dtype=bool))

    def test_masked_kmax(self):
        rng = np.random.default_rng(37)
        x = rng.choice([-1.0, -0.5, 0.25], size=(2, 3, 7))  # ties
        lengths = np.array([5, 2])
        mask = (np.arange(7) < lengths[:, None])[:, None, :]
        x[~np.broadcast_to(mask, x.shape)] = 9.0  # padding would win
        t = Tensor(x)
        top = t.kmax(4, mask)
        for b, n in enumerate(lengths):
            want = Tensor(x[b, :, :n]).kmax(min(4, n)).data
            np.testing.assert_array_equal(top.data[b, :, :len(want[0])], want)
            np.testing.assert_array_equal(top.data[b, :, n:], 0.0)
        weighted_sum(top, rng).backward()
        np.testing.assert_array_equal(t.grad[~np.broadcast_to(mask, x.shape)], 0.0)
        smooth = rng.normal(size=(2, 3, 7))
        rep = grad_check(lambda z: weighted_sum(z.kmax(4, mask),
                                                np.random.default_rng(38)),
                         [smooth])
        assert rep.passed, rep

    def test_l2_normalize_rows_of_an_nd_tensor(self):
        rng = np.random.default_rng(39)
        x = rng.normal(size=(2, 3, 4))
        x[1, 2] = 0.0
        y = ad.l2_normalize_rows(Tensor(x)).data
        for i in range(2):
            np.testing.assert_array_equal(y[i], ad.l2_normalize_rows(Tensor(x[i])).data)
        smooth = rng.normal(size=(2, 3, 4))
        rep = grad_check(lambda z: weighted_sum(ad.l2_normalize_rows(z),
                                                np.random.default_rng(40)),
                         [smooth])
        assert rep.passed, rep

    def test_pad_stacks_rows_with_zeros_after_each(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(2, 2)), rng.normal(size=(1, 2))
        y = ad.pad([Tensor(a), Tensor(b)], 3)
        np.testing.assert_array_equal(y.data[0, :2], a)
        np.testing.assert_array_equal(y.data[1, :1], b)
        np.testing.assert_array_equal(y.data[0, 2:], 0.0)
        np.testing.assert_array_equal(y.data[1, 1:], 0.0)
        # One tensor in two rows gets the gradient of both.
        rep = grad_check(lambda s, t: weighted_sum(ad.pad([s, t, s], 3),
                                                   np.random.default_rng(42)),
                         [a, b])
        assert rep.passed, rep

    def test_add_rowvec_of_a_scalar(self):
        rng = np.random.default_rng(43)
        rep = grad_check(lambda m, v: weighted_sum(ad.add_rowvec(m, v),
                                                   np.random.default_rng(44)),
                         [rng.normal(size=(2, 3)), rng.normal(size=())])
        assert rep.passed, rep
        with pytest.raises(ValueError):
            ad.add_rowvec(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))


class TestRandomGraphs:
    def test_random_five_op_graphs_match_finite_differences(self):
        # Chains of mixed ops, checked against central differences.
        rng = np.random.default_rng(7)
        for trial in range(10):
            W = rng.normal(size=(4, 4))
            v = rng.normal(size=4)
            u = rng.normal(size=4)

            def f(Wt, vt, ut):
                h = ad.l2_normalize_rows(ad.einsum("ij,j->i", Wt, vt))
                s = h.softmax()
                z = ad.l2_normalize_rows(s * ut)
                return ad.einsum("i,i->", z, h.relu()) + z.sum() * 0.25

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
        rep = grad_check(lambda *_: ad.einsum("i,i->", ad.einsum("ij,j->i", w, x).softmax(), x), [w, x])
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
        traced = (Tensor(v).softmax() * 3.0).sum().data
        with ad.no_grad():
            plain = (Tensor(v).softmax() * 3.0).sum().data
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

    def test_leaves_never_share_a_gradient_buffer(self):
        # add hands one array to both parents; each leaf must own a copy,
        # or clipping would scale the shared buffer twice.
        ps = ParameterSet()
        a = ps.add("a", np.zeros(2))
        b = ps.add("b", np.zeros(2))
        (a + b).sum().backward()
        assert a.grad is not b.grad
        assert ps.clip_grad_norm(1.0) == pytest.approx(2.0)
        np.testing.assert_allclose(a.grad, [0.5, 0.5], rtol=1e-15)
        np.testing.assert_allclose(b.grad, [0.5, 0.5], rtol=1e-15)

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

    def test_checkpoint_duplicate_name_is_checkpoint_error(self, tmp_path):
        ps = ParameterSet()
        ps.add("w", np.ones(2))
        ps.add("v", np.ones(2))
        path = tmp_path / "model.ckpt"
        ad.save_params(path, ps)
        path.write_bytes(path.read_bytes().replace(b"\x01\x00v", b"\x01\x00w"))
        with pytest.raises(CheckpointError, match="duplicate parameter name 'w' at offset 36"):
            ad.load_params(path)

    def test_checkpoint_name_not_utf8_reports_offset(self, tmp_path):
        ps = ParameterSet()
        ps.add("ab", np.ones(2))
        path = tmp_path / "model.ckpt"
        ad.save_params(path, ps)
        path.write_bytes(path.read_bytes().replace(b"ab", b"\xff\xfe"))
        with pytest.raises(CheckpointError, match="invalid UTF-8 at offset 14"):
            ad.load_params(path)
