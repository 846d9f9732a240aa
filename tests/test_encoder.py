"""Tests for the residual bidirectional LSTM encoder."""

import numpy as np
import pytest

from relrank.autodiff import ParameterSet, Tensor, gather_rows, grad_check, no_grad
from relrank.encoder import BiRnnEncoder, LstmCell, orthogonal_matrix
from relrank.errors import ConfigError
from relrank.models import build_model


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_bptt(x, w_in, w_rec, bias, order, grad_h):
    """Plain-numpy BPTT for one direction, one step at a time.

    ``grad_h[pos]`` is d(loss)/d(hidden state at pos); returns the
    hidden states and the gradients of x, w_in, w_rec and bias.
    """
    d = x.shape[1]
    h = np.zeros(d)
    c = np.zeros(d)
    hidden = np.zeros_like(x)
    saved = []
    for pos in order:
        z = x[pos] @ w_in + w_rec @ h + bias
        gi, gf, go = sigmoid(z[0:d]), sigmoid(z[d:2 * d]), sigmoid(z[2 * d:3 * d])
        cand = np.tanh(z[3 * d:4 * d])
        c_new = gf * c + gi * cand
        saved.append((pos, h, c, gi, gf, go, cand, np.tanh(c_new)))
        h, c = go * np.tanh(c_new), c_new
        hidden[pos] = h
    dx, dw_in = np.zeros_like(x), np.zeros_like(w_in)
    dw_rec, dbias = np.zeros_like(w_rec), np.zeros_like(bias)
    dh_next, dc_next = np.zeros(d), np.zeros(d)
    for pos, h_prev, c_prev, gi, gf, go, cand, tc in reversed(saved):
        dh = grad_h[pos] + dh_next
        dc = dc_next + dh * go * (1.0 - tc ** 2)
        dz = np.concatenate([dc * cand * gi * (1.0 - gi),
                             dc * c_prev * gf * (1.0 - gf),
                             dh * tc * go * (1.0 - go),
                             dc * gi * (1.0 - cand ** 2)])
        dw_rec += np.outer(dz, h_prev)
        dbias += dz
        dw_in += np.outer(x[pos], dz)
        dx[pos] += w_in @ dz
        dh_next = w_rec.T @ dz
        dc_next = dc * gf
    return hidden, dx, dw_in, dw_rec, dbias


def reachable_nodes(out):
    seen, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.parents)
    return len(seen)


def reference_encode(x, enc):
    n = x.shape[0]
    halves = []
    for cell, order in [(enc.forward_cell, range(n)),
                        (enc.backward_cell, range(n - 1, -1, -1))]:
        hidden = reference_bptt(x, cell.w_in.data, cell.w_rec.data,
                                cell.bias.data, order, np.zeros_like(x))[0]
        halves.append(hidden + x)
    return np.concatenate(halves, axis=1)


def zero_cell(cell):
    cell.w_in.data[:] = 0.0
    cell.w_rec.data[:] = 0.0
    cell.bias.data[:] = 0.0


class TestInitialization:
    def test_orthogonal_blocks(self):
        rng = np.random.default_rng(1)
        q = orthogonal_matrix(rng, 5)
        np.testing.assert_allclose(q @ q.T, np.eye(5), atol=1e-12)
        # Deterministic for a fixed stream.
        q2 = orthogonal_matrix(np.random.default_rng(1), 5)
        np.testing.assert_array_equal(q, q2)

    def test_recurrent_matrix_is_stacked_orthogonal(self):
        cell = LstmCell(4, np.random.default_rng(2))
        for g in range(4):
            block = cell.w_rec.data[4 * g:4 * (g + 1)]
            np.testing.assert_allclose(block @ block.T, np.eye(4), atol=1e-12)

    def test_forget_bias_one_rest_zero(self):
        d = 3
        cell = LstmCell(d, np.random.default_rng(3))
        np.testing.assert_array_equal(cell.bias.data[d:2 * d], 1.0)
        np.testing.assert_array_equal(cell.bias.data[:d], 0.0)
        np.testing.assert_array_equal(cell.bias.data[2 * d:3 * d], 0.0)
        np.testing.assert_array_equal(cell.bias.data[3 * d:], 0.0)

    def test_input_weights_bounded(self):
        d = 9
        cell = LstmCell(d, np.random.default_rng(4))
        assert np.abs(cell.w_in.data).max() <= 1.0 / np.sqrt(d)


class TestEncode:
    def test_zero_weights_give_residual_only(self):
        rng = np.random.default_rng(5)
        enc = BiRnnEncoder(3, rng)
        zero_cell(enc.forward_cell)
        zero_cell(enc.backward_cell)
        x = rng.standard_normal((4, 3))
        out = enc.encode(Tensor(x)).data
        np.testing.assert_array_equal(out[:, :3], x)
        np.testing.assert_array_equal(out[:, 3:], x)

    def test_single_term_tied_weights_symmetric(self):
        rng = np.random.default_rng(6)
        enc = BiRnnEncoder(4, rng)
        for attr in ("w_in", "w_rec", "bias"):
            getattr(enc.backward_cell, attr).data[:] = getattr(
                enc.forward_cell, attr).data
        x = rng.standard_normal((1, 4))
        out = enc.encode(Tensor(x)).data
        np.testing.assert_array_equal(out[0, :4], out[0, 4:])

    def test_two_term_sequence_matches_reference(self):
        rng = np.random.default_rng(7)
        enc = BiRnnEncoder(3, rng)
        x = rng.standard_normal((2, 3))
        got = enc.encode(Tensor(x)).data
        want = reference_encode(x, enc)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_longer_sequences_match_reference(self):
        rng = np.random.default_rng(8)
        for n in [1, 3, 7, 12]:
            enc = BiRnnEncoder(5, rng)
            x = rng.standard_normal((n, 5))
            np.testing.assert_allclose(enc.encode(Tensor(x)).data,
                                       reference_encode(x, enc),
                                       rtol=1e-12, atol=1e-14)

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        enc = BiRnnEncoder(6, rng)
        for n in [1, 2, 9]:
            out = enc.encode(Tensor(rng.standard_normal((n, 6))))
            assert out.shape == (n, 12)

    def test_dim_mismatch_rejected(self):
        enc = BiRnnEncoder(4, np.random.default_rng(10))
        with pytest.raises(ConfigError, match="expects"):
            enc.encode(Tensor(np.zeros((3, 5))))
        with pytest.raises(ConfigError):
            enc.encode(Tensor(np.zeros(4)))

    def test_every_position_sees_whole_sequence(self):
        # Perturbing the last input must move the first output (via the
        # backward pass) and vice versa.
        rng = np.random.default_rng(11)
        enc = BiRnnEncoder(3, rng)
        x = rng.standard_normal((5, 3))
        base = enc.encode(Tensor(x)).data
        bumped = x.copy()
        bumped[-1] += 0.7
        out = enc.encode(Tensor(bumped)).data
        assert np.abs(out[0] - base[0]).max() > 0
        bumped = x.copy()
        bumped[0] += 0.7
        out = enc.encode(Tensor(bumped)).data
        assert np.abs(out[-1] - base[-1]).max() > 0


class TestReversalProperty:
    def test_swap_cells_and_reverse_input(self):
        rng = np.random.default_rng(12)
        enc = BiRnnEncoder(4, rng)
        swapped = BiRnnEncoder(4, np.random.default_rng(0))
        swapped.forward_cell = enc.backward_cell
        swapped.backward_cell = enc.forward_cell
        x = rng.standard_normal((6, 4))
        a = enc.encode(Tensor(x)).data
        b = swapped.encode(Tensor(x[::-1].copy())).data
        # Reverse positions, swap halves: must match bitwise.
        realigned = np.concatenate([b[::-1, 4:], b[::-1, :4]], axis=1)
        np.testing.assert_array_equal(a, realigned)


class TestGradients:
    def test_grad_check_all_params_and_input(self):
        rng = np.random.default_rng(13)
        d, n = 3, 4
        enc = BiRnnEncoder(d, rng)
        x = rng.standard_normal((n, d)) * 0.5
        arrays = [enc.forward_cell.w_in.data.copy(),
                  enc.forward_cell.w_rec.data.copy(),
                  enc.forward_cell.bias.data.copy(),
                  enc.backward_cell.w_in.data.copy(),
                  enc.backward_cell.w_rec.data.copy(),
                  enc.backward_cell.bias.data.copy(),
                  x]

        def f(wf, uf, bf, wb, ub, bb, xs):
            enc.forward_cell.w_in = wf
            enc.forward_cell.w_rec = uf
            enc.forward_cell.bias = bf
            enc.backward_cell.w_in = wb
            enc.backward_cell.w_rec = ub
            enc.backward_cell.bias = bb
            out = enc.encode(xs)
            return (out * out).sum()

        report = grad_check(f, arrays, tol=1e-4)
        assert report.passed, report

    def test_long_sequence_backward_no_recursion_blowup(self):
        rng = np.random.default_rng(14)
        enc = BiRnnEncoder(2, rng)
        params = ParameterSet(enc.parameters())
        x = Tensor(rng.standard_normal((300, 2)))
        out = enc.encode(x)
        loss = (out * out).sum()
        loss.backward()
        assert params["encoder.fwd.w_in"].grad.shape == (2, 8)
        assert np.isfinite(params.grad_norm())


def sweep_one(cell, x, reverse):
    """One sequence through ``LstmCell.sweep``: the block of one."""
    return cell.sweep(x, np.array([x.shape[0]]), reverse=reverse)


class TestFusedDirection:
    """``LstmCell.sweep`` is one autodiff node per direction with
    hand-written BPTT; here on the block of one."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_numpy_bptt_oracle(self, n, reverse):
        rng = np.random.default_rng(100 + n)
        d = 3
        cell = LstmCell(d, rng)
        cell.bias.data[:] = rng.standard_normal(4 * d)
        xs = rng.standard_normal((n, d))
        grad_h = rng.standard_normal((n, d))
        x = Tensor(xs.copy())
        out = sweep_one(cell, x, reverse)
        assert len(out.parents) == 4  # x, w_in, w_rec, bias: one node
        (out * Tensor(grad_h)).sum().backward()
        order = range(n - 1, -1, -1) if reverse else range(n)
        hidden, dx, dw_in, dw_rec, dbias = reference_bptt(
            xs, cell.w_in.data, cell.w_rec.data, cell.bias.data, order, grad_h)
        np.testing.assert_allclose(out.data, hidden, rtol=1e-12, atol=1e-14)
        for got, want in [(x.grad, dx), (cell.w_in.grad, dw_in),
                          (cell.w_rec.grad, dw_rec), (cell.bias.grad, dbias)]:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_grad_check(self, n, reverse):
        rng = np.random.default_rng(200 + n)
        d = 3
        cell = LstmCell(d, rng)
        weights = rng.standard_normal((n, d))

        def f(w_in, w_rec, bias, x):
            cell.w_in, cell.w_rec, cell.bias = w_in, w_rec, bias
            return (sweep_one(cell, x, reverse) * Tensor(weights)).sum()

        report = grad_check(f, [cell.w_in.data.copy(), cell.w_rec.data.copy(),
                                rng.standard_normal(4 * d),
                                rng.standard_normal((n, d))], tol=1e-6)
        assert report.passed, report

    def test_gradient_reaches_gathered_embeddings_through_dropout(self):
        rng = np.random.default_rng(17)
        enc = BiRnnEncoder(3, rng, dropout=0.4)
        table = rng.standard_normal((6, 3))
        rows = [4, 1, 4, 0, 2]  # row 4 twice, rows 3 and 5 unused
        weights = rng.standard_normal((len(rows), 6))

        def f(emb):
            out = enc.encode(gather_rows(emb, rows),
                             dropout_rng=np.random.default_rng(3))
            return (out * Tensor(weights)).sum()

        report = grad_check(f, [table], tol=1e-6)
        assert report.passed, report
        emb = Tensor(table.copy())
        f(emb).backward()
        np.testing.assert_array_equal(emb.grad[[3, 5]], 0.0)
        assert np.all(np.abs(emb.grad[[0, 1, 2, 4]]).sum(axis=1) > 0.0)
        # A dropped input carries no gradient back to its (single-use) row.
        keep = np.random.default_rng(3).random((len(rows), 3)) >= 0.4
        for pos in (1, 3, 4):
            np.testing.assert_array_equal(emb.grad[rows[pos]][~keep[pos]], 0.0)
        assert not keep.all()
        dropped = enc.encode(Tensor(table[rows]), np.random.default_rng(3))
        assert np.abs(dropped.data - enc.encode(Tensor(table[rows])).data).max() > 0

    def test_graph_size_independent_of_length(self):
        rng = np.random.default_rng(18)
        enc = BiRnnEncoder(4, rng)
        sizes = {n: reachable_nodes(enc.encode(Tensor(rng.standard_normal((n, 4)))))
                 for n in [1, 5, 60]}
        assert len(set(sizes.values())) == 1, sizes

    def test_step_runs_once_per_token_per_direction(self, monkeypatch):
        calls = []
        original = LstmCell.step

        def counted(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(LstmCell, "step", counted)
        enc = BiRnnEncoder(3, np.random.default_rng(19))
        enc.encode(Tensor(np.ones((9, 3))))
        assert calls.count(enc.forward_cell) == 9
        assert calls.count(enc.backward_cell) == 9


# Ragged blocks: a 1-token sequence among longer ones, all of one length,
# and all of length one.
BLOCKS = [(5, 1, 7, 7, 3, 1), (4, 4, 4), (1, 1)]


def set_cell_params(cell, w_in, w_rec, bias):
    cell.w_in, cell.w_rec, cell.bias = w_in, w_rec, bias


class TestBlockBackward:
    """BPTT over a length-sorted block, against per-sequence oracles."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", BLOCKS)
    def test_block_matches_numpy_bptt_of_each_sequence(self, lengths, reverse):
        rng = np.random.default_rng(300 + sum(lengths))
        d = 3
        cell = LstmCell(d, rng)
        cell.bias.data[:] = rng.standard_normal(4 * d)
        xs = [rng.standard_normal((n, d)) for n in lengths]
        grads_h = [rng.standard_normal((n, d)) for n in lengths]
        x = Tensor(np.concatenate(xs))
        out = cell.sweep(x, np.array(lengths), reverse=reverse)
        assert len(out.parents) == 4  # the whole block is one node
        (out * Tensor(np.concatenate(grads_h))).sum().backward()
        want = [np.zeros_like(t.data) for t in (cell.w_in, cell.w_rec, cell.bias)]
        hidden, dx = [], []
        for xi, gi in zip(xs, grads_h):
            n = len(xi)
            order = range(n - 1, -1, -1) if reverse else range(n)
            h, dxi, *dparams = reference_bptt(xi, cell.w_in.data, cell.w_rec.data,
                                              cell.bias.data, order, gi)
            hidden.append(h)
            dx.append(dxi)
            for total, part in zip(want, dparams):
                total += part
        np.testing.assert_allclose(out.data, np.concatenate(hidden),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(x.grad, np.concatenate(dx), rtol=1e-12, atol=1e-13)
        for got, total in zip((cell.w_in.grad, cell.w_rec.grad, cell.bias.grad), want):
            np.testing.assert_allclose(got, total, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("lengths", BLOCKS)
    def test_block_grad_check(self, lengths, reverse):
        rng = np.random.default_rng(400 + sum(lengths))
        d = 3
        cell = LstmCell(d, rng)
        weights = rng.standard_normal((sum(lengths), d))

        def f(w_in, w_rec, bias, x):
            set_cell_params(cell, w_in, w_rec, bias)
            out = cell.sweep(x, np.array(lengths), reverse=reverse)
            return (out * Tensor(weights)).sum()

        report = grad_check(f, [cell.w_in.data.copy(), cell.w_rec.data.copy(),
                                rng.standard_normal(4 * d),
                                rng.standard_normal((sum(lengths), d))], tol=1e-6)
        assert report.passed, report

    @pytest.mark.parametrize("lengths", BLOCKS)
    def test_encode_batch_grad_check(self, lengths):
        # Both directions, the residual and the split into items.
        rng = np.random.default_rng(500 + sum(lengths))
        d = 2
        enc = random_encoder(d, rng)
        weights = [rng.standard_normal((n, 2 * d)) for n in lengths]
        cells = (enc.forward_cell, enc.backward_cell)
        params = [t.data.copy() for cell in cells
                  for t in (cell.w_in, cell.w_rec, cell.bias)]

        def f(*tensors):
            for k, cell in enumerate(cells):
                set_cell_params(cell, *tensors[3 * k:3 * k + 3])
            outs = enc.encode_batch(list(tensors[6:]))
            return sum((o * Tensor(w)).sum() for o, w in zip(outs, weights))

        report = grad_check(f, params + [rng.standard_normal((n, d)) * 0.5
                                         for n in lengths], tol=1e-6)
        assert report.passed, report

    def test_block_gradients_are_the_sum_over_sequences_alone(self):
        rng = np.random.default_rng(37)
        d = 3
        enc = random_encoder(d, rng)
        params = ParameterSet(enc.parameters())
        lengths = (6, 1, 9, 6, 2)
        arrays = [rng.standard_normal((n, d)) for n in lengths]
        weights = [rng.standard_normal((n, 2 * d)) for n in lengths]
        xs = [Tensor(a.copy()) for a in arrays]
        sum((o * Tensor(w)).sum()
            for o, w in zip(enc.encode_batch(xs), weights)).backward()
        block = {name: t.grad.copy() for name, t in params.items()}
        params.zero_grad()
        alone = [Tensor(a.copy()) for a in arrays]
        for x, w in zip(alone, weights):
            (enc.encode(x) * Tensor(w)).sum().backward()  # leaf grads add up
        for name, t in params.items():
            np.testing.assert_allclose(block[name], t.grad, rtol=1e-12, atol=1e-12,
                                       err_msg=name)
        for x, y in zip(xs, alone):
            np.testing.assert_allclose(x.grad, y.grad, rtol=1e-12, atol=1e-12)

    def test_graph_size_independent_of_lengths(self):
        rng = np.random.default_rng(38)
        enc = BiRnnEncoder(4, rng)
        sizes = set()
        for lengths in [(1, 1, 1), (5, 2, 9), (60, 1, 33)]:
            outs = enc.encode_batch([Tensor(rng.standard_normal((n, 4)))
                                     for n in lengths])
            sizes.add(reachable_nodes(sum(o.sum() for o in outs)))
        assert len(sizes) == 1, sizes

    def test_gates_kept_only_with_gradients(self, monkeypatch):
        kept = []
        original = LstmCell.scan

        def recorded(self, zx, lengths, saved=None):
            kept.append(saved is not None)
            return original(self, zx, lengths, saved)

        monkeypatch.setattr(LstmCell, "scan", recorded)
        enc = BiRnnEncoder(3, np.random.default_rng(39))
        xs = [Tensor(np.ones((n, 3))) for n in (4, 2)]
        with no_grad():
            enc.encode_batch(xs)
        assert kept == [False, False]
        enc.encode_batch(xs)
        assert kept == [False, False, True, True]


class TestDropout:
    def test_off_by_default(self):
        rng = np.random.default_rng(15)
        enc = BiRnnEncoder(3, rng)
        x = Tensor(rng.standard_normal((4, 3)))
        a = enc.encode(x, dropout_rng=np.random.default_rng(1)).data
        b = enc.encode(x).data
        np.testing.assert_array_equal(a, b)

    def test_masks_inputs_when_enabled(self):
        rng = np.random.default_rng(16)
        enc = BiRnnEncoder(3, rng, dropout=0.5)
        x = Tensor(rng.standard_normal((6, 3)))
        a = enc.encode(x, dropout_rng=np.random.default_rng(2)).data
        b = enc.encode(x).data  # no rng -> evaluation mode, no masking
        assert np.abs(a - b).max() > 0
        # Same mask stream reproduces the same output.
        c = enc.encode(x, dropout_rng=np.random.default_rng(2)).data
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_rate_in_range_builds(self, dropout):
        assert BiRnnEncoder(3, np.random.default_rng(0), dropout).dropout == dropout

    @pytest.mark.parametrize("dropout", [1.0, -0.5, float("nan")])
    def test_rate_out_of_range_rejected(self, dropout):
        # 1.0 would divide by zero in encode; -0.5 would scale inputs by 2/3.
        with pytest.raises(ConfigError,
                           match="hyperparameters.dropout of attn-drmm must be"):
            build_model("attn-drmm", 3, np.random.default_rng(0), dropout=dropout)


def random_encoder(d, rng):
    """An encoder with non-zero biases, so no gate sits at a symmetric point."""
    enc = BiRnnEncoder(d, rng)
    for cell in (enc.forward_cell, enc.backward_cell):
        cell.bias.data[:] = rng.standard_normal(4 * d)
    return enc


class TestBatchedPass:
    """``encode_batch`` runs many sequences through one padded ``scan`` per
    direction and must give each the bits of encoding it alone."""

    def test_step_rows_do_not_depend_on_the_block(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            d, b = int(rng.integers(1, 40)), int(rng.integers(3, 70))
            cell = LstmCell(d, rng)
            cell.bias.data[:] = rng.standard_normal(4 * d)
            zx = rng.standard_normal((b, 4 * d))
            h, c = rng.standard_normal((b, d)), rng.standard_normal((b, d))
            block = cell.step(zx, h, c)
            for i in rng.choice(b, size=3, replace=False):
                alone = cell.step(zx[i:i + 1], h[i:i + 1], c[i:i + 1])
                prefix = cell.step(zx[:i + 1], h[:i + 1], c[:i + 1])
                for whole, one, first in zip(block, alone, prefix):
                    np.testing.assert_array_equal(whole[i:i + 1], one)
                    np.testing.assert_array_equal(whole[:i + 1], first)

    def test_each_sequence_is_bitwise_its_encoding_alone(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            d = int(rng.integers(1, 12))
            enc = random_encoder(d, rng)
            lengths = rng.integers(1, 25, size=int(rng.integers(1, 10)))
            lengths[rng.integers(len(lengths))] = 1  # a 1-token sequence
            xs = [Tensor(rng.standard_normal((n, d))) for n in lengths]
            with no_grad():
                frozen = enc.encode_batch(xs)
            for x, got, cold in zip(xs, enc.encode_batch(xs), frozen):
                np.testing.assert_array_equal(got.data, enc.encode(x).data)
                np.testing.assert_array_equal(cold.data, got.data)
                with no_grad():
                    np.testing.assert_array_equal(got.data, enc.encode(x).data)

    def test_order_and_company_do_not_matter(self):
        rng = np.random.default_rng(32)
        enc = random_encoder(5, rng)
        xs = [Tensor(rng.standard_normal((n, 5))) for n in (7, 1, 12, 7, 3)]
        batch = enc.encode_batch(xs)
        perm = rng.permutation(len(xs))
        shuffled = enc.encode_batch([xs[i] for i in perm])
        for j, i in enumerate(perm):
            np.testing.assert_array_equal(shuffled[j].data, batch[i].data)
        np.testing.assert_array_equal(enc.encode_batch(xs[1:2])[0].data,
                                      batch[1].data)
        assert enc.encode_batch([]) == []

    def test_padding_never_changes_a_live_row(self):
        # Padded entries of the block hold NaN; a live row that read one,
        # through the gemm or the state, would turn NaN.
        rng = np.random.default_rng(33)
        d = 4
        cell = LstmCell(d, rng)
        cell.bias.data[:] = rng.standard_normal(4 * d)
        lengths = np.array([9, 6, 6, 2, 1])
        zx = np.full((9, len(lengths), 4 * d), np.nan)
        for col, n in enumerate(lengths):
            zx[:n, col] = rng.standard_normal((n, 4 * d))
        hidden = cell.scan(zx, lengths)
        for col, n in enumerate(lengths):
            alone = cell.scan(zx[:n, col:col + 1].copy(), np.array([n]))
            np.testing.assert_array_equal(hidden[:n, col], alone[:, 0])
            assert np.isfinite(hidden[:n, col]).all()
            np.testing.assert_array_equal(hidden[n:, col], 0.0)

    def test_reverse_direction_starts_at_each_last_token(self):
        # Each sequence's last backward state sees only its own last token.
        rng = np.random.default_rng(34)
        enc = random_encoder(3, rng)
        xs = [Tensor(rng.standard_normal((n, 3))) for n in (6, 2, 4)]
        for x, got in zip(xs, enc.encode_batch(xs)):
            last = enc.encode(Tensor(x.data[-1:])).data[0]
            np.testing.assert_array_equal(got.data[-1, 3:], last[3:])

    def test_one_block_costs_its_longest_length_in_steps(self, monkeypatch):
        calls = []
        original = LstmCell.step

        def counted(self, zx, h, c):
            calls.append((self, len(zx)))
            return original(self, zx, h, c)

        monkeypatch.setattr(LstmCell, "step", counted)
        rng = np.random.default_rng(35)
        enc = BiRnnEncoder(3, rng)
        lengths = [3, 9, 1, 5]
        enc.encode_batch([Tensor(rng.standard_normal((n, 3))) for n in lengths])
        for cell in (enc.forward_cell, enc.backward_cell):
            rows = [b for owner, b in calls if owner is cell]
            assert len(rows) == 9
            # Only the live sequences step: 4, 3 (twice), 2 (twice), 1 (four times).
            assert sum(rows) == sum(lengths)

    def test_dim_mismatch_rejected(self):
        enc = BiRnnEncoder(4, np.random.default_rng(36))
        with pytest.raises(ConfigError, match="expects"):
            enc.encode_batch([Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 5)))])
