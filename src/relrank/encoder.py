"""Context-sensitive term encoding with a residual bidirectional LSTM.

The hidden size equals the embedding size: each output position is
``[forward_hidden + embedding ; backward_hidden + embedding]``, length
2 * dim, so the encoder can only reshape the embedding space, not change
its width.

There is one recurrence, :meth:`LstmCell.scan`, over a padded block of
sequences, one :meth:`LstmCell.step` per time step for the whole block
(Appleyard et al., arXiv:1604.01946: batch across sequences, fuse the gate
math, hoist the input projection).  Its recurrent product is an einsum,
whose bits for a row do not depend on the block around it, so a sequence
gets the same bits alone and inside any block.

There is one encoder path, :meth:`BiRnnEncoder.encode_batch`: training
encodes a minibatch's distinct sequences with it, and reranking a
candidate list's.  It sorts the block by length so each step advances
only the live sequences.  Each direction is one autodiff node
(:meth:`LstmCell.sweep`) whatever the lengths; it keeps every step's gates
and cell state and differentiates by backpropagation through time written
out by hand, once over the block.  Under ``no_grad`` it keeps no gates.
:meth:`BiRnnEncoder.encode`, for a pair scored alone, is its batch of one.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, grad_enabled
from .errors import ConfigError


def orthogonal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # Fix signs so the factorization (and hence the init) is unique.
    return q * np.sign(np.diag(r))


def _previous(states: np.ndarray) -> np.ndarray:
    """Step ``t`` of a time-major block holds the state before step ``t``
    (zeros first)."""
    prev = np.zeros_like(states)
    prev[1:] = states[:-1]
    return prev


class LstmCell:
    """One recurrent cell; gate order [input, forget, output, candidate].

    Input weights are (dim, 4*dim) and applied as ``x @ w_in`` for the whole
    sequence at once; recurrent weights are (4*dim, dim).  The forget-gate
    bias block starts at 1.0, everything else at 0.

    :meth:`scan` runs the recurrence over a block of sequences, one
    :meth:`step` per time step.  :meth:`sweep` wraps it as a single
    autodiff node over sequences packed end to end: with gradients on it
    saves the gates, the cell state and its tanh at every step, and its
    backward rule reads them back to run BPTT over the whole block.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        bound = 1.0 / np.sqrt(dim)
        self.w_in = Tensor(rng.uniform(-bound, bound, (dim, 4 * dim)))
        self.w_rec = Tensor(np.vstack([orthogonal_matrix(rng, dim) for _ in range(4)]))
        bias = np.zeros(4 * dim)
        bias[dim:2 * dim] = 1.0
        self.bias = Tensor(bias)

    def parameters(self, prefix: str):
        return [(f"{prefix}.w_in", self.w_in), (f"{prefix}.w_rec", self.w_rec),
                (f"{prefix}.bias", self.bias)]

    def step(self, zx: np.ndarray, h: np.ndarray, c: np.ndarray):
        """Advance a block of B rows one token each: ``zx`` (B, 4*dim) holds
        their rows of ``x @ w_in``, ``h`` and ``c`` (B, dim) their states.

        Returns ``(gates, c_new, tanh_c_new, h_new)``, where ``gates`` holds
        the activated [input, forget, output, candidate] blocks.  A row's
        bits do not depend on B or on the other rows: the recurrent product
        is an einsum, whose sum for one row is the same alone and within a
        block (a gemm's is not), and the rest is elementwise.
        """
        d = self.dim
        # This operation order fixes the output bits, which checkpoints and
        # run files for a fixed seed reproduce byte for byte.
        z = zx + np.einsum("bd,kd->bk", h, self.w_rec.data) + self.bias.data
        gates = np.empty_like(z)
        gates[:, :3 * d] = 1.0 / (1.0 + np.exp(-z[:, :3 * d]))
        gates[:, 3 * d:] = np.tanh(z[:, 3 * d:])
        c_new = gates[:, d:2 * d] * c + gates[:, :d] * gates[:, 3 * d:]
        tanh_c = np.tanh(c_new)
        return gates, c_new, tanh_c, gates[:, 2 * d:3 * d] * tanh_c

    def scan(self, zx: np.ndarray, lengths: np.ndarray, saved=None) -> np.ndarray:
        """Hidden states of B sequences, time-major: (T, B, dim).

        ``zx`` (T, B, 4*dim) holds column b's rows of ``x @ w_in`` in the
        order the cell visits them; column b is live for its first
        ``lengths[b]`` steps.  Lengths must not increase along the block, so
        the live columns of a step are a prefix and a finished column is
        never read again: each sequence starts from zeros at its own first
        visited token, and its padding changes no live row.  Entries past a
        column's length are left zero.  ``saved``, three arrays shaped
        (T, B, 4*dim), (T, B, dim) and (T, B, dim), receives the gates, the
        cell states and their tanh (training keeps them for BPTT).
        """
        steps, width = zx.shape[:2]
        live = np.count_nonzero(lengths > np.arange(steps)[:, None], axis=1)
        hidden = np.zeros((steps, width, self.dim))
        h = np.zeros((width, self.dim))
        c = np.zeros((width, self.dim))
        for t, n in enumerate(live):
            gates, c, tanh_c, h = self.step(zx[t, :n], h[:n], c[:n])
            hidden[t, :n] = h
            if saved is not None:
                saved[0][t, :n], saved[1][t, :n], saved[2][t, :n] = gates, c, tanh_c
        return hidden

    def sweep(self, x: Tensor, lengths: np.ndarray, reverse: bool = False) -> Tensor:
        """Hidden states of sequences packed end to end in ``x`` (N, dim),
        sequence b on ``lengths[b]`` consecutive rows, as an (N, dim) tensor
        in the same layout.

        Row ``t`` of a sequence is the hidden state right after the cell
        visited its position ``t``; ``reverse`` visits each sequence from
        last to first.  Each sequence gets its own ``x @ w_in``, the gemm of
        running it alone, and the block's columns are sorted by length,
        longest first, for one :meth:`scan`.  With gradients on, the result
        is one autodiff node with parents ``x``, ``w_in``, ``w_rec`` and
        ``bias``; its rule runs BPTT over the block's steps from last to
        first, one numpy pass per step for all live columns.  Under
        ``no_grad`` no gates are kept.
        """
        d = self.dim
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        steps, width = int(sorted_lengths[0]), len(lengths)
        starts = np.cumsum(lengths) - lengths
        rank = np.empty(width, dtype=np.intp)  # each sequence's column
        rank[order] = np.arange(width)
        visit = slice(None, None, -1) if reverse else slice(None)
        zx = np.zeros((steps, width, 4 * d))
        for a, n, c in zip(starts, lengths, rank):
            zx[:n, c] = (x.data[a:a + n] @ self.w_in.data)[visit]
        # Packed row r is block entry (step[r], col[r]); the step counts from
        # the token the cell visits first.
        seq = np.repeat(np.arange(width), lengths)
        pos = np.arange(len(seq)) - starts[seq]
        step = lengths[seq] - 1 - pos if reverse else pos
        col = rank[seq]
        saved = None
        if grad_enabled():
            saved = tuple(np.zeros((steps, width, k * d)) for k in (4, 1, 1))
        hidden = self.scan(zx, sorted_lengths, saved)
        del zx
        if saved is None:
            return Tensor(hidden[step, col])
        gates, cells, tanh_cells = saved
        live = np.count_nonzero(sorted_lengths > np.arange(steps)[:, None], axis=1)
        xs, w_in, w_rec = x.data, self.w_in.data, self.w_rec.data

        def rule(dout):
            i, f, o, g = (gates[..., k * d:(k + 1) * d] for k in range(4))
            # d(z_t) = [dc, dc, dh, dc] * dz_factor[t], block by block.
            dz_factor = np.concatenate([g * i * (1.0 - i),
                                        _previous(cells) * f * (1.0 - f),
                                        tanh_cells * o * (1.0 - o),
                                        i * (1.0 - g * g)], axis=2)
            dc_dh = o * (1.0 - tanh_cells * tanh_cells)
            dhidden = np.zeros((steps, width, d))
            dhidden[step, col] = dout
            dz = np.zeros((steps, width, 4 * d))
            dh_rec = np.zeros((width, d))
            dc = np.zeros((width, d))
            # Live columns are a prefix, so a column's state gradients stay
            # zero until the step that visited its last token.
            for t in range(steps - 1, -1, -1):
                n = live[t]
                dh = dhidden[t, :n] + dh_rec[:n]
                dc_t = dc[:n] + dh * dc_dh[t, :n]
                dz_t = dz[t, :n] = (np.concatenate([dc_t, dc_t, dh, dc_t], axis=1)
                                    * dz_factor[t, :n])
                dc[:n] = dc_t * f[t, :n]
                dh_rec[:n] = dz_t @ w_rec
            dzx = dz[step, col]
            flat = dz.reshape(-1, 4 * d)
            return (dzx @ w_in.T, xs.T @ dzx,
                    flat.T @ _previous(hidden).reshape(-1, d), flat.sum(axis=0))
        return Tensor(hidden[step, col], (x, self.w_in, self.w_rec, self.bias),
                      "lstm", rule)


class BiRnnEncoder:
    """Residual bidirectional encoder over per-position embedding vectors."""

    def __init__(self, dim: int, rng: np.random.Generator, dropout: float = 0.0):
        self.dim = dim
        self.dropout = float(dropout)
        self.forward_cell = LstmCell(dim, rng)
        self.backward_cell = LstmCell(dim, rng)

    def parameters(self, prefix: str = "encoder"):
        return (self.forward_cell.parameters(f"{prefix}.fwd")
                + self.backward_cell.parameters(f"{prefix}.bwd"))

    def _check(self, x) -> None:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ConfigError(
                f"encoder expects (n, {self.dim}) inputs, got {x.shape}")

    def encode(self, x: Tensor, dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Encode an (n, dim) sequence into (n, 2*dim) context vectors: the
        batch of one of :meth:`encode_batch`."""
        return self.encode_batch([x], dropout_rng)[0]

    def encode_batch(self, xs: list[Tensor],
                     dropout_rng: np.random.Generator | None = None) -> list[Tensor]:
        """Encode many (n_i, dim) sequences into (n_i, 2*dim) context
        vectors in one padded pass per direction.

        ``dropout_rng`` enables input dropout (training only): each sequence
        draws its own mask, in list order, and inverted scaling keeps the
        expected activation unchanged.  The sequences are packed end to
        end, each direction is one :meth:`LstmCell.sweep`, and item i is
        the rows of sequence i, with the bits of encoding it alone.  A
        gradient into any item flows through the block's two sweeps.
        """
        for x in xs:
            self._check(x)
        if not xs:
            return []
        if self.dropout > 0.0 and dropout_rng is not None:
            xs = [x * ((dropout_rng.random(x.shape) >= self.dropout)
                       / (1.0 - self.dropout)) for x in xs]
        lengths = np.array([x.shape[0] for x in xs], dtype=np.int64)
        x = concat(xs)
        out = concat([self.forward_cell.sweep(x, lengths) + x,
                      self.backward_cell.sweep(x, lengths, reverse=True) + x],
                     axis=1)
        ends = np.cumsum(lengths)
        return [out[end - n:end] for end, n in zip(ends, lengths)]
