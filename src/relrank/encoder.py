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
gets the same bits alone and inside any block.  Two callers share it:

* :meth:`BiRnnEncoder.encode` (training, and any pair scored alone) runs
  one sequence as the block of one.  Each direction is one autodiff node,
  whatever the length; it keeps every step's gates and cell state and
  differentiates by backpropagation through time written out by hand.
* :meth:`BiRnnEncoder.encode_batch` (reranking, frozen parameters) runs
  many sequences in one pass per direction, sorted by length so each step
  advances only the live ones, and keeps no gates.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat
from .errors import ConfigError


def orthogonal_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # Fix signs so the factorization (and hence the init) is unique.
    return q * np.sign(np.diag(r))


def _previous(states: np.ndarray, reverse: bool) -> np.ndarray:
    """Row ``t`` holds the state before position ``t`` was visited (zeros first)."""
    prev = np.zeros_like(states)
    if reverse:
        prev[:-1] = states[1:]
    else:
        prev[1:] = states[:-1]
    return prev


class LstmCell:
    """One recurrent cell; gate order [input, forget, output, candidate].

    Input weights are (dim, 4*dim) and applied as ``x @ w_in`` for the whole
    sequence at once; recurrent weights are (4*dim, dim).  The forget-gate
    bias block starts at 1.0, everything else at 0.

    :meth:`scan` runs the recurrence over a block of sequences, one
    :meth:`step` per time step.  :meth:`run` is its batch of one as a
    single autodiff node with parents ``x @ w_in``, ``w_rec`` and ``bias``:
    it saves the gates, the cell state and its tanh at every position, and
    its backward rule reads them back to run BPTT and returns the
    gradients of those three parents.
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

    def run(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Hidden states of an (n, dim) sequence as one (n, dim) tensor.

        Row ``t`` is the hidden state right after the cell visited position
        ``t``; ``reverse`` visits the positions from last to first.
        """
        zx = x @ self.w_in
        n, d = x.shape[0], self.dim
        visit = slice(None, None, -1) if reverse else slice(None)
        saved = (np.empty((n, 1, 4 * d)), np.empty((n, 1, d)), np.empty((n, 1, d)))
        hidden = self.scan(zx.data[visit, None], np.array([n]), saved)
        # Back to position order.
        gates, cells, tanh_cells, hidden = (np.ascontiguousarray(a[visit, 0])
                                            for a in (*saved, hidden))
        order = range(n - 1, -1, -1) if reverse else range(n)
        w_rec_t = self.w_rec.data.T

        def rule(dhidden):
            i, f, o, g = (gates[:, k * d:(k + 1) * d] for k in range(4))
            # d(z_t) = [dc, dc, dh, dc] * dz_factor[t], block by block.
            dz_factor = np.concatenate([g * i * (1.0 - i),
                                        _previous(cells, reverse) * f * (1.0 - f),
                                        tanh_cells * o * (1.0 - o),
                                        i * (1.0 - g * g)], axis=1)
            dc_dh = o * (1.0 - tanh_cells * tanh_cells)
            dz = np.empty((n, 4 * d))
            dcdh = np.empty((4, d))  # rows [dc, dc, dh, dc]
            dh_rec = np.zeros(d)
            dc = np.zeros(d)
            for pos in reversed(order):
                dh = dhidden[pos] + dh_rec
                dc = dc + dh * dc_dh[pos]
                dcdh[:] = dc
                dcdh[2] = dh
                dz_t = dz[pos] = dcdh.reshape(-1) * dz_factor[pos]
                dc = dc * f[pos]
                dh_rec = w_rec_t @ dz_t
            return dz, dz.T @ _previous(hidden, reverse), dz.sum(axis=0)
        return Tensor(hidden, (zx, self.w_rec, self.bias), "lstm", rule)


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
        """Encode an (n, dim) sequence into (n, 2*dim) context vectors.

        ``dropout_rng`` enables input dropout (training only); inverted
        scaling keeps the expected activation unchanged.
        """
        self._check(x)
        if self.dropout > 0.0 and dropout_rng is not None:
            keep = (dropout_rng.random(x.shape) >= self.dropout) / (1.0 - self.dropout)
            x = x * keep
        fwd = self.forward_cell.run(x)
        bwd = self.backward_cell.run(x, reverse=True)
        return concat([fwd + x, bwd + x], axis=1)

    def encode_batch(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """Encode many (n_i, dim) sequences in one padded pass, frozen: no
        graph, no dropout, and no gates kept.

        Item i equals ``encode(Tensor(xs[i])).data`` bit for bit.  Each
        sequence gets its own ``x @ w_in``, the gemm of encoding it alone;
        the columns of the padded block are sorted by length, longest first,
        and each direction is one :meth:`LstmCell.scan`, which steps only
        the live columns.  The reverse direction holds each sequence
        reversed, so it starts at the sequence's own last token.
        """
        for x in xs:
            self._check(x)
        lengths = np.array([len(x) for x in xs], dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")
        steps = int(lengths.max(initial=0))
        halves = [[] for _ in xs]
        for cell, visit in ((self.forward_cell, slice(None)),
                            (self.backward_cell, slice(None, None, -1))):
            zx = np.zeros((steps, len(xs), 4 * self.dim))
            for col, i in enumerate(order):
                zx[:lengths[i], col] = (xs[i] @ cell.w_in.data)[visit]
            hidden = cell.scan(zx, lengths[order])
            del zx
            for col, i in enumerate(order):
                halves[i].append(hidden[:lengths[i], col][visit] + xs[i])
        return [np.concatenate(pair, axis=1) for pair in halves]
