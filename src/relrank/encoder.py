"""Context-sensitive term encoding with a residual bidirectional LSTM.

The hidden size equals the embedding size: each output position is
``[forward_hidden + embedding ; backward_hidden + embedding]``, length
2 * dim, so the encoder can only reshape the embedding space, not change
its width.

Each direction of the recurrence is one autodiff node, whatever the
sequence length.  The input projection ``x @ w_in`` is an ordinary matmul
over the whole sequence; the node built on it runs the recurrence as a
numpy loop, one :meth:`LstmCell.step` per token, keeps every step's gates
and cell state, and differentiates by backpropagation through time written
out by hand (Appleyard et al., arXiv:1604.01946, fuse the gate math and
hoist the input projection).
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

    :meth:`run` is a single autodiff node with parents ``x @ w_in``,
    ``w_rec`` and ``bias``.  Its forward pass calls :meth:`step` once per
    token and saves the gates, the cell state and its tanh at every
    position; its backward pass reads them back to run BPTT and adds into
    the gradients of those three parents.
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
        """Advance one token from state ``(h, c)``, given its row of ``x @ w_in``.

        Returns ``(gates, c_new, tanh_c_new, h_new)``, where ``gates`` holds
        the activated [input, forget, output, candidate] blocks.
        """
        d = self.dim
        # This operation order fixes the output bits, which checkpoints and
        # run files for a fixed seed reproduce byte for byte.
        z = zx + self.w_rec.data @ h + self.bias.data
        gates = np.empty_like(z)
        gates[:3 * d] = 1.0 / (1.0 + np.exp(-z[:3 * d]))
        gates[3 * d:] = np.tanh(z[3 * d:])
        c_new = gates[d:2 * d] * c + gates[:d] * gates[3 * d:]
        tanh_c = np.tanh(c_new)
        return gates, c_new, tanh_c, gates[2 * d:3 * d] * tanh_c

    def run(self, x: Tensor, reverse: bool = False) -> Tensor:
        """Hidden states of an (n, dim) sequence as one (n, dim) tensor.

        Row ``t`` is the hidden state right after the cell visited position
        ``t``; ``reverse`` visits the positions from last to first.
        """
        zx = x @ self.w_in
        n, d = x.shape[0], self.dim
        order = range(n - 1, -1, -1) if reverse else range(n)
        gates = np.empty((n, 4 * d))
        cells = np.empty((n, d))
        tanh_cells = np.empty((n, d))
        hidden = np.empty((n, d))
        h = np.zeros(d)
        c = np.zeros(d)
        for pos in order:
            gates[pos], c, tanh_cells[pos], h = self.step(zx.data[pos], h, c)
            cells[pos] = c
            hidden[pos] = h
        w_rec, bias = self.w_rec, self.bias
        out = Tensor(hidden, (zx, w_rec, bias), "lstm")
        if out.parents:
            def bw():
                i, f, o, g = (gates[:, k * d:(k + 1) * d] for k in range(4))
                # d(z_t) = [dc, dc, dh, dc] * dz_factor[t], block by block.
                dz_factor = np.concatenate([g * i * (1.0 - i),
                                            _previous(cells, reverse) * f * (1.0 - f),
                                            tanh_cells * o * (1.0 - o),
                                            i * (1.0 - g * g)], axis=1)
                dc_dh = o * (1.0 - tanh_cells * tanh_cells)
                w_rec_t = w_rec.data.T
                dz = np.empty((n, 4 * d))
                dcdh = np.empty((4, d))  # rows [dc, dc, dh, dc]
                dh_rec = np.zeros(d)
                dc = np.zeros(d)
                for pos in reversed(order):
                    dh = out._grad[pos] + dh_rec
                    dc = dc + dh * dc_dh[pos]
                    dcdh[:] = dc
                    dcdh[2] = dh
                    dz_t = dz[pos] = dcdh.reshape(-1) * dz_factor[pos]
                    dc = dc * f[pos]
                    dh_rec = w_rec_t @ dz_t
                zx._grad += dz
                w_rec._grad += dz.T @ _previous(hidden, reverse)
                bias._grad += dz.sum(axis=0)
            out._backward = bw
        return out


class BiRnnEncoder:
    """Residual bidirectional encoder over per-position embedding vectors."""

    def __init__(self, dim: int, rng: np.random.Generator | None = None,
                 dropout: float = 0.0):
        if rng is None:
            rng = np.random.default_rng(0)
        self.dim = dim
        self.dropout = float(dropout)
        self.forward_cell = LstmCell(dim, rng)
        self.backward_cell = LstmCell(dim, rng)

    def parameters(self, prefix: str = "encoder"):
        return (self.forward_cell.parameters(f"{prefix}.fwd")
                + self.backward_cell.parameters(f"{prefix}.bwd"))

    def encode(self, x: Tensor, dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Encode an (n, dim) sequence into (n, 2*dim) context vectors.

        ``dropout_rng`` enables input dropout (training only); inverted
        scaling keeps the expected activation unchanged.
        """
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ConfigError(
                f"encoder expects (n, {self.dim}) inputs, got {x.shape}")
        if self.dropout > 0.0 and dropout_rng is not None:
            keep = (dropout_rng.random(x.shape) >= self.dropout) / (1.0 - self.dropout)
            x = x * Tensor(keep)
        fwd = self.forward_cell.run(x)
        bwd = self.backward_cell.run(x, reverse=True)
        return concat([fwd + x, bwd + x], axis=1)
