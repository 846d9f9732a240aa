"""Small trainable building blocks used by the scorers."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, add_rowvec, einsum


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


class Mlp:
    """Dense stack with relu between hidden layers and a linear scalar head.

    ``hidden=()`` degenerates to a single linear layer.  Weights are (in,
    out) and applied as ``x @ w`` by an einsum, whose bits for a row do not
    depend on the other rows.  Hidden biases start at zero; the head has no
    bias, as the pairwise hinge cannot train a constant added to every score.
    """

    def __init__(self, in_dim: int, hidden, rng: np.random.Generator):
        self.sizes = [in_dim, *hidden, 1]
        self.weights = [Tensor(glorot_uniform(rng, fan_in, fan_out,
                                              (fan_in, fan_out)))
                        for fan_in, fan_out in zip(self.sizes, self.sizes[1:])]
        self.biases = [Tensor(np.zeros(size)) for size in hidden]

    def parameters(self, prefix: str):
        layers = enumerate(zip(self.weights, [*self.biases, None]))
        return [(f"{prefix}.{kind}{i}", t) for i, (w, b) in layers
                for kind, t in (("w", w), ("b", b)) if t is not None]

    def rows(self, x: Tensor) -> Tensor:
        """Map a (..., in_dim) tensor to (...,) scalars, one per row."""
        lead = x.shape[:-1]
        h = x.reshape(-1, x.shape[-1])
        for w, b in zip(self.weights, self.biases):
            h = add_rowvec(einsum("ni,io->no", h, w), b).relu()
        return einsum("ni,io->no", h, self.weights[-1]).reshape(*lead)
