"""Reverse-mode automatic differentiation over dense float64 arrays.

Small, self-contained engine: a :class:`Tensor` wraps a numpy array, records
the operation and parent tensors that produced it together with the op's
backward rule, and ``backward()`` walks the graph in reverse topological
order.  Everything is 64-bit so finite-difference checks are crisp.

Conventions:
  * no implicit broadcasting between tensors -- binary ops require identical
    shapes; mixing with a Python scalar is allowed.  ``add_rowvec`` exists for
    the one row-plus-vector pattern dense layers need.
  * a backward rule maps the output's gradient to one array per parent,
    shaped like that parent, and writes to no tensor; a rule that touches
    few entries of a large parent (``gather_rows``, slicing) returns a
    :class:`Scatter` instead, which the engine adds in place.  Rules
    capture the arrays they need, never their output tensor, so a graph
    holds no reference cycle and is freed as soon as nothing refers to its
    root.
  * ``backward()`` alone accumulates: interior gradients live only for the
    duration of the pass, and only leaves (tensors without parents) keep
    ``.grad``.  Leaf gradients accumulate across ``backward()`` calls until
    ``zero_grad``, so running backward twice over one graph doubles them;
    a tensor never reached reads as zero gradient.
  * ties in max/k-max go to the earlier index, and only selected positions
    receive gradient.
  * ``softmax`` subtracts the per-axis max before exponentiation.
  * normalizing a zero row yields the zero row and propagates zero
    gradient.
  * padded batches: ``softmax`` and ``kmax`` take a mask of the real cells,
    and padding is zeros.  A sum (``sum``, the softmax normalizer) adds in
    index order and ``einsum`` uses numpy's C loop, so a row's value has
    the same bits alone and inside any batch, with zeros appended.  How
    that loop groups a sum is not documented numpy behaviour: it was
    verified on numpy 2.4.6, and a numpy upgrade needs
    ``tests/test_batched_scoring.py`` and ``TestPaddedBatchOps`` rerun.
"""

from __future__ import annotations

import string
import struct
from contextlib import contextmanager

import numpy as np

from .errors import DataError
from .files import BinaryReader, atomic_open, write_str

__all__ = [
    "Tensor",
    "ParameterSet",
    "GradCheckReport",
    "GradCheckError",
    "CheckpointError",
    "no_grad",
    "grad_enabled",
    "concat",
    "stack",
    "einsum",
    "pad",
    "l2_normalize_rows",
    "add_rowvec",
    "gather_rows",
    "conv2d",
    "grad_check",
    "save_params",
    "load_params",
]


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether tensors made now record their parents (not inside ``no_grad``)."""
    return _grad_enabled


class Scatter:
    """A gradient that a rule returns in place of a dense array: ``values``
    added at ``key`` of zeros shaped like the parent.  The engine adds it
    into the parent's gradient with ``np.add.at``, so a few rows gathered
    from a large embedding matrix cost only those rows."""

    __slots__ = ("key", "values")

    def __init__(self, key, values):
        self.key, self.values = key, values


class Tensor:
    """A float64 array with a gradient slot and backward linkage.

    ``backward`` is the op's rule: given the gradient of this tensor it
    returns the gradients of ``parents``, one array or :class:`Scatter`
    each, in order.
    """

    __slots__ = ("data", "_grad", "op", "parents", "_backward")

    def __init__(self, data, parents=(), op="leaf", backward=None):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.op = op
        if _grad_enabled:
            self.parents, self._backward = parents, backward
        else:
            self.parents, self._backward = (), None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def grad(self) -> np.ndarray:
        """Gradient accumulated on this leaf by the backward passes since the
        last ``zero_grad``; zeros if never reached, and always zeros for a
        tensor with parents, whose gradient lives only during a pass."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = None if value is None else np.asarray(value, dtype=np.float64)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- graph machinery -----------------------------------------------------

    def backward(self):
        """Add d(self)/d(leaf) into the grad of every reachable leaf.

        ``self`` must hold a single element (a scalar loss).
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # Interior gradients by node id, each dropped once its rule has run.
        # A rule may hand one array to several parents, so a Scatter adds in
        # place only into a buffer the engine made (``owned``), and a leaf
        # copies the first array it gets (clip_grad_norm scales it in place).
        pending = {}
        owned = set()

        def receive(node, g):
            if node.parents:
                buf = pending.get(id(node))
                if isinstance(g, Scatter):
                    if id(node) not in owned:
                        buf = np.zeros_like(node.data) if buf is None else buf.copy()
                        owned.add(id(node))
                    np.add.at(buf, g.key, g.values)
                elif buf is None:
                    buf = g
                else:
                    buf = buf + g
                    owned.add(id(node))
                pending[id(node)] = buf
            elif isinstance(g, Scatter):
                if node._grad is None:
                    node._grad = np.zeros_like(node.data)
                np.add.at(node._grad, g.key, g.values)
            elif node._grad is None:
                node._grad = np.array(g, dtype=np.float64)
            else:
                node._grad += g

        receive(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node.parents:
                grads = node._backward(pending.pop(id(node)))
                for parent, g in zip(node.parents, grads):
                    receive(parent, g)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other)
            return Tensor(self.data + other.data, (self, other), "add",
                          lambda g: (g, g))
        return Tensor(self.data + other, (self,), "add_scalar", lambda g: (g,))

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, (self,), "neg", lambda g: (-g,))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other)
            return Tensor(self.data - other.data, (self, other), "sub",
                          lambda g: (g, -g))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.data
        if isinstance(other, Tensor):
            _same_shape(self, other)
            b = other.data
            return Tensor(a * b, (self, other), "mul", lambda g: (b * g, a * g))
        return Tensor(a * other, (self,), "mul_scalar", lambda g: (other * g,))

    __rmul__ = __mul__

    # -- indexing / shaping --------------------------------------------------

    def __getitem__(self, key):
        return Tensor(self.data[key], (self,), "slice",
                      lambda g: (Scatter(key, g),))

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor(self.data.reshape(shape), (self,), "reshape",
                      lambda g: (g.reshape(old),))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        """Sum over ``axis`` (every entry if None), added in index order."""
        shape = self.data.shape

        def rule(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            # A copy, not the zero-stride view: a contraction picks another
            # loop, and rounds differently, for a zero-stride operand.
            return (np.broadcast_to(g, shape).copy(),)
        return Tensor(_ordered_sum(self.data, axis), (self,), "sum", rule)

    def max(self, axis):
        """Maximum along ``axis``; first-max wins ties."""
        shape = self.data.shape
        idx = np.expand_dims(np.argmax(self.data, axis=axis), axis)

        def rule(g):
            buf = np.zeros(shape)
            np.put_along_axis(buf, idx, np.expand_dims(g, axis), axis)
            return (buf,)
        return Tensor(np.take_along_axis(self.data, idx, axis).squeeze(axis),
                      (self,), "max", rule)

    def kmax(self, k, mask=None):
        """The k largest values along the last axis, sorted descending.

        Ties keep their original left-to-right order, so the earlier index is
        selected first; gradient flows only to the selected positions.
        ``mask``, broadcast to the shape, marks the cells that may be
        selected: a row with fewer than k of them fills its last slots with
        0, which take no gradient.
        """
        if k < 1:
            raise ValueError("kmax needs k >= 1")
        if self.ndim < 1 or self.data.shape[-1] < k:
            raise ValueError(f"kmax k={k} exceeds the last axis of {self.shape}")
        shape = self.data.shape
        x = self.data if mask is None else np.where(mask, self.data, -np.inf)
        order = np.argsort(-x, axis=-1, kind="stable")[..., :k]
        top = np.take_along_axis(x, order, axis=-1)
        if mask is not None:
            real = np.take_along_axis(np.broadcast_to(mask, shape), order, axis=-1)
            top = np.where(real, top, 0.0)

        def rule(g):
            buf = np.zeros(shape)
            np.put_along_axis(buf, order, g if mask is None
                              else np.where(real, g, 0.0), axis=-1)
            return (buf,)
        return Tensor(top, (self,), "kmax", rule)

    # -- pointwise nonlinearities --------------------------------------------

    def relu(self):
        y = np.maximum(self.data, 0.0)
        return Tensor(y, (self,), "relu", lambda g: ((y > 0.0) * g,))

    def softmax(self, axis=-1, mask=None):
        """Softmax along ``axis``.  With ``mask``, broadcast to the shape,
        only its True cells take part; the others get 0 and no gradient."""
        x = self.data
        if mask is not None:
            if not np.all(np.any(np.broadcast_to(mask, x.shape), axis=axis)):
                raise ValueError("softmax over a row with no unmasked cell")
            x = np.where(mask, x, -np.inf)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        y = e / _ordered_sum(e, axis, keepdims=True)
        return Tensor(y, (self,), "softmax",
                      lambda g: (y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def _same_shape(a: Tensor, b: Tensor):
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")


def _ordered_sum(x: np.ndarray, axis=None, keepdims=False) -> np.ndarray:
    """``np.sum`` added in index order.  numpy's pairwise blocks regroup the
    terms when zeros are appended along the axis; this sum keeps its bits."""
    if axis is None:
        x, axis = x.reshape(-1), 0
    if x.shape[axis] == 0:
        return np.sum(x, axis=axis, keepdims=keepdims)
    return np.take(np.add.accumulate(x, axis=axis), [-1] if keepdims else -1,
                   axis=axis)


# -- multi-tensor ops --------------------------------------------------------


def concat(tensors, axis=0):
    tensors = tuple(tensors)

    def rule(g):
        lead = (slice(None),) * (axis % g.ndim)
        grads, lo = [], 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            grads.append(g[lead + (slice(lo, hi),)])
            lo = hi
        return grads
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  tensors, "concat", rule)


def stack(tensors, axis=0):
    tensors = tuple(tensors)
    return Tensor(np.stack([t.data for t in tensors], axis=axis), tensors, "stack",
                  lambda g: tuple(np.moveaxis(g, axis, 0)))


def einsum(spec: str, *operands) -> Tensor:
    """numpy's ``einsum`` with an explicit output (``"bqw,bdw->bqd"``);
    arrays among the operands are constants, tensors get gradients.

    It runs numpy's C loop, whose sum for one output entry does not depend
    on the entries around it (a BLAS gemm's does), so a row of a batch gets
    the bits it gets alone.  Every index of a tensor operand must appear in
    the output or in another operand; the rule contracts the output
    gradient with the other operands into each tensor's indices.
    """
    inputs, out = spec.replace(" ", "").split("->")
    terms = inputs.split(",")
    arrays = [x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
              for x in operands]
    grads_for = [i for i, x in enumerate(operands) if isinstance(x, Tensor)]
    for i in grads_for:
        labels = terms[i].replace("...", ".")
        others = "".join(terms[:i] + terms[i + 1:] + [out]).replace("...", ".")
        if len(set(labels)) != len(labels) or not set(labels) <= set(others):
            raise ValueError(f"einsum {spec!r}: no gradient rule for operand {i}")

    def rule(g):
        grads = []
        for i in grads_for:
            others = terms[:i] + terms[i + 1:]
            # numpy sums no ellipsis away: keep it, then add over its axes.
            spread = "..." in out and "..." not in terms[i]
            grad = np.einsum(",".join([out] + others) + "->"
                             + ("..." if spread else "") + terms[i],
                             g, *(arrays[:i] + arrays[i + 1:]))
            if spread:
                grad = grad.reshape((-1,) + arrays[i].shape).sum(axis=0)
            grads.append(grad)
        return grads
    return Tensor(np.einsum(spec, *arrays),
                  tuple(operands[i] for i in grads_for), "einsum", rule)


def pad(tensors, length: int) -> Tensor:
    """Stack B tensors of shapes (n_b, ...) into one (B, length, ...),
    zeros past each tensor's n_b rows."""
    tensors = tuple(tensors)
    out = np.zeros((len(tensors), length) + tensors[0].shape[1:])
    for row, t in zip(out, tensors):
        row[:len(t.data)] = t.data
    return Tensor(out, tensors, "pad",
                  lambda g: [row[:len(t.data)] for row, t in zip(g, tensors)])


def l2_normalize_rows(t: Tensor) -> Tensor:
    """Unit normalization along the last axis, of every row of an N-D
    tensor; zero rows stay zero."""
    if t.ndim < 1:
        raise ValueError("l2_normalize_rows expects at least a 1-D tensor")
    norms = np.linalg.norm(t.data, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    y = t.data / safe
    y = np.where(norms == 0.0, 0.0, y)

    def rule(g):
        contrib = (g - y * np.sum(g * y, axis=-1, keepdims=True)) / safe
        return (np.where(norms == 0.0, 0.0, contrib),)
    return Tensor(y, (t,), "l2_normalize_rows", rule)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add ``v`` to every trailing block of ``m`` shaped like it: a length-c
    vector to every row of an (r, c) tensor, a 0-d tensor to every entry."""
    lead = m.ndim - v.ndim
    if lead < 0 or m.data.shape[lead:] != v.data.shape:
        raise ValueError(f"add_rowvec shapes {m.data.shape} and {v.data.shape}")
    return Tensor(m.data + v.data, (m, v), "add_rowvec",
                  lambda g: (g, g.reshape((-1,) + v.data.shape).sum(axis=0)))


def gather_rows(t: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by index; gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if np.any(idx < 0):
        raise ValueError("gather_rows requires non-negative indices")
    return Tensor(t.data[idx], (t,), "gather_rows", lambda g: (Scatter(idx, g),))


def conv2d(x: np.ndarray, filters: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid 2-D correlation of a constant (..., H, W) array with (F, n, n)
    square filters, over its last two axes.

    Returns (..., F, H-n+1, W-n+1); pad beforehand to preserve spatial size.
    Each output cell is the einsum's sum over its own window, so an image
    of a batch gets the bits it gets alone; the filter and bias gradients
    add over the batch.  Only the filters and bias are differentiated, so
    the input is a plain array and a Tensor input raises TypeError.
    """
    if isinstance(x, Tensor):
        raise TypeError("conv2d computes no input gradient; pass the input as an array")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or filters.ndim != 3 or filters.data.shape[1] != filters.data.shape[2]:
        raise ValueError("conv2d expects an (..., H, W) input and (F, n, n) filters")
    n = filters.data.shape[1]
    if n > min(x.shape[-2:]):
        raise ValueError(f"kernel size {n} exceeds input {x.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (n, n), axis=(-2, -1))
    y = np.einsum("...hwij,fij->...fhw", windows, filters.data)
    if bias is not None:
        y = y + bias.data[:, None, None]
    # numpy sums no ellipsis away, so the batch axes get letters of their own.
    batch = string.ascii_uppercase[:x.ndim - 2]

    def rule(g):
        grads = (np.einsum(f"{batch}hwij,{batch}fhw->fij", windows, g),)
        if bias is None:
            return grads
        return grads + (g.sum(axis=tuple(range(len(batch))) + (-2, -1)),)
    parents = (filters,) if bias is None else (filters, bias)
    return Tensor(y, parents, "conv2d", rule)


# -- trainable parameter collections ----------------------------------------


class ParameterSet:
    """Named, ordered collection of trainable tensors."""

    def __init__(self, items=()):
        self._params: dict[str, Tensor] = {}
        for name, value in items:
            self.add(name, value)

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self):
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t._grad = None

    def copy(self) -> "ParameterSet":
        return ParameterSet([(k, Tensor(v.data.copy())) for k, v in self._params.items()])

    def load_from(self, other: "ParameterSet"):
        """Copy matching-shape data in from another set (names must agree)."""
        if set(other.names()) != set(self.names()):
            raise ValueError("parameter name sets differ")
        for name, t in self._params.items():
            src = other[name]
            if src.data.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            t.data = src.data.copy()

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t._grad is not None:
                total += float(np.sum(t._grad * t._grad))
        return float(np.sqrt(total))

    def clip_grad_norm(self, max_norm: float) -> float:
        norm = self.grad_norm()
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for t in self._params.values():
                if t._grad is not None:
                    t._grad *= scale
        return norm


# -- checkpoint file format --------------------------------------------------
#
# Binary layout (little-endian), see docs/formats.md:
#   magic "RRCP" | u32 version=1 | u32 count
#   then per parameter:
#     u16 name length | name utf-8 | u8 ndim | u32 * ndim dims | float64 * prod(dims)

_CKPT_MAGIC = b"RRCP"
_CKPT_VERSION = 1


class CheckpointError(DataError):
    """Raised when a checkpoint file cannot be decoded."""


def save_params(path, params: ParameterSet):
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(params)))
        for name, t in params.items():
            write_str(fh, name)
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d.
            arr = np.asarray(t.data, dtype="<f8", order="C")
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def load_params(path) -> ParameterSet:
    params = ParameterSet()
    with BinaryReader(path, CheckpointError) as r:
        r.header(_CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
        (count,) = r.unpack("<I")
        for _ in range(count):
            at, name = r.offset, r.string()
            if name in params:
                raise r.fail(f"duplicate parameter name {name!r}", at)
            (ndim,) = r.unpack("<B")
            params.add(name, r.array("<f8", r.unpack(f"<{ndim}I")))
        r.end()
    return params


# -- finite-difference gradient checking -------------------------------------


class GradCheckError(Exception):
    pass


class GradCheckReport:
    """Max relative error per input of reverse-mode vs central differences."""

    def __init__(self, per_input: list[float], tol: float):
        self.per_input = per_input
        self.tol = tol
        self.max_rel_error = max(per_input) if per_input else 0.0
        self.passed = self.max_rel_error < tol

    def __repr__(self):
        return (f"GradCheckReport(max_rel_error={self.max_rel_error:.3e}, "
                f"tol={self.tol:.1e}, passed={self.passed})")


def grad_check(f, inputs, h: float = 1e-4, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar-valued ``f`` with (f(x+h)-f(x-h))/(2h).

    ``inputs`` holds arrays or Tensors, and ``f`` takes one Tensor per
    entry and returns a scalar Tensor.  A Tensor input is checked in place:
    its ``.data`` is swapped for a copy that the differences perturb, and
    the original array is put back afterwards, so ``f`` may read it through
    any reference (a model's own parameters, say).  Relative error uses a
    unit floor: |a-n| / max(1, |a|, |n|).  A function whose repeated
    evaluation differs bitwise aborts the check.
    """
    tensors = [x if isinstance(x, Tensor) else Tensor(x) for x in inputs]
    originals = [t.data for t in tensors]

    def evaluate() -> float:
        with no_grad():
            out = f(*tensors)
        if out.data.size != 1:
            raise GradCheckError("grad_check requires a scalar-valued function")
        return float(out.data.reshape(()))

    try:
        for t in tensors:
            t.data = np.array(t.data, dtype=np.float64)
            t._grad = None
        if evaluate() != evaluate():
            raise GradCheckError("function is not deterministic; check aborted")
        out = f(*tensors)
        if out.data.size != 1:
            raise GradCheckError("grad_check requires a scalar-valued function")
        out.backward()
        analytic = [t.grad.copy() for t in tensors]

        per_input = []
        for t, grad in zip(tensors, analytic):
            numeric = np.zeros_like(t.data)
            flat = numeric.reshape(-1)
            wflat = t.data.reshape(-1)
            for j in range(wflat.size):
                orig = wflat[j]
                wflat[j] = orig + h
                fp = evaluate()
                wflat[j] = orig - h
                fm = evaluate()
                wflat[j] = orig
                flat[j] = (fp - fm) / (2.0 * h)
            denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
            err = np.abs(grad - numeric) / denom
            per_input.append(float(err.max()) if err.size else 0.0)
    finally:
        for t, data in zip(tensors, originals):
            t.data = data
    return GradCheckReport(per_input, tol)
