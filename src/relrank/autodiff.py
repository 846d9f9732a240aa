"""Reverse-mode automatic differentiation over dense float64 arrays.

Small, self-contained engine: a :class:`Tensor` wraps a numpy array, records
the operation and parent tensors that produced it, and ``backward()`` walks
the graph in reverse topological order accumulating gradients.  Everything is
64-bit so finite-difference checks are crisp.

Conventions:
  * no implicit broadcasting between tensors -- binary ops require identical
    shapes; mixing with a Python scalar is allowed.  ``add_rowvec`` exists for
    the one row-plus-vector pattern dense layers need.
  * gradients accumulate across ``backward()`` calls until ``zero_grad``;
    a tensor never touched by backward reads as zero gradient.
  * ties in max/k-max go to the earlier index, and only selected positions
    receive gradient.
  * ``softmax`` subtracts the per-axis max before exponentiation.
  * normalizing a zero row yields the zero row and propagates zero
    gradient.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

from .files import atomic_open

__all__ = [
    "Tensor",
    "ParameterSet",
    "GradCheckReport",
    "GradCheckError",
    "CheckpointError",
    "no_grad",
    "concat",
    "stack",
    "dot",
    "l2_normalize_rows",
    "add_rowvec",
    "gather_rows",
    "pad2d",
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


class Tensor:
    """A float64 array with a gradient slot and backward linkage."""

    __slots__ = ("data", "_grad", "op", "parents", "_backward")

    def __init__(self, data, parents=(), op="leaf"):
        if isinstance(data, np.ndarray) and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.op = op
        self.parents = parents if _grad_enabled else ()
        self._backward = None

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
        """Gradient of the last backward pass; zeros if never reached."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = None if value is None else np.asarray(value, dtype=np.float64)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r})"

    # -- graph machinery -----------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(node) into every reachable node's grad.

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
        for node in topo:
            if node._grad is None:
                node._grad = np.zeros_like(node.data)
        self._grad = self._grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other)
            out = Tensor(self.data + other.data, (self, other), "add")
            if out.parents:
                def bw():
                    self._grad += out._grad
                    other._grad += out._grad
                out._backward = bw
            return out
        out = Tensor(self.data + other, (self,), "add_scalar")
        if out.parents:
            def bw():
                self._grad += out._grad
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,), "neg")
        if out.parents:
            def bw():
                self._grad -= out._grad
            out._backward = bw
        return out

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other)
            out = Tensor(self.data - other.data, (self, other), "sub")
            if out.parents:
                def bw():
                    self._grad += out._grad
                    other._grad -= out._grad
                out._backward = bw
            return out
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape(self, other)
            out = Tensor(self.data * other.data, (self, other), "mul")
            if out.parents:
                def bw():
                    self._grad += other.data * out._grad
                    other._grad += self.data * out._grad
                out._backward = bw
            return out
        out = Tensor(self.data * other, (self,), "mul_scalar")
        if out.parents:
            def bw():
                self._grad += other * out._grad
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return self * (1.0 / other)

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            raise TypeError("matmul requires a Tensor operand")
        a, b = self, other
        out = Tensor(a.data @ b.data, (a, b), "matmul")
        if out.parents:
            def bw():
                g = out._grad
                if a.ndim == 2 and b.ndim == 2:
                    a._grad += g @ b.data.T
                    b._grad += a.data.T @ g
                elif a.ndim == 2 and b.ndim == 1:
                    a._grad += np.outer(g, b.data)
                    b._grad += a.data.T @ g
                elif a.ndim == 1 and b.ndim == 2:
                    a._grad += b.data @ g
                    b._grad += np.outer(a.data, g)
                else:  # 1-D @ 1-D
                    a._grad += g * b.data
                    b._grad += g * a.data
            out._backward = bw
        return out

    # -- indexing / shaping --------------------------------------------------

    def __getitem__(self, key):
        out = Tensor(self.data[key], (self,), "slice")
        if out.parents:
            basic = _is_basic_key(key)
            def bw():
                if basic:
                    self._grad[key] += out._grad
                else:
                    np.add.at(self._grad, key, out._grad)
            out._backward = bw
        return out

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,), "reshape")
        if out.parents:
            def bw():
                self._grad += out._grad.reshape(self.data.shape)
            out._backward = bw
        return out

    def transpose(self):
        if self.ndim != 2:
            raise ValueError(f"transpose expects a 2-D tensor, got {self.shape}")
        out = Tensor(self.data.T.copy(), (self,), "transpose")
        if out.parents:
            def bw():
                self._grad += out._grad.T
            out._backward = bw
        return out

    @property
    def T(self):
        return self.transpose()

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), (self,), "sum")
        if out.parents:
            def bw():
                if axis is None:
                    self._grad += out._grad
                else:
                    self._grad += np.expand_dims(out._grad, axis)
            out._backward = bw
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def max(self, axis=None):
        """Maximum along ``axis`` (or of the whole tensor); first-max wins ties."""
        if axis is None:
            idx = np.unravel_index(np.argmax(self.data), self.data.shape)
            out = Tensor(self.data[idx], (self,), "max")
            if out.parents:
                def bw():
                    self._grad[idx] += out._grad
                out._backward = bw
            return out
        idx = np.argmax(self.data, axis=axis)
        out = Tensor(np.take_along_axis(self.data, np.expand_dims(idx, axis), axis).squeeze(axis),
                     (self,), "max")
        if out.parents:
            def bw():
                buf = np.zeros_like(self.data)
                np.put_along_axis(buf, np.expand_dims(idx, axis),
                                  np.expand_dims(out._grad, axis), axis)
                self._grad += buf
            out._backward = bw
        return out

    def kmax(self, k):
        """The k largest values along the last axis, sorted descending.

        Ties keep their original left-to-right order, so the earlier index is
        selected first; gradient flows only to the selected positions.
        Supports 1-D and 2-D tensors.
        """
        if k < 1:
            raise ValueError("kmax needs k >= 1")
        if self.data.shape[-1] < k:
            raise ValueError(f"kmax k={k} exceeds axis length {self.data.shape[-1]}")
        if self.ndim == 1:
            order = np.argsort(-self.data, kind="stable")[:k]
            out = Tensor(self.data[order], (self,), "kmax")
            if out.parents:
                def bw():
                    np.add.at(self._grad, order, out._grad)
                out._backward = bw
            return out
        if self.ndim == 2:
            order = np.argsort(-self.data, axis=1, kind="stable")[:, :k]
            out = Tensor(np.take_along_axis(self.data, order, axis=1), (self,), "kmax")
            if out.parents:
                def bw():
                    buf = np.zeros_like(self.data)
                    np.put_along_axis(buf, order, out._grad, axis=1)
                    self._grad += buf
                out._backward = bw
            return out
        raise ValueError("kmax supports 1-D and 2-D tensors only")

    # -- pointwise nonlinearities --------------------------------------------

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,), "relu")
        if out.parents:
            def bw():
                self._grad += (out.data > 0.0) * out._grad
            out._backward = bw
        return out

    def sigmoid(self):
        out = Tensor(1.0 / (1.0 + np.exp(-self.data)), (self,), "sigmoid")
        if out.parents:
            def bw():
                self._grad += out.data * (1.0 - out.data) * out._grad
            out._backward = bw
        return out

    def tanh(self):
        out = Tensor(np.tanh(self.data), (self,), "tanh")
        if out.parents:
            def bw():
                self._grad += (1.0 - out.data * out.data) * out._grad
            out._backward = bw
        return out

    def softmax(self, axis=-1):
        z = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=axis, keepdims=True)
        out = Tensor(y, (self,), "softmax")
        if out.parents:
            def bw():
                g = out._grad
                self._grad += y * (g - (g * y).sum(axis=axis, keepdims=True))
            out._backward = bw
        return out


def _same_shape(a: Tensor, b: Tensor):
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")


def _is_basic_key(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


# -- multi-tensor ops --------------------------------------------------------


def concat(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), "concat")
    if out.parents:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def bw():
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                slc = [slice(None)] * out.data.ndim
                slc[axis] = slice(lo, hi)
                t._grad += out._grad[tuple(slc)]
        out._backward = bw
    return out


def stack(tensors, axis=0):
    tensors = list(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), "stack")
    if out.parents:
        def bw():
            for i, t in enumerate(tensors):
                slc = [slice(None)] * out.data.ndim
                slc[axis] = i
                t._grad += out._grad[tuple(slc)]
        out._backward = bw
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dot expects 1-D tensors")
    _same_shape(a, b)
    out = Tensor(np.dot(a.data, b.data), (a, b), "dot")
    if out.parents:
        def bw():
            a._grad += out._grad * b.data
            b._grad += out._grad * a.data
        out._backward = bw
    return out


def l2_normalize_rows(t: Tensor) -> Tensor:
    """Row-wise unit normalization of a 2-D tensor; zero rows stay zero."""
    if t.ndim != 2:
        raise ValueError("l2_normalize_rows expects a 2-D tensor")
    norms = np.linalg.norm(t.data, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    y = t.data / safe
    y = np.where(norms == 0.0, 0.0, y)
    out = Tensor(y, (t,), "l2_normalize_rows")
    if out.parents:
        def bw():
            g = out._grad
            contrib = (g - y * np.sum(g * y, axis=1, keepdims=True)) / safe
            t._grad += np.where(norms == 0.0, 0.0, contrib)
        out._backward = bw
    return out


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-c vector to every row of an (r, c) tensor."""
    if m.ndim != 2 or v.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ValueError(f"add_rowvec shapes {m.data.shape} and {v.data.shape}")
    out = Tensor(m.data + v.data[None, :], (m, v), "add_rowvec")
    if out.parents:
        def bw():
            m._grad += out._grad
            v._grad += out._grad.sum(axis=0)
        out._backward = bw
    return out


def gather_rows(t: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by index; gradient scatter-adds back."""
    idx = np.asarray(indices, dtype=np.intp)
    if np.any(idx < 0):
        raise ValueError("gather_rows requires non-negative indices")
    out = Tensor(t.data[idx], (t,), "gather_rows")
    if out.parents:
        def bw():
            np.add.at(t._grad, idx, out._grad)
        out._backward = bw
    return out


def pad2d(t: Tensor, rows, cols) -> Tensor:
    """Zero-pad a 2-D tensor by (top, bottom) rows and (left, right) columns."""
    (top, bottom), (left, right) = rows, cols
    out = Tensor(np.pad(t.data, ((top, bottom), (left, right))), (t,), "pad2d")
    if out.parents:
        h, w = t.data.shape
        def bw():
            t._grad += out._grad[top:top + h, left:left + w]
        out._backward = bw
    return out


def conv2d(x: Tensor, filters: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid 2-D correlation of an (H, W) input with (F, n, n) square filters.

    Returns (F, H-n+1, W-n+1); pad beforehand to preserve spatial size.
    """
    if x.ndim != 2 or filters.ndim != 3 or filters.data.shape[1] != filters.data.shape[2]:
        raise ValueError("conv2d expects a 2-D input and (F, n, n) filters")
    n = filters.data.shape[1]
    if n > min(x.data.shape):
        raise ValueError(f"kernel size {n} exceeds input {x.data.shape}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (n, n))
    y = np.einsum("hwij,fij->fhw", windows, filters.data)
    if bias is not None:
        y = y + bias.data[:, None, None]
    parents = (x, filters) if bias is None else (x, filters, bias)
    out = Tensor(y, parents, "conv2d")
    if out.parents:
        def bw():
            g = out._grad
            filters._grad += np.einsum("hwij,fhw->fij", windows, g)
            if bias is not None:
                bias._grad += g.sum(axis=(1, 2))
            gh, gw = g.shape[1], g.shape[2]
            for i in range(n):
                for j in range(n):
                    x._grad[i:i + gh, j:j + gw] += np.einsum(
                        "fhw,f->hw", g, filters.data[:, i, j])
        out._backward = bw
    return out


# -- trainable parameter collections ----------------------------------------


class ParameterSet:
    """Named, ordered collection of trainable tensors."""

    def __init__(self, items=()):
        self._params: dict[str, Tensor] = {}
        for name, value in dict(items).items() if isinstance(items, dict) else items:
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

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

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


class CheckpointError(Exception):
    pass


def save_params(path, params: ParameterSet):
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(params)))
        for name, t in params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d.
            arr = np.asarray(t.data, dtype="<f8", order="C")
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    pos = 12
    params = ParameterSet()
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, pos) if ndim else ()
            pos += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f8", count=n, offset=pos).reshape(shape)
            pos += 8 * n
            params.add(name, arr.copy())
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"{path}: truncated at byte {pos}") from exc
    if pos != len(blob):
        raise CheckpointError(f"{path}: trailing bytes at offset {pos}")
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
