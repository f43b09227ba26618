"""Minimal reverse-mode kernel: just the ops the detection models need.

Tensors wrap float64 numpy arrays and record a tape of vector-Jacobian
callbacks, with edges only to tensors that need a gradient: scoring, whose
parameters need none, records no tape. `backward` walks the tape once in
reverse topological order. This is deliberately not a general autodiff
system; the op set below is the whole vocabulary.

Attentive statistics pooling (asp) reduces axis -2 of an (..., N, D) input
to attention-weighted mean and standard deviation, concatenated to 2D.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import radf
from .errors import CheckpointNotFoundError, FormatError, GradCheckError, InvalidInputError

ASP_EPS = 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
GRAD_CHECK_STEP = 1e-5  # central-difference half-width


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad=False, _vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        # (parent, fn) pairs, fn mapping this node's cotangent to the parent's;
        # only a parent that needs a gradient gets an edge
        self._vjps = tuple((p, fn) for p, fn in _vjps if p.requires_grad)
        self.requires_grad = bool(requires_grad) or bool(self._vjps)

    @property
    def shape(self):
        return self.data.shape

    def backward(self, cotangent=None) -> None:
        """Accumulate gradients of this node w.r.t. every reachable leaf."""
        if cotangent is None:
            cotangent = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._vjps:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.asarray(cotangent, dtype=np.float64).reshape(self.data.shape)
        for node in reversed(order):  # each is an earlier node's parent, so its grad is set
            for parent, fn in node._vjps:
                contribution = fn(node.grad)
                # uncopied: no VJP writes into its cotangent, `+` makes a new array, and
                # adam_step, grad_check, clone_arrays and zero_grad only read or rebind .grad
                parent.grad = contribution if parent.grad is None else parent.grad + contribution


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data + b.data,
        _vjps=(
            (a, lambda g: _unbroadcast(g, a.data.shape)),
            (b, lambda g: _unbroadcast(g, b.data.shape)),
        ),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data - b.data,
        _vjps=(
            (a, lambda g: _unbroadcast(g, a.data.shape)),
            (b, lambda g: _unbroadcast(-g, b.data.shape)),
        ),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(
        a.data * b.data,
        _vjps=(
            (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
        ),
    )


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return Tensor(out, _vjps=((a, lambda g: g * (1.0 - out * out)),))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return Tensor(out, _vjps=((a, lambda g: g / (2.0 * out)),))


def affine(x, w, b=None) -> Tensor:
    """y = x @ w (+ b) over the last axis; x is (..., F_in), w is (F_in, F_out)."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.shape[-1] != w.data.shape[0]:
        raise InvalidInputError(
            f"affine: input dim {x.data.shape[-1]} != weight rows {w.data.shape[0]}"
        )
    out = x.data @ w.data
    vjps = [
        (x, lambda g: g @ w.data.T),
        (w, lambda g: x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])),
    ]
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (w.data.shape[1],):
            raise InvalidInputError("affine: bias shape mismatch")
        out = out + b.data
        vjps.append((b, lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0)))
    return Tensor(out, _vjps=tuple(vjps))


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return Tensor(out, _vjps=((a, vjp),))


def sum_axis(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis)

    def vjp(g):
        return np.broadcast_to(np.expand_dims(g, axis), a.data.shape)  # a read-only view

    return Tensor(out, _vjps=((a, vjp),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    return Tensor(a.data.reshape(shape), _vjps=((a, lambda g: g.reshape(a.data.shape)),))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(index)]

        return vjp

    out = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor(out, _vjps=tuple((t, make_vjp(i)) for i, t in enumerate(tensors)))


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]

    def make_vjp(i):
        return lambda g: np.take(g, i, axis=axis)

    out = np.stack([t.data for t in tensors], axis=axis)
    return Tensor(out, _vjps=tuple((t, make_vjp(i)) for i, t in enumerate(tensors)))


def index_axis(a, index: int, axis: int) -> Tensor:
    a = _as_tensor(a)
    out = np.take(a.data, index, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        full[tuple(sl)] = g
        return full

    return Tensor(out, _vjps=((a, vjp),))


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    a = _as_tensor(a)
    axis = axis % a.data.ndim
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return Tensor(a.data[index], _vjps=((a, vjp),))


def block_mean(a, tau: int, axis: int) -> Tensor:
    """Mean over consecutive blocks of length tau along one axis.

    The final block may be shorter; it is averaged over its actual length.
    """
    if tau < 1:
        raise InvalidInputError("tau must be >= 1")
    a = _as_tensor(a)
    axis = axis % a.data.ndim
    n = a.data.shape[axis]
    starts = np.arange(0, n, tau)
    lengths = np.diff(np.append(starts, n)).astype(np.float64)
    shape = [1] * a.data.ndim
    shape[axis] = len(starts)
    lengths_b = lengths.reshape(shape)
    out = np.add.reduceat(a.data, starts, axis=axis) / lengths_b

    def vjp(g):
        return np.repeat(g / lengths_b, lengths.astype(int), axis=axis)

    return Tensor(out, _vjps=((a, vjp),))


@dataclass
class AspParams:
    """Attentive statistics pooling parameters: D -> 2D over axis -2."""

    attn_w: Tensor  # (D, A)
    attn_b: Tensor  # (A,)
    score_w: Tensor  # (A, 1)
    score_b: Tensor  # (1,)

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}.attn_w": self.attn_w,
            f"{prefix}.attn_b": self.attn_b,
            f"{prefix}.score_w": self.score_w,
            f"{prefix}.score_b": self.score_b,
        }


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_asp(in_dim: int, rng: np.random.Generator) -> AspParams:
    attn_dim = max(1, in_dim // 2)
    return AspParams(
        attn_w=parameter(glorot(rng, in_dim, attn_dim)),
        attn_b=parameter(np.zeros(attn_dim)),
        score_w=parameter(glorot(rng, attn_dim, 1)),
        score_b=parameter(np.zeros(1)),
    )


def asp(h, params: AspParams) -> Tensor:
    """Attention-weighted mean and std over axis -2: (..., N, D) -> (..., 2D)."""
    h = _as_tensor(h)
    if h.data.ndim < 2 or h.data.shape[-2] < 1:
        raise InvalidInputError("asp input must be (..., N, D) with N >= 1")
    hidden = tanh(affine(h, params.attn_w, params.attn_b))
    scores = affine(hidden, params.score_w, params.score_b)
    weights = softmax(reshape(scores, scores.data.shape[:-1]), axis=-1)
    weights_col = reshape(weights, weights.data.shape + (1,))
    mean = sum_axis(mul(weights_col, h), axis=-2)
    second = sum_axis(mul(weights_col, mul(h, h)), axis=-2)
    std = sqrt(add(sub(second, mul(mean, mean)), ASP_EPS))
    return concat([mean, std], axis=-1)


def softmax_xent(logits, labels) -> Tensor:
    """Mean cross-entropy over rows; labels are class indices."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    n, n_classes = logits.data.shape
    if labels.shape != (n,):
        raise InvalidInputError("labels must be one index per row")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InvalidInputError("label out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + logits.data.max(
        axis=1, keepdims=True
    )
    log_p = logits.data - log_z
    loss = -log_p[np.arange(n), labels].mean()

    def vjp(g):
        soft = np.exp(log_p)
        soft[np.arange(n), labels] -= 1.0
        return soft * (g / n)

    return Tensor(np.asarray(loss), _vjps=((logits, vjp),))


class ParamSet:
    """Named parameter tensors plus per-parameter Adam state."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(tensors)
        self._moment1 = {n: np.zeros_like(t.data) for n, t in self.tensors.items()}
        self._moment2 = {n: np.zeros_like(t.data) for n, t in self.tensors.items()}
        self._steps = {n: 0 for n in self.tensors}

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def clone_arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.tensors.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, tensor in self.tensors.items():
            if name not in arrays:
                raise FormatError(f"no tensor {name!r} among the arrays to load")
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                raise InvalidInputError(f"{name}: shape {value.shape} != {tensor.data.shape}")
            tensor.data = value.copy()

    def adam_step(self, lr: float) -> None:
        """One Adam update of every tensor from its .grad (None counts as zero)."""
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name in self.names():
            tensor = self.tensors[name]
            grad = np.zeros_like(tensor.data) if tensor.grad is None else tensor.grad
            grad = np.asarray(grad, dtype=np.float64).reshape(tensor.data.shape)
            self._steps[name] += 1
            t = self._steps[name]
            m = self._moment1[name] = b1 * self._moment1[name] + (1 - b1) * grad
            v = self._moment2[name] = b2 * self._moment2[name] + (1 - b2) * grad**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def grad_check(fn, inputs, seed: int = 0, max_coords: int | None = None):
    """Max relative error between reverse-mode and central-difference grads.

    fn maps Tensors to one output Tensor. Each array input becomes a fresh
    leaf once, a copy, so the caller's array is never written; a leaf Tensor
    (such as a model's own parameter) is used as it is. A fixed random
    cotangent turns a non-scalar output into the scalar sum(u * fn(x)). Each
    probed coordinate is perturbed in place by +-GRAD_CHECK_STEP and then
    restored to its exact value. Error per coordinate is |a - n| / max(1, |a|, |n|).
    """
    leaves = [x if isinstance(x, Tensor) else parameter(x) for x in inputs]

    def run() -> Tensor:
        out = fn(*leaves)
        if not np.all(np.isfinite(out.data)):
            raise GradCheckError("non-finite output during grad check")
        return out

    out = run()
    rng = np.random.default_rng(seed)
    cot = rng.standard_normal(out.data.shape) if out.data.size > 1 else np.ones(out.data.shape)
    for leaf in leaves:
        leaf.grad = None
    out.backward(cot)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]
    for i, g in enumerate(analytic):
        if not np.all(np.isfinite(g)):
            raise GradCheckError(f"non-finite analytic gradient for input {i}")

    def scalar_at() -> float:
        return float((cot * run().data).sum())

    worst = 0.0
    for leaf, grad in zip(leaves, analytic):
        flat_coords = np.arange(leaf.data.size)
        if max_coords is not None and leaf.data.size > max_coords:
            flat_coords = rng.choice(leaf.data.size, size=max_coords, replace=False)
        values = leaf.data.flat
        for j in flat_coords:
            original = values[j]
            try:
                values[j] += GRAD_CHECK_STEP
                plus = scalar_at()
                values[j] -= 2 * GRAD_CHECK_STEP
                minus = scalar_at()
            finally:
                values[j] = original
            numeric = (plus - minus) / (2 * GRAD_CHECK_STEP)
            a = float(grad.flat[j])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


# --- checkpoint container: a RADP bundle (see radf) ---------------------------


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    """radf.write_tensors, creating the parent directory first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    radf.write_tensors(path, tensors, meta)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """radf.read_tensors, with CheckpointNotFoundError for a missing file."""
    try:
        return radf.read_tensors(path)
    except FileNotFoundError:
        raise CheckpointNotFoundError(f"no checkpoint at {path}") from None
