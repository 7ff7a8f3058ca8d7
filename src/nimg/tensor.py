"""Dense tensors with taped reverse-mode differentiation.

Storage is float64, and so is every op and gradient; input data of any
other numeric dtype is converted on construction and keeps its rank, so a
scalar, a full sum and a mean are 0-d. Ops are module functions (Tensor has
no operator overloads); matmul takes operands of rank >= 2 only. The
elementwise binary ops (add, sub, mul, div) broadcast by numpy's rules and
raise ShapeError where numpy cannot broadcast; their pullbacks sum each
gradient back to its operand's shape, so no operand has to be expanded to
full size first. An operand that did not require grad when the op was
recorded (a constant table, a mask, a Python scalar) gets None from the
pullback, so its gradient is never formed.

Buffer ownership. A tensor is immutable after forward: an op's output array
may be the very array its pullback closure reads (no defensive copies), so
writing into .data in place corrupts later gradients. A closure need not
keep everything its pullback reads: it may keep a little and recompute the
rest from the node's inputs (swiglu keeps its two up-projections,
joint_attention each score row's max and sum). A pullback must never write
into what its closure keeps, because backward may run it twice on one tape
and both runs must see the forward's values. After backward, a leaf's .grad
(a tensor no recorded node produced) is exclusively owned and may be edited
in place; an intermediate's .grad is read-only and may share memory with
another tensor's .grad, because pullbacks hand out aliased arrays (add/sub
pass the same upstream gradient to both operands, reshape returns a view).
"""

from __future__ import annotations

import contextvars
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class UnsupportedOp(ValueError):
    """Storage dtype other than float64 requested, or data float64 cannot hold."""


class NonScalarLoss(ValueError):
    """backward() requires a scalar loss tensor."""


class DomainError(ValueError):
    """Scalar argument outside its documented domain."""


class EvalError(RuntimeError):
    """A checked function produced a non-finite value."""


class Tensor:
    """Immutable-after-forward dense array, optionally tracked on a tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        if np.dtype(dtype) != np.float64:
            raise UnsupportedOp(f"unsupported storage dtype {np.dtype(dtype)}")
        try:
            arr = np.asarray(data)
            if arr.dtype == object:  # None and other objects would become NaN
                raise TypeError
            self.data = np.asarray(arr, dtype=np.float64, order="C")
        except (TypeError, ValueError):
            raise UnsupportedOp(f"cannot store {type(data).__name__} data "
                                "as float64") from None
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Node:
    """One recorded op: inputs, outputs, and the pullback closure."""

    __slots__ = ("op", "inputs", "outputs", "bwd")

    def __init__(self, op: str, inputs: tuple, outputs: tuple, bwd: Callable):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.bwd = bwd


# Per thread (and per asyncio task): a tape entered or a no_grad block in one
# thread never affects recording in another.
_TAPE_STACK: contextvars.ContextVar[tuple["Tape", ...]] = contextvars.ContextVar(
    "nimg_tape_stack", default=())
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "nimg_grad_enabled", default=True)


class Tape:
    """Ordered op record; backward walks nodes in exact reverse insertion order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        self._token = _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.reset(self._token)
        return False


class no_grad:
    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


def active_tape() -> Tape | None:
    stack = _TAPE_STACK.get()
    return stack[-1] if stack else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(op: str, inputs: Sequence[Tensor], out_arrays: Sequence[np.ndarray],
           bwd: Callable) -> tuple[Tensor, ...]:
    """Create output tensors for an op and append a node when tracking is on.

    bwd receives one float64 grad array per output (zeros where unused) and
    returns one grad array (or None) per input. Shared entry point for every
    differentiable op, including fused kernels defined in sibling modules.

    Neither side is copied: an output array may be one the closure reads,
    and bwd may return its incoming grad, a view of it, or the same array
    for several inputs. bwd must not write into the arrays it receives.
    """
    tape = active_tape()
    track = _GRAD_ENABLED.get() and tape is not None and any(t.requires_grad for t in inputs)
    outs = tuple(Tensor(a, requires_grad=track) for a in out_arrays)
    if track:
        tape.nodes.append(Node(op, tuple(inputs), outs, bwd))
    return outs


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to an operand shape after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _ew_shapes(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not "
                         "broadcast") from None


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _ew_shapes(a, b, "add")
    out = a.data + b.data
    ra, rb = a.requires_grad, b.requires_grad
    return record("add", (a, b), (out,),
                  lambda g: (_sum_to(g, a.shape) if ra else None,
                             _sum_to(g, b.shape) if rb else None))[0]


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _ew_shapes(a, b, "sub")
    out = a.data - b.data
    ra, rb = a.requires_grad, b.requires_grad
    return record("sub", (a, b), (out,),
                  lambda g: (_sum_to(g, a.shape) if ra else None,
                             _sum_to(-g, b.shape) if rb else None))[0]


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _ew_shapes(a, b, "mul")
    da, db = a.data, b.data
    out = da * db
    ra, rb = a.requires_grad, b.requires_grad
    return record("mul", (a, b), (out,),
                  lambda g: (_sum_to(g * db, a.shape) if ra else None,
                             _sum_to(g * da, b.shape) if rb else None))[0]


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _ew_shapes(a, b, "div")
    da, db = a.data, b.data
    out = da / db
    ra, rb = a.requires_grad, b.requires_grad
    return record("div", (a, b), (out,),
                  lambda g: (_sum_to(g / db, a.shape) if ra else None,
                             _sum_to(-g * da / (db * db), b.shape) if rb else None))[0]


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul of {a.shape} and {b.shape}: rank must be >= 2")
    da, db = a.data, b.data
    try:  # numpy reports inner and batch dim mismatches as ValueError
        out = np.matmul(da, db)
    except ValueError as e:
        raise ShapeError(f"matmul of {a.shape} and {b.shape}: {e}") from None

    def bwd(g):
        return (_sum_to(np.matmul(g, np.swapaxes(db, -1, -2)), a.shape),
                _sum_to(np.matmul(np.swapaxes(da, -1, -2), g), b.shape))

    return record("matmul", (a, b), (out,), bwd)[0]


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from None
    return record("reshape", (a,), (out,), lambda g: (g.reshape(a.shape),))[0]


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    try:  # AxisError is a ValueError
        out = np.ascontiguousarray(a.data.transpose(axes))
    except ValueError as e:
        raise ShapeError(f"transpose of {a.shape} by {axes}: {e}") from None
    inv = tuple(int(i) for i in np.argsort(axes))
    return record("transpose", (a,), (out,),
                  lambda g: (np.ascontiguousarray(g.transpose(inv)),))[0]


def broadcast_to(a: Tensor, shape) -> Tensor:
    """A materialised full-size copy of a broadcast.

    Elementwise ops broadcast without it; use it only where an op needs the
    copy itself, e.g. before concat.
    """
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = np.ascontiguousarray(np.broadcast_to(a.data, shape))
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return record("broadcast_to", (a,), (out,), lambda g: (_sum_to(g, a.shape),))[0]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    try:  # numpy reports rank, dim and axis mismatches as ValueError
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat of {[t.shape for t in tensors]}: {e}") from None
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return record("concat", tuple(tensors), (out,), bwd)[0]


def split(a: Tensor, n: int, axis: int = 0) -> tuple[Tensor, ...]:
    """n equal slices along axis as one node with n outputs."""
    a = as_tensor(a)
    if not -a.ndim <= axis < a.ndim or n < 1 or a.shape[axis] % n:
        raise ShapeError(f"cannot split {a.shape} into {n} equal parts "
                         f"along axis {axis}")
    outs = [np.ascontiguousarray(p) for p in np.split(a.data, n, axis=axis)]
    return record("split", (a,), outs, lambda *gs: (np.concatenate(gs, axis=axis),))


def _row_index(indices, n_rows: int, op: str) -> np.ndarray:
    """indices as a flat int64 array of rows in [0, n_rows); ShapeError otherwise."""
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op}: row indices must be integers, got {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.ndim != 1:
        raise ShapeError(f"{op} expects a flat index array")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeError(f"{op} index out of range for {n_rows} rows")
    return idx


def _scatter_add(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[idx[i]] += rows[i] for every i, in place; returns out.

    Bitwise equal to numpy's unbuffered add.at for idx in [0, len(out)):
    every target row receives its addends one at a time in increasing i.
    A stable sort of idx groups each target's addends in that order; round
    r adds every target's r-th addend. Targets are ranked by addend count,
    so the targets still live in round r are a prefix of one compact
    accumulator and a round is one gather plus one contiguous in-place add.
    The number of rounds is the largest multiplicity.
    """
    if not idx.size:
        return out
    # the smallest dtype lets numpy radix-sort indices that fit in 16 bits
    order = np.argsort(idx.astype(np.min_scalar_type(idx.max())), kind="stable")
    sidx = idx[order]
    starts = np.flatnonzero(np.diff(sidx, prepend=-1))  # first addend of each target
    counts = np.diff(starts, append=idx.size)
    most = np.argsort(-counts, kind="stable")
    starts, counts = starts[most], counts[most]
    targets = sidx[starts]
    acc = out[targets]
    for r in range(counts[0]):
        n = np.count_nonzero(counts > r)
        acc[:n] += rows[order[starts[:n] + r]]
    out[targets] = acc
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into the source."""
    a = as_tensor(a)
    if a.ndim == 0:
        raise ShapeError("gather_rows: a 0-d source has no row axis")
    idx = _row_index(indices, a.shape[0], "gather_rows")
    out = np.ascontiguousarray(a.data[idx])

    def bwd(g):
        return (_scatter_add(np.zeros(a.shape, dtype=np.float64), idx, g),)

    return record("gather_rows", (a,), (out,), bwd)[0]


def scatter_add_rows(values: Tensor, indices, n_rows: int) -> Tensor:
    """Accumulate value rows into a zero buffer of n_rows rows (stable order)."""
    values = as_tensor(values)
    idx = _row_index(indices, n_rows, "scatter_add_rows")
    if values.ndim == 0 or idx.size != values.shape[0]:
        raise ShapeError("scatter_add_rows: one index per value row required, "
                         f"got {idx.size} for values of shape {values.shape}")
    out = _scatter_add(np.zeros((n_rows,) + values.shape[1:], dtype=np.float64),
                       idx, values.data)
    return record("scatter_add_rows", (values,), (out,),
                  lambda g: (np.ascontiguousarray(g[idx]),))[0]


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def sin(a: Tensor) -> Tensor:
    a = as_tensor(a)
    da = a.data
    return record("sin", (a,), (np.sin(da),), lambda g: (g * np.cos(da),))[0]


def cos(a: Tensor) -> Tensor:
    a = as_tensor(a)
    da = a.data
    return record("cos", (a,), (np.cos(da),), lambda g: (-g * np.sin(da),))[0]


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    th = np.tanh(a.data)
    return record("tanh", (a,), (th,), lambda g: (g * (1.0 - th * th),))[0]


def silu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    da = a.data
    s = 1.0 / (1.0 + np.exp(-da))
    return record("silu", (a,), (da * s,),
                  lambda g: (g * s * (1.0 + da * (1.0 - s)),))[0]


# ---------------------------------------------------------------------------
# reductions and normalizations


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    try:
        out = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))
    except ValueError as e:
        raise ShapeError(f"sum of {a.shape} over axis {axis}: {e}") from None

    def bwd(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return record("sum", (a,), (out,), bwd)[0]


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    total = sum(a, axis=axis, keepdims=keepdims)  # first, so a bad axis is a ShapeError
    n = a.size if axis is None else int(np.prod([a.shape[i] for i in np.atleast_1d(axis)]))
    return mul(total, 1.0 / n)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    da = a.data
    try:
        m = da.max(axis=axis, keepdims=True)
    except ValueError as e:
        raise ShapeError(f"softmax of {a.shape} over axis {axis}: {e}") from None
    e = np.exp(da - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return record("softmax", (a,), (s,), bwd)[0]


def _ln_stats(xd: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalised values and inverse std of a LayerNorm over the last axis."""
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return xc * inv, inv


def _ln_bwd(xhat: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """LayerNorm pullback from the _ln_stats of its input."""
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gm - xhat * gx)


def layernorm(a: Tensor, eps: float = 1e-6) -> Tensor:
    """LayerNorm over the last axis, no affine parameters."""
    a = as_tensor(a)
    if a.ndim == 0:
        raise ShapeError("layernorm normalises over the last axis; got a 0-d tensor")
    xhat, inv = _ln_stats(a.data, eps)
    return record("layernorm", (a,), (xhat,), lambda g: (_ln_bwd(xhat, inv, g),))[0]


def rmsnorm(a: Tensor, eps: float = 1e-6) -> Tensor:
    """RMS normalization over the last axis, no affine parameters."""
    a = as_tensor(a)
    if a.ndim == 0:
        raise ShapeError("rmsnorm normalises over the last axis; got a 0-d tensor")
    da = a.data
    ms = (da * da).mean(axis=-1, keepdims=True) + eps
    inv = 1.0 / np.sqrt(ms)
    out = da * inv
    n = a.shape[-1]

    def bwd(g):
        dot = (g * da).sum(axis=-1, keepdims=True)
        return (g * inv - da * (dot * inv ** 3 / n),)

    return record("rmsnorm", (a,), (out,), bwd)[0]


# ---------------------------------------------------------------------------
# backward engine


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dLoss/dT into .grad of every requires_grad tensor T reached.

    Nodes are visited in exact reverse insertion order. Calling twice
    without resetting .grad accumulates.

    Nothing is copied on the way: a tensor's first gradient contribution is
    kept as the pullback returned it, which may alias another tensor's
    gradient. The second contribution allocates one sum buffer that the
    engine owns; later ones are added into it in place. Only owned buffers
    are ever written. Intermediates get their gradient array as is (shared
    and read-only); a leaf gets a copy unless its buffer is engine-owned, so
    a leaf's .grad never shares memory with another tensor's.
    """
    if loss.size != 1:
        raise NonScalarLoss(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape, dtype=np.float64)}
    owners: dict[int, Tensor] = {id(loss): loss}
    owned: set[int] = set()
    for node in reversed(tape.nodes):
        out_grads = []
        have_any = False
        for o in node.outputs:
            g = grads.get(id(o))
            if g is None:
                g = np.zeros(o.shape, dtype=np.float64)
            else:
                have_any = True
            out_grads.append(g)
        if not have_any:
            continue
        in_grads = node.bwd(*out_grads)
        if not isinstance(in_grads, tuple):
            in_grads = (in_grads,)
        for t, g in zip(node.inputs, in_grads):
            if g is None or not t.requires_grad:
                continue
            key = id(t)
            if key in owned:
                grads[key] += g
            elif key in grads:
                grads[key] = grads[key] + g
                owned.add(key)
            else:
                grads[key] = np.asarray(g)
                owners[key] = t
    produced = {id(o) for node in tape.nodes for o in node.outputs}
    for key, t in owners.items():
        if not t.requires_grad:
            continue
        g = grads[key]
        if t.grad is not None:
            t.grad = t.grad + g
        elif key in owned or key in produced:
            t.grad = g
        else:
            t.grad = g.copy()


class GradCheckReport:
    """Outcome of an analytic-vs-central-difference comparison."""

    def __init__(self, max_rel_err: float, tol: float,
                 analytic: np.ndarray, numeric: np.ndarray):
        self.max_rel_err = max_rel_err
        self.tol = tol
        self.analytic = analytic
        self.numeric = numeric

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __repr__(self) -> str:
        return (f"GradCheckReport(max_rel_err={self.max_rel_err:.3e}, "
                f"tol={self.tol:.1e}, passed={self.passed})")


def grad_check(fn: Callable[[Tensor], Tensor], point: Tensor,
               h: float = 1e-4, tol: float = 1e-5) -> GradCheckReport:
    """Compare the taped gradient of a scalar fn against central differences.

    rel err per element is |a - n| / max(1e-8, |a| + |n|).
    """
    if h <= 0:
        raise DomainError("h must be positive")
    base = point.data.copy()

    def eval_at(arr: np.ndarray) -> float:
        with no_grad():
            v = fn(Tensor(arr))
        if v.size != 1:
            raise NonScalarLoss("grad_check fn must be scalar-valued")
        val = float(v.data.reshape(()))
        if not np.isfinite(val):
            raise EvalError("fn evaluated to a non-finite value")
        return val

    p = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        out = fn(p)
    if out.size != 1:
        raise NonScalarLoss("grad_check fn must be scalar-valued")
    if not np.all(np.isfinite(out.data)):
        raise EvalError("fn evaluated to a non-finite value")
    backward(tape, out)
    analytic = (p.grad if p.grad is not None else np.zeros_like(base)).reshape(-1)

    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = eval_at(base)
        flat[i] = keep - h
        fm = eval_at(base)
        flat[i] = keep
        numeric[i] = (fp - fm) / (2.0 * h)

    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return GradCheckReport(float(rel.max()) if rel.size else 0.0, tol,
                           analytic.reshape(point.shape), numeric.reshape(point.shape))
