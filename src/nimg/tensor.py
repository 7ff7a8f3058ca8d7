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

Every normalisation (rmsnorm here, the LayerNorm statistics the fused
modulation ops in backbone and moe.dense_ffn_half share, the RMS norm
inside moe.moe_forward, and the QK-norm inside backbone.qk_norm_rope and
backbone.joint_attention) uses the one constant NORM_EPS.
grad_check, the finite-difference check the tests use, lives in
tests/oracles.py, not in the package.

Row gather and scatter take a 1-d (one block) or 2-d (G, n) block index in
which no row repeats within a block (ShapeError otherwise), so each block
is one exact fancy-index add. The model records neither: moe's expert FFN
gathers, computes and adds back one expert's (E, n)-indexed block of rows
at a time, each block one fancy-index add as in _add_blocks, and the
router's pullback adds its gate gradients into the claimed cells with
_add_blocks itself.

Buffer ownership. A tensor is immutable after forward: an op's output array
may be the very array its pullback closure reads (no defensive copies), so
writing into .data in place corrupts later gradients. A closure need not
keep everything its pullback reads: it may keep a little and recompute the
rest from the node's inputs and outputs. joint_attention, a block's whole
attention branch, keeps each token's LayerNorm mean and inverse std, the
inverse RMS of every image query and key head and each score row's max
and sum; it recomputes the modulated input, the Q/K/V projections, the
rotated heads and the attention output from its input x and the weights.
The FFN-half nodes, moe.dense_ffn_half and moe.moe_forward, keep both
tanh(gate)s, each row's LayerNorm mean and inverse std or inverse RMS, the
FFN's output F and its up-projections (the dense SwiGLU's pair, or every
expert's), and moe_forward the router's token_flat, gates, (B, S, E)
scores and claim mask; they recompute the residual stream h = x +
tanh(sa_gate) r_attn and the normalised and modulated inputs from x and
r_attn. qk_norm_rope keeps the inverse RMS of each head, and it and
joint_attention share the two (S, 1, d_h) angle tables their caller
built. fused_ln_scale keeps each row's mean and inverse std. A fused op
that asks tracking() before its forward keeps nothing when no node will be
recorded. A pullback may write into a buffer it allocated itself
(qk_norm_rope forms its input gradient in one such buffer), but never into
what its closure keeps, because backward may run it twice on one tape and
both runs must get the same gradients. A closure may drop what it kept
once its pullback has run, if a repeated run recomputes it bitwise from
the node's inputs: the FFN nodes release each pair of up-projections after
their pullback's first use of it, and a second backward recomputes the
pair by the same matmul.
A pullback returns either arrays it allocates or its incoming gradients
(and views of them), never an array its closure keeps.
After backward, a leaf's .grad (a tensor no recorded node produced) is
exclusively owned and may be edited in place; an intermediate's .grad is
read-only and may share memory with another tensor's .grad, because
pullbacks hand out aliased arrays (add/sub pass the same upstream gradient
to both operands, reshape returns a view). A leaf's gradient is copied only
when the engine cannot prove that nothing else holds it: the array a
pullback allocated for that leaf alone, or the sum buffer the engine
allocated for it, becomes its .grad as is, so parameter gradients are not
held twice at the end of backward.
Work inside a node may run on lanes (lanes(), LANES = the CPUs the process
may run on): the calling thread and LANES - 1 helpers on a standard-library
thread pool of as many non-daemon threads, or the plain loop on one CPU.
moe's experts and joint_attention's samples (each sample's whole attention
branch) are its only tasks. Every lane, the caller's included, pulls the
next task from one shared start order, largest first, so no lane idles
while a task is left; results come back in item order, and a failing run
raises the error of the earliest failing task in item order.
A task makes the numpy calls the serial loop made, never records on a
tape or calls a public op (perfbench's tracer wraps those), and writes
only into memory no other task writes. Every array that outlives a task
(a kept (h1, h3) pair, an output, a statistic, a gradient or a weight
product slot) is allocated by the caller and filled with out= or slice
writes, since a pool thread's own allocations land in its own malloc
arena and stay resident there. Every sum across tasks (out[rows] += y,
gx[rows] += gxe, a weight gradient summed over the batch) runs in the
caller, in item order, so values and gradients are bitwise the plain
loop's at any lane count.
"""

from __future__ import annotations

import contextvars
import numbers
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

#: Added to the variance (LayerNorm) or mean square (RMSNorm) of every
#: normalisation before its inverse square root.
NORM_EPS = 1e-6


class ShapeError(ValueError):
    """Operand shapes incompatible for the requested op."""


class UnsupportedOp(ValueError):
    """Storage dtype other than float64 requested, or data float64 cannot hold."""


class NonScalarLoss(ValueError):
    """backward() requires a scalar loss tensor."""


class DomainError(ValueError):
    """Scalar argument outside its documented domain."""


class Tensor:
    """Immutable-after-forward dense array, optionally tracked on a tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        if np.dtype(dtype) != np.float64:
            raise UnsupportedOp(f"unsupported storage dtype {np.dtype(dtype)}")
        try:
            arr = np.asarray(data)
        except (TypeError, ValueError):  # ragged nesting
            arr = np.empty(0, dtype=object)
        # None and other objects would become NaN, complex values would lose
        # their imaginary part and strings would be parsed
        if arr.dtype.kind not in "biuf":
            raise UnsupportedOp(f"cannot store {type(data).__name__} data of dtype "
                                f"{arr.dtype} as float64")
        self.data = np.asarray(arr, dtype=np.float64, order="C")
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
    for several inputs. bwd must not write into the arrays it receives, and
    must never return an array its closure keeps, or a view of one: backward
    hands a returned array that nothing else holds to a leaf as its .grad,
    which the caller may then edit in place.

    backward may run bwd more than once on one tape, and every run must
    return the same gradients. So bwd never writes into what its closure
    keeps, but it may drop a kept array once it has used it, if a later run
    recomputes that array bitwise from the node's inputs.
    """
    track = tracking(inputs)
    outs = tuple(Tensor(a, requires_grad=track) for a in out_arrays)
    if track:
        active_tape().nodes.append(Node(op, tuple(inputs), outs, bwd))
    return outs


def tracking(inputs: Sequence[Tensor]) -> bool:
    """Whether record would append a node for an op on these inputs: grad is
    enabled, a tape is active and some input requires grad. A fused op asks
    before its forward, so that it keeps nothing for a pullback that will
    never run."""
    return (_GRAD_ENABLED.get() and active_tape() is not None
            and any(t.requires_grad for t in inputs))


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


def _expand_mod(m: np.ndarray, like_shape: tuple[int, ...]) -> np.ndarray:
    """(B, d) modulation as (B, 1, d), broadcast over the tokens of (B, S, d)."""
    if len(like_shape) != 3 or m.shape != (like_shape[0], like_shape[2]):
        raise ShapeError(f"modulation shape {m.shape} is not (B, d) for "
                         f"activations {like_shape}")
    return m[:, None, :]


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

    Elementwise ops broadcast without it, and the model records none;
    perfbench/layertrace.py times it by name, so it stays.
    """
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = np.ascontiguousarray(np.broadcast_to(a.data, shape))
    except ValueError as e:
        raise ShapeError(str(e)) from None
    return record("broadcast_to", (a,), (out,), lambda g: (_sum_to(g, a.shape),))[0]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Tensors joined along axis, one node.

    The model records none; the tests' compositions use it, and
    perfbench/layertrace.py times it by name, so it stays.
    """
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
    if (not isinstance(axis, numbers.Integral) or not isinstance(n, numbers.Integral)
            or not -a.ndim <= axis < a.ndim or n < 1 or a.shape[axis] % n):
        raise ShapeError(f"cannot split {a.shape} into {n} equal parts "
                         f"along axis {axis}")
    outs = [np.ascontiguousarray(p) for p in np.split(a.data, n, axis=axis)]
    return record("split", (a,), outs, lambda *gs: (np.concatenate(gs, axis=axis),))


def _row_index(indices, n_rows: int, op: str) -> np.ndarray:
    """indices as a 1-d or 2-d (G, n) int64 block index of rows in [0, n_rows),
    no row twice in one block; ShapeError otherwise, and when n_rows is not
    an integer >= 0."""
    if not isinstance(n_rows, numbers.Integral) or n_rows < 0:
        raise ShapeError(f"{op}: row count {n_rows!r} is not an integer >= 0")
    idx = np.asarray(indices)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op}: row indices must be integers, got {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.ndim not in (1, 2):
        raise ShapeError(f"{op} expects a 1-d or 2-d (blocks, n) index, got {idx.ndim}-d")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeError(f"{op} index out of range for {n_rows} rows")
    s = np.sort(idx, axis=-1)
    if np.any(s[..., 1:] == s[..., :-1]):
        raise ShapeError(f"{op}: a row index repeats within one block")
    return idx


def _add_blocks(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[idx[k]] += rows[k] for every block k, in place; returns out.

    No row repeats within a block, so each block is one exact fancy-index
    add, and every target row receives its addends in flat-index order:
    bitwise what numpy's add.at gives for idx.ravel().
    """
    blocks = np.atleast_2d(idx)
    for i, r in zip(blocks, rows.reshape(blocks.shape + out.shape[1:])):
        out[i] += r
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    """Rows of a by a 1-d or 2-d block index, shaped indices.shape + a.shape[1:].

    A row may repeat across blocks but not within one (ShapeError). The
    model records none (routing runs off the tape inside moe.moe_forward);
    the tests' chain oracles use it, and perfbench/layertrace.py times it by
    name, so it stays.
    """
    a = as_tensor(a)
    if a.ndim == 0:
        raise ShapeError("gather_rows: a 0-d source has no row axis")
    idx = _row_index(indices, a.shape[0], "gather_rows")
    out = a.data[idx]
    return record("gather_rows", (a,), (out,),
                  lambda g: (_add_blocks(np.zeros(a.shape), idx, g),))[0]


def scatter_add_rows(values: Tensor, indices, n_rows: int) -> Tensor:
    """Add values, shaped indices.shape + row shape, into n_rows zero rows.

    indices is a 1-d or 2-d block index with no row twice in one block
    (ShapeError); blocks add in order, bitwise as numpy's add.at. The model
    records none; the tests' compositions use it, and
    perfbench/layertrace.py times it by name, so it stays.
    """
    values = as_tensor(values)
    idx = _row_index(indices, n_rows, "scatter_add_rows")
    if values.shape[:idx.ndim] != idx.shape:
        raise ShapeError("scatter_add_rows: one index per value row required, "
                         f"got {idx.shape} for values of shape {values.shape}")
    out = _add_blocks(np.zeros((n_rows,) + values.shape[idx.ndim:]), idx, values.data)
    return record("scatter_add_rows", (values,), (out,), lambda g: (g[idx],))[0]


# ---------------------------------------------------------------------------
# pointwise nonlinearities


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
    if n == 0:
        raise ShapeError(f"mean of {a.shape} over axis {axis}: zero elements")
    return mul(total, 1.0 / n)


def _softmax(da: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp(da - max) / sum(exp(da - max)) along axis, in a new buffer."""
    e = np.exp(da - da.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along axis, one node.

    The model records none (router.route_full calls _softmax off the tape,
    inside moe.moe_forward); the tests' chain oracles use it, and
    perfbench/layertrace.py times it by name, so it stays.
    """
    a = as_tensor(a)
    try:
        s = _softmax(a.data, axis)
    except ValueError as e:
        raise ShapeError(f"softmax of {a.shape} over axis {axis}: {e}") from None

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return record("softmax", (a,), (s,), bwd)[0]


def _ln_stats(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised values (a new buffer), row mean and inverse std of a
    LayerNorm over the last axis."""
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xc *= inv
    return xc, mu, inv


def _ln_xhat(xd: np.ndarray, mu: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The normalised values of _ln_stats again, in a new buffer, from its
    input and row statistics by the same ops, so bitwise equal."""
    xc = xd - mu
    xc *= inv
    return xc


def _ln_bwd(xhat: np.ndarray, inv: np.ndarray, g: np.ndarray) -> np.ndarray:
    """LayerNorm pullback from the _ln_stats of its input."""
    gm = g.mean(axis=-1, keepdims=True)
    gx = (g * xhat).mean(axis=-1, keepdims=True)
    return inv * (g - gm - xhat * gx)


def _rms_inv(xd: np.ndarray) -> np.ndarray:
    """1 / sqrt(mean(x²) + NORM_EPS) over the last axis, keepdims."""
    ms = (xd * xd).mean(axis=-1, keepdims=True) + NORM_EPS
    return 1.0 / np.sqrt(ms)


def rmsnorm(a: Tensor) -> Tensor:
    """RMS normalization over the last axis, no affine parameters.

    The model records none (backbone's fused nodes normalise inside
    themselves); the tests' compositions use it, and perfbench/layertrace.py
    times it by name, so it stays.
    """
    a = as_tensor(a)
    if a.ndim == 0:
        raise ShapeError("rmsnorm normalises over the last axis; got a 0-d tensor")
    da = a.data
    inv = _rms_inv(da)
    out = da * inv
    n = a.shape[-1]

    def bwd(g):
        dot = (g * da).sum(axis=-1, keepdims=True)
        return (g * inv - da * (dot * inv ** 3 / n),)

    return record("rmsnorm", (a,), (out,), bwd)[0]


# ---------------------------------------------------------------------------
# lanes

#: How many tasks lanes() runs at once: the CPUs this process may run on.
LANES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)

_POOL: tuple[int, ThreadPoolExecutor | None] = (0, None)   # (threads, pool)
_POOL_LOCK = threading.Lock()


def _reset_lanes() -> None:
    """In a forked child: the parent's pool threads do not exist there, so
    forget the pool (and a lock another parent thread may have held); the
    next lanes() makes the child's own."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = (0, None), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lanes)


def lanes(fn: Callable, items: Iterable, sizes: Sequence | None = None) -> Iterator:
    """fn(item) for each item, yielded in item order, with up to LANES of
    them running at once.

    The calling thread is lane 0, and LANES - 1 helpers on a pool of as
    many threads (concurrent.futures.ThreadPoolExecutor, made on first use
    and replaced when LANES changes) are the others. items is listed in the
    calling thread before any task starts, so the arrays the items carry
    are allocated there. Tasks start in order of decreasing size (sizes[i]
    for item i; a stable sort, so equal sizes, or no sizes, start in item
    order): the longest-processing-time rule (Graham 1969). Every lane
    pulls the next unstarted task from one shared iterator until none is
    left, so no lane idles while a task is unstarted. The caller yields
    the results in item order, and while the next one is not done it runs
    unstarted tasks itself: that is the caller's share. An item is dropped
    here once its task has run, and a result once it is yielded. With
    LANES = 1, or while another lanes() holds the pool (a nested call, or
    another thread's), this is the plain loop. fn must be thread-safe: it
    reads shared arrays, writes only into memory no other task writes, and
    records nothing on a tape. The pool threads are not daemons: between
    runs they wait idle, and the standard library joins them at exit.

    A failing task stops the run when its result is due: no further task
    starts, and once every helper has left its exception is raised here.
    Every task before it in item order has succeeded by then, so the error
    raised is that of the earliest failing task in item order, as in the
    plain loop.
    """
    global _POOL
    lock = _POOL_LOCK
    if not lock.acquire(blocking=False):
        yield from map(fn, items)
        return
    try:
        threads, pool = _POOL
        if threads != LANES - 1:
            if pool is not None:
                pool.shutdown()
            pool = None if LANES == 1 else ThreadPoolExecutor(
                LANES - 1, thread_name_prefix="nimg-lane")
            _POOL = LANES - 1, pool
        if pool is None:
            yield from map(fn, items)
            return
        items = list(items)
        done: list = [None] * len(items)     # task i's (value, error), until yielded
        order = iter(sorted(range(len(items)), key=None if sizes is None else lambda i: -sizes[i]))
        cond = threading.Condition()

        def pull() -> bool:
            """Run the next unstarted task in this thread; False if none is left."""
            with cond:
                i = next(order, None)
                if i is None:
                    return False
                item, items[i] = items[i], None
            try:
                result = fn(item), None
            except BaseException as e:   # re-raised in the calling thread when due
                result = None, e
            with cond:
                done[i] = result
                cond.notify_all()
            return True

        def drain() -> None:
            while pull():
                pass

        helpers = [pool.submit(drain) for _ in range(LANES - 1)]
        try:
            for i in range(len(items)):
                while done[i] is None and pull():
                    pass
                with cond:
                    cond.wait_for(lambda: done[i] is not None)
                (value, error), done[i] = done[i], None
                if error is not None:
                    raise error
                yield value
                del value
        finally:
            with cond:
                deque(order, maxlen=0)   # start no further task
            wait(helpers)
    finally:
        lock.release()


# ---------------------------------------------------------------------------
# backward engine


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate dLoss/dT into .grad of every requires_grad tensor T reached.

    Nodes are visited in exact reverse insertion order. Calling twice
    without resetting .grad accumulates. loss must be a scalar output of a
    node on tape (NonScalarLoss, ShapeError otherwise).

    Nothing is copied on the way: a tensor's first gradient contribution is
    kept as the pullback returned it, which may alias another tensor's
    gradient. The second contribution allocates one sum buffer that the
    engine owns; later ones are added into it in place. Only owned buffers
    are ever written. Intermediates get their gradient array as is (shared
    and read-only). A leaf adopts its gradient array when nothing else can
    hold it: the array is not a view, and no other gradient the engine holds
    is that array or a view of it (record's contract rules out the
    closures). Otherwise the leaf gets a copy, so a leaf's .grad never
    shares memory with another tensor's.
    """
    if not isinstance(tape, Tape) or not isinstance(loss, Tensor):
        raise ShapeError(f"backward takes a Tape and a Tensor loss, got "
                         f"{type(tape).__name__} and {type(loss).__name__}")
    if loss.size != 1:
        raise NonScalarLoss(f"loss must be scalar, got shape {loss.shape}")
    produced = {id(o) for node in tape.nodes for o in node.outputs}
    if id(loss) not in produced:
        raise ShapeError("loss was not produced by a node on this tape; "
                         "record it inside `with tape:`")
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
    holders: dict[int, int] = {}   # buffer -> gradients that are it or a view of it
    for g in grads.values():
        root = id(g if g.base is None else g.base)
        holders[root] = holders.get(root, 0) + 1
    for key, t in owners.items():
        if not t.requires_grad:
            continue
        g = grads[key]
        if t.grad is not None:
            t.grad = t.grad + g
        elif key in produced or (g.base is None and holders[id(g)] == 1):
            t.grad = g
        else:
            t.grad = g.copy()
