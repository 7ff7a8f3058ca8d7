"""Test-only oracles: a central-difference gradient check and reference ops.

tanh and layernorm are not part of the model; the fused modulation ops in
nimg.backbone are checked against compositions built from them. They are
recorded through nt.record like any package op, so the tape and backward
treat them the same way. rope_apply_grid is the rotate_pairs/mul/add
composition that backbone.qk_norm_rope fuses (after an rmsnorm).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from nimg import backbone
from nimg import tensor as nt
from nimg.tensor import DomainError, NonScalarLoss, Tape, Tensor, backward


class EvalError(RuntimeError):
    """A checked function produced a non-finite value."""


def tanh(a: Tensor) -> Tensor:
    a = nt.as_tensor(a)
    th = np.tanh(a.data)
    return nt.record("tanh", (a,), (th,), lambda g: (g * (1.0 - th * th),))[0]


def layernorm(a: Tensor) -> Tensor:
    """LayerNorm over the last axis, no affine parameters, eps nt.NORM_EPS."""
    a = nt.as_tensor(a)
    xhat, inv = nt._ln_stats(a.data)
    return nt.record("layernorm", (a,), (xhat,),
                     lambda g: (nt._ln_bwd(xhat, inv, g),))[0]


def rope_apply_grid(x: Tensor, pos_h, pos_w) -> Tensor:
    """2-axis RoPE on (B, S, H, d_h) heads as x cos + rotate_pairs(x) sin."""
    cos, sin = backbone.rope_tables(pos_h, pos_w, x.shape[1], x.shape[3])
    return nt.add(nt.mul(x, Tensor(cos)), nt.mul(backbone.rotate_pairs(x), Tensor(sin)))


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
               h: float = 1e-4, tol: float = 1e-5,
               where: np.ndarray | None = None) -> GradCheckReport:
    """Compare the taped gradient of a scalar fn against central differences.

    rel err per element is |a - n| / max(1e-8, |a| + |n|). where, a boolean
    array that broadcasts to point's shape, restricts the differences (and
    the errors) to the elements it marks; numeric is 0 elsewhere.
    """
    if h <= 0:
        raise DomainError("h must be positive")
    base = point.data.copy()

    def eval_at(arr: np.ndarray) -> float:
        with nt.no_grad():
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
    checked = (np.arange(flat.size) if where is None
               else np.flatnonzero(np.broadcast_to(where, base.shape)))
    for i in checked:
        keep = flat[i]
        flat[i] = keep + h
        fp = eval_at(base)
        flat[i] = keep - h
        fm = eval_at(base)
        flat[i] = keep
        numeric[i] = (fp - fm) / (2.0 * h)

    a, n = analytic[checked], numeric[checked]
    rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
    return GradCheckReport(float(rel.max()) if rel.size else 0.0, tol,
                           analytic.reshape(point.shape), numeric.reshape(point.shape))
