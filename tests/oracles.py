"""Test-only oracles: a central-difference gradient check and reference ops.

tanh and layernorm are not part of the model; the fused modulation ops in
nimg.backbone are checked against compositions built from them. They are
recorded through nt.record like any package op, so the tape and backward
treat them the same way. rope_apply_grid is the rotate_pairs/mul/add
composition that backbone.qk_norm_rope fuses (after an rmsnorm).
fused_rms_modulate, route_chain, dense_half_chain and moe_half_chain are the
chains of tape nodes the model recorded for a block's FFN half before
moe.dense_ffn_half and moe.moe_forward folded each into one node; the
folded nodes must equal them bitwise, values and gradients.
trunc_normal_loop is the whole-mask resampling loop backbone.trunc_normal
must reproduce draw for draw. assert_lanes_free is the invariant every
lanes test ends on: no run of nt.lanes is left holding a lane.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from nimg import backbone, moe, router
from nimg import tensor as nt
from nimg.tensor import DomainError, NonScalarLoss, Tape, Tensor, backward


def assert_lanes_free() -> None:
    """nt.LANES tasks of one nt.lanes call meet at a barrier. They all get
    past it only if every lane runs one of them at once: the pool lock is
    free (else the call is the plain loop, and the first task waits alone)
    and no helper of an earlier run still holds a pool thread. A lane that
    is not free breaks the barrier after its timeout."""
    barrier = threading.Barrier(nt.LANES, timeout=10)
    list(nt.lanes(lambda _: barrier.wait(), range(nt.LANES)))


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
    cos, sin = backbone.rope_tables(pos_h, pos_w, x.shape[3])
    return nt.add(nt.mul(x, Tensor(cos)), nt.mul(backbone.rotate_pairs(x), Tensor(sin)))


def fused_rms_modulate(h: Tensor, ff_scale: Tensor, c: float) -> tuple[Tensor, Tensor]:
    """The MoE layer's two inputs in one node: (n, n * (1 + ff_scale)) with
    n = RMSNorm(h) * c; it keeps only the inverse RMS. With Gn and Gm the
    gradients of its two outputs, the pullback is

        gn = (Gm (1 + ff_scale) + Gn) c,
        dh = gn inv - h (sum(gn h) inv³ / d),   dff_scale = sum over tokens of Gm n.
    """
    sd = nt._expand_mod(ff_scale.data, h.shape)
    hd = h.data
    inv = nt._rms_inv(hd)
    n = hd * inv
    n *= c
    m = n * (1.0 + sd)

    def bwd(Gn, Gm):
        gn = Gm * (1.0 + sd)
        gn += Gn
        gn *= c
        dot = (gn * hd).sum(axis=-1, keepdims=True)
        gh = gn * inv
        gh -= hd * (dot * inv ** 3 / hd.shape[-1])
        return gh, (Gm * n).sum(axis=1)

    return nt.record("fused_rms_modulate", (h, ff_scale), (n, m), bwd)


def route_chain(x_norm: Tensor, t_emb: Tensor, w_r: Tensor, capacity_factor: float):
    """router.route_full as 12 taped nodes: split, two matmuls, two reshapes,
    two adds, softmax, mul, sum, div and gather_rows. Returns (decisions,
    routing) with the gates and logits as tape tensors."""
    B, S, d = x_norm.shape
    E = w_r.shape[1]
    capacity = router.capacity_for(S, E, capacity_factor)
    w_x, w_t = nt.split(w_r, 2, axis=0)
    t_term = nt.reshape(nt.matmul(t_emb, w_t), (B, 1, E))
    logits = nt.add(nt.matmul(x_norm, w_x), t_term)
    scores = nt.softmax(logits, axis=-1)
    affinity_np = scores.data.transpose(0, 2, 1)
    top = router._topk_rows(affinity_np, capacity)
    batch_off = (np.arange(B, dtype=np.int64) * S)[None, :, None]
    token_flat = (top.transpose(1, 0, 2) + batch_off).reshape(-1)
    cell_flat = token_flat * E + np.repeat(np.arange(E, dtype=np.int64), B * capacity)
    claimed = np.bincount(cell_flat, minlength=B * S * E).reshape(B, S, E)
    kept = nt.mul(scores, Tensor(claimed))
    dense_gates = nt.div(kept, nt.add(nt.sum(kept, axis=-1, keepdims=True), router.GATE_EPS))
    gates = nt.gather_rows(nt.reshape(dense_gates, (B * S * E, 1)),
                           cell_flat.reshape(E, B * capacity))
    gates_np = gates.data.reshape(E, B, capacity)
    aff_sel = np.take_along_axis(affinity_np, top, axis=-1)
    decisions = [router.RouterDecision(top_indices=top[b].copy(), affinity=aff_sel[b].copy(),
                                       gates=gates_np[:, b, :].copy(),
                                       logits=logits.data[b].copy(), capacity=capacity)
                 for b in range(B)]
    return decisions, {"gates": gates, "logits": logits, "token_flat": token_flat,
                       "shape": (B, S, E)}


def dense_half_chain(x, r_attn, sa_gate, ff_scale, ff_gate, w1, w3, w2) -> Tensor:
    """moe.dense_ffn_half as the five nodes it folds: fused_gate_res_ln_scale
    → reshape → swiglu → reshape → fused_gated_residual."""
    h, f_in = backbone.fused_gate_res_ln_scale(x, sa_gate, r_attn, ff_scale)
    f_out = moe.swiglu(nt.reshape(f_in, (-1, x.shape[2])), w1, w3, w2)
    return backbone.fused_gated_residual(h, ff_gate, nt.reshape(f_out, x.shape))


def moe_half_chain(x, r_attn, sa_gate, ff_scale, ff_gate, t_emb, w_r, bank,
                   capacity_factor, c):
    """moe.moe_forward as the 18 nodes it folds: fused_gated_residual →
    fused_rms_modulate → route_chain (12) → reshape → grouped_forward →
    reshape → fused_gated_residual. Returns (x', decisions, routing)."""
    B, S, d = x.shape
    h = backbone.fused_gated_residual(x, sa_gate, r_attn)
    x_norm, x_mod = fused_rms_modulate(h, ff_scale, c)
    decisions, routing = route_chain(x_norm, t_emb, w_r, capacity_factor)
    blocks = routing["token_flat"].reshape(w_r.shape[1], -1)
    out = moe.grouped_forward(nt.reshape(x_mod, (B * S, d)), blocks, routing["gates"], bank)
    x_next = backbone.fused_gated_residual(h, ff_gate, nt.reshape(out, (B, S, d)))
    return x_next, decisions, routing


def trunc_normal_loop(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until inside +-2 std by redrawing the whole
    mask of outside entries each round: the reference backbone.trunc_normal,
    which redraws only the entries still outside, must equal bitwise."""
    out = np.asarray(rng.standard_normal(shape) * std)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
    return out


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
