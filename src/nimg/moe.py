"""A block's FFN half as one tape node: the dense SwiGLU or the sparse MoE layer.

After its attention branch r_attn, a block updates the residual stream by

    h = x + tanh(sa_gate) r_attn,    x' = h + tanh(ff_gate) F(h),

and each of the two FFN-half nodes is that whole step, with ff_scale,
sa_gate and ff_gate (B, d) broadcast over the tokens. dense_ffn_half runs
F = SwiGLU(LN(h) (1 + ff_scale)). moe_forward runs the paper's MoE layer
with decoupled routing: with n = RMS(h) c, expert choice (router) routes on
n plus a per-sample timestep term, and F is the routed experts plus the
shared expert on the modulated state n (1 + ff_scale). Each node keeps
both tanh(gate)s, its rows' normalisation statistics ((B, S, 1) arrays),
F(h), which the ff_gate gradient reads, and the FFN's up-projections;
moe_forward also keeps token_flat, the gates and the router's (B, S, E)
scores and claim mask. Its pullback recomputes h, the normalised and the
modulated input by the forward's numpy calls and runs the pullbacks of
the chain of nodes it replaces in the order backward ran them, so its
values and gradients are bitwise that chain's (tests/oracles.py keeps the
chains).

Expert-choice routing gives every expert exactly B * capacity distinct
tokens, so the routed rows form one (E, n) block index, n = B * capacity.
The expert FFN runs each expert as one task of nt.lanes: the task gathers
expert e's rows, runs its SwiGLU and scales each output row by its gate,
and the caller adds the rows back, expert by expert in order. The shared
expert, which covers every token so none is left without expert output,
is the last task, on all rows, and is added last. It is also the largest
task (N rows against a routed expert's n), so it starts first, and each
free lane, the calling thread's included, pulls the next routed expert in
order. So the experts of a layer run side by side on the process's CPUs
and the sums, and so the values, are those of the plain loop. Every
expert, and the dense FFN, runs one SwiGLU on (n, d) rows and 2-D
weights, through the helpers _ffn and _ffn_pullback.

For expert e with X = x[blocks[e]], h1 = X W1^T, h3 = X W3^T,
a = SiLU(h1) * h3 and y = gates[e] * (a W2^T) added into rows blocks[e],
the pullback of the upstream gradient G is, with Gr = G[blocks[e]]:

    u = Gr W2             dgates = sum_h u * a      gpre = gates * u
    dh1 = gpre * h3 * SiLU'(h1)                     dh3 = gpre * SiLU(h1)
    dW2 = (gates * Gr)^T a    dW1 = dh1^T X    dW3 = dh3^T X
    dx  = dh1 W1 + dh3 W3, added into rows blocks[e].

The shared expert's is the same with X = x, every row, and no gate.
Under a tape the nodes keep each SwiGLU's h1 and h3 (every routed
expert's, the shared expert's, or the dense FFN's one pair). The pullback
re-gathers X from the recomputed input and recomputes SiLU(h1) and a from
h1 and h3, so no gathered rows or expert outputs outlive the forward, and
it releases each pair once it has used it: a second backward recomputes
each h1 and h3 from X and the weights, bitwise the forward's. Without a
tape each expert's h1 and h3 are dropped within its own task, so a no-grad
call holds at most one expert's per lane at a time. Each task's output
rows (in the pullback, its row gradient) are a buffer the caller makes
before the run starts, as nt.lanes lists its items, and drops once it has
added them. The pullback's tasks write each expert's weight and gate
gradients into their slices of buffers the caller allocated, and the
caller adds each expert's row gradient into dx in expert order.

swiglu and grouped_forward are the dense FFN and the expert FFN alone, as
nodes of their own. The model records neither (its FFN-half nodes run the
same helpers); the tests' chain oracles do, and perfbench/layertrace.py
looks both up by name to time them, so deleting either makes
Tracer.install raise KeyError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .router import route_full, route_pullback
from .tensor import ShapeError, Tensor


def _sigmoid(h: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-h)) in one new buffer."""
    s = np.negative(h)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _ffn(x: np.ndarray, w1: np.ndarray, w3: np.ndarray, w2: np.ndarray,
         pair: tuple = (None, None), out: np.ndarray | None = None):
    """SwiGLU of (n, d) rows x: (h1, h3, out) with h1 = x W1^T, h3 = x W3^T
    and out = (SiLU(h1) * h3) W2^T, written into pair's buffers and out
    where given. SiLU(h1) * h3 is formed in one buffer that is dropped
    after the down-projection."""
    h1 = np.matmul(x, w1.T, out=pair[0])
    h3 = np.matmul(x, w3.T, out=pair[1])
    a = _sigmoid(h1)
    a *= h1
    a *= h3
    return h1, h3, np.matmul(a, w2.T, out=out)


def _ffn_pullback(gpre: np.ndarray, x: np.ndarray, kept: list, i: int,
                  w1: np.ndarray, w3: np.ndarray, out: tuple = (None, None, None)):
    """From gpre, the gradient at SiLU(h1) * h3, to (gx, gw1, gw3, act): the
    gradients of _ffn's rows and up-projection weights, written into out's
    buffers where given, and SiLU(h1) * h3 recomputed in _ffn's order, so
    bitwise its value, for the caller's gw2.

    kept[i] is the (h1, h3) pair _ffn gave for the rows x. The first run
    takes it and leaves None in its place, so the pair is freed when this
    call returns. A later run (a second backward over one tape, or a rerun
    after a pullback that raised) finds None and recomputes x W1^T and
    x W3^T: the same BLAS calls on the same operands, so bitwise the pair."""
    pair, kept[i] = kept[i], None
    h1, h3 = pair if pair is not None else (x @ w1.T, x @ w3.T)
    act = _sigmoid(h1)
    gh1 = gpre * h3
    gh1 *= act
    dsilu = np.subtract(1.0, act)
    dsilu *= h1
    dsilu += 1.0
    gh1 *= dsilu              # gpre * h3 * sig * (1 + h1 * (1 - sig))
    del dsilu
    act *= h1                 # SiLU(h1)
    gh3 = gpre * act
    act *= h3                 # SiLU(h1) * h3
    gx = np.matmul(gh1, w1, out=out[0])
    gx += gh3 @ w3
    return gx, np.matmul(gh1.T, x, out=out[1]), np.matmul(gh3.T, x, out=out[2]), act


def _check_shapes(x_shape: tuple[int, ...], w1: tuple[int, ...], w3: tuple[int, ...],
                  w2: tuple[int, ...], op: str) -> None:
    """ShapeError unless rows are (n, d) and the weights (h, d), (h, d), (d, h)."""
    if len(x_shape) != 2:
        raise ShapeError(f"{op} rows x have shape {x_shape}; expected (N, d)")
    d, h = x_shape[1], (w1[0] if len(w1) == 2 else -1)
    if w1 != (h, d) or w3 != (h, d) or w2 != (d, h):
        raise ShapeError(f"{op} weight shapes w1={w1} w3={w3} w2={w2} "
                         f"inconsistent with x={x_shape}")


def swiglu(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Single-pass SwiGLU: (SiLU(x W1^T) * (x W3^T)) W2^T.

    x is (N, d) rows and the weights are (h, d), (h, d) and (d, h)
    (ShapeError otherwise). One tape node with a hand-derived pullback;
    value-identical to the three-step composition within float rounding.
    The model does not record it (dense_ffn_half runs the same helpers),
    but perfbench/layertrace.py looks it up in this module's __dict__, and
    in backbone's, to time it.

    The node keeps only the two up-projections h1 = x W1^T and h3 = x W3^T,
    and only until its pullback first runs; the pullback recomputes
    SiLU(h1) * h3 from them, bitwise the forward's value, and then releases
    them. A second run recomputes h1 and h3 from x and the weights.
    """
    _check_shapes(x.shape, w1.shape, w3.shape, w2.shape, "swiglu")
    xd, w1d, w3d, w2d = x.data, w1.data, w3.data, w2.data
    h1, h3, out = _ffn(xd, w1d, w3d, w2d)
    kept = [(h1, h3)]

    def bwd(g):
        gx, gw1, gw3, act = _ffn_pullback(g @ w2d, xd, kept, 0, w1d, w3d)
        return gx, gw1, gw3, g.T @ act

    return nt.record("swiglu", (x, w1, w3, w2), (out,), bwd)[0]


@dataclass
class ExpertBank:
    """Routed expert weights plus the always-on shared expert.

    Gate/up/down projections stay unfused so the optimizer can treat each
    matrix as an independent unit.
    """

    w1: Tensor  # (E, h, d)
    w3: Tensor  # (E, h, d)
    w2: Tensor  # (E, d, h)
    shared_w1: Tensor  # (h_shared, d)
    shared_w3: Tensor
    shared_w2: Tensor  # (d, h_shared)


def _check_bank(x_shape: tuple[int, ...], E: int, bank: ExpertBank, op: str) -> None:
    """ShapeError unless the bank holds E routed experts and a shared one
    whose weights fit (N, d) rows."""
    routed = (bank.w1, bank.w3, bank.w2)
    if any(w.shape[:1] != (E,) for w in routed):
        raise ShapeError(f"{op} expert weights w1={bank.w1.shape} w3={bank.w3.shape} "
                         f"w2={bank.w2.shape}; expected {E} experts, one per block")
    _check_shapes(x_shape, *(w.shape[1:] for w in routed), op)
    _check_shapes(x_shape, bank.shared_w1.shape, bank.shared_w3.shape,
                  bank.shared_w2.shape, op + " shared")


def _bank_tensors(bank: ExpertBank) -> tuple[Tensor, ...]:
    """w1, w3, w2, shared_w1, shared_w3, shared_w2."""
    return (bank.w1, bank.w3, bank.w2, bank.shared_w1, bank.shared_w3, bank.shared_w2)


def _expert_tasks(xd: np.ndarray, idx: np.ndarray, ws: tuple):
    """Per expert, the routed ones in block order, then the shared one: its
    rows of xd (a block of idx, or every row), their count and its (w1, w3,
    w2) weights."""
    return ([*idx, slice(None)], [idx.shape[1]] * len(idx) + [len(xd)],
            [*zip(*ws[:3]), ws[3:]])


def _experts(xd: np.ndarray, idx: np.ndarray, gd: np.ndarray, ws: tuple, keep: bool):
    """The expert FFN on (N, d) rows xd: (out, kept). Expert e's SwiGLU of
    rows idx[e], times gates gd[e], is added into a zero buffer after
    expert e - 1's, bitwise as numpy's add.at over idx.ravel(); the shared
    SwiGLU of all rows is added last. With keep, kept holds each expert's
    (h1, h3) in block order, then the shared expert's; else it is empty.
    Each expert, the shared one last, is one task of nt.lanes (the shared
    one, the largest, starts first), which writes its output rows and kept
    pair into buffers allocated here."""
    rows, sizes, weights = _expert_tasks(xd, idx, ws)
    kept = []

    def jobs():
        for e, (n, (w1, _, _)) in enumerate(zip(sizes, weights)):
            pair = (np.empty((n, len(w1))), np.empty((n, len(w1)))) if keep else (None, None)
            if keep:
                kept.append(pair)
            yield e, pair, np.empty((n, xd.shape[1]))

    def expert(job):
        e, pair, y = job
        _ffn(xd[rows[e]], *weights[e], pair, y)
        if e < len(idx):
            y *= gd[e]
        return rows[e], y

    out = np.zeros(xd.shape)
    for r, y in nt.lanes(expert, jobs(), sizes):
        out[r] += y
    return out, kept


def _experts_pullback(g: np.ndarray, xd: np.ndarray, idx: np.ndarray, gd: np.ndarray,
                      ws: tuple, kept: list):
    """The gradients (dx, dgates, dW1, dW3, dW2, dW1_s, dW3_s, dW2_s) of
    _experts' output from g, by the module docstring's equations. Each
    expert, the shared one last, is one task of nt.lanes (the shared one
    starts first), which writes its rows' gradient and its weights' into
    buffers allocated here; the rows' gradients are added into dx in item
    order."""
    rows, sizes, weights = _expert_tasks(xd, idx, ws)
    grads = tuple(np.empty(w.shape) for w in ws)
    dgates = np.empty(gd.shape)
    weight_grads = [*zip(*grads[:3]), grads[3:]]

    def expert(job):
        e, gxe = job
        (w1, w3, w2), (g1, g3, g2) = weights[e], weight_grads[e]
        gr = g[rows[e]]
        u = gr @ w2
        if e == len(idx):    # the shared expert: every row, no gate
            act = _ffn_pullback(u, xd, kept, e, w1, w3, (gxe, g1, g3))[3]
        else:
            act = _ffn_pullback(u * gd[e], xd[rows[e]], kept, e, w1, w3, (gxe, g1, g3))[3]
            gr *= gd[e]
            u *= act
            dgates[e] = u.sum(axis=-1, keepdims=True)
        np.matmul(gr.T, act, out=g2)
        return rows[e], gxe

    gx = np.zeros(xd.shape)
    for r, gxe in nt.lanes(expert, ((e, np.empty((n, xd.shape[1])))
                                    for e, n in enumerate(sizes)), sizes):
        gx[r] += gxe
    return (gx, dgates, *grads)


def grouped_forward(x: Tensor, blocks, gates: Tensor, bank: ExpertBank) -> Tensor:
    """The whole expert FFN as one node: the routed experts, then the shared
    expert; returns (N, d).

    Row i of the output is sum over e, k with blocks[e, k] = i of gates[e, k]
    times expert e on row i, plus the shared expert on row i. x is (N, d)
    token rows, blocks an (E, n) block index of rows with no row twice in
    one block (ShapeError), gates (E, n, 1), the bank's routed weights (E,
    h, d), (E, h, d), (E, d, h) and its shared ones (h_s, d), (h_s, d), (d,
    h_s). The routed rows are added into a zero buffer, expert e's after
    expert e - 1's, bitwise as numpy's add.at over blocks.ravel(); the shared
    SwiGLU of all N rows is added last, so the value is bitwise routed +
    shared. The pullback equations are in the module docstring; the shared
    expert's are swiglu's.

    Under a tape the node keeps each expert's h1 and h3, the shared expert's
    and the block index. Its pullback releases each pair once it has used
    it, so after one backward the node keeps the block index alone; a
    second backward recomputes each pair from the input rows and weights.
    When no node will be recorded (nt.tracking), each expert's h1 and h3
    are dropped within its own task, so a no-grad call holds at most one
    expert's per lane (nt.LANES) at a time; every expert's output rows are
    allocated before the first task starts. The model does not record it
    (moe_forward runs the same helpers), but perfbench/layertrace.py looks
    it up in this module's __dict__ to time it.
    """
    if x.ndim != 2:
        raise ShapeError(f"grouped_forward rows x have shape {x.shape}; expected (N, d)")
    idx = nt._row_index(blocks, x.shape[0], "grouped_forward")
    if idx.ndim != 2 or gates.shape != idx.shape + (1,):
        raise ShapeError(f"grouped_forward gates have shape {gates.shape} for blocks of "
                         f"shape {idx.shape}; expected (E, n, 1) for (E, n) blocks")
    _check_bank(x.shape, idx.shape[0], bank, "grouped_forward")
    inputs = (x, gates, *_bank_tensors(bank))
    xd, gd = x.data, gates.data
    ws = tuple(w.data for w in inputs[2:])
    out, kept = _experts(xd, idx, gd, ws, nt.tracking(inputs))
    return nt.record("grouped_forward", inputs, (out,),
                     lambda g: _experts_pullback(g, xd, idx, gd, ws, kept))[0]


def _half_inputs(op: str, x: Tensor, r_attn: Tensor, sa_gate: Tensor, ff_scale: Tensor,
                 ff_gate: Tensor):
    """(tanh(sa_gate), tanh(ff_gate), ff_scale) as (B, 1, d) and h = x +
    tanh(sa_gate) r_attn, after checking that x is (B, S, d), r_attn the
    same shape and the modulations (B, d) (ShapeError)."""
    if x.ndim != 3:
        raise ShapeError(f"{op} residual stream x has shape {x.shape}; expected (B, S, d)")
    if r_attn.shape != x.shape:
        raise ShapeError(f"{op} residual shape {r_attn.shape} != {x.shape}")
    th_sa, th_ff = (np.tanh(nt._expand_mod(g.data, x.shape)) for g in (sa_gate, ff_gate))
    return th_sa, th_ff, nt._expand_mod(ff_scale.data, x.shape), x.data + th_sa * r_attn.data


def _record_half(op: str, inputs: tuple, th_sa: np.ndarray, th_ff: np.ndarray,
                 h: np.ndarray, f: np.ndarray, pullback) -> Tensor:
    """Record x' = h + tanh(ff_gate) f as one node on inputs (x, r_attn,
    sa_gate, ff_scale, ff_gate, *weights).

    pullback(gf, h) takes the gradient at f and h recomputed from the inputs,
    and returns (gh, dff_scale, *weight gradients), gh the gradient at h
    through f. With G the output gradient the node's pullback is

        gf = G tanh(ff_gate),   dff_gate = sum over tokens of G f (1 - tanh²(ff_gate)),
        dh = G + gh,   dx = dh,   dr_attn = dh tanh(sa_gate),
        dsa_gate = sum over tokens of dh r_attn (1 - tanh²(sa_gate)),

    the two fused_gated_residual pullbacks of the chain, around f's.
    """
    xd, rd = inputs[0].data, inputs[1].data

    def bwd(g):
        h = xd + th_sa * rd
        dff_gate = (g * f * (1.0 - th_ff * th_ff)).sum(axis=1)
        gh, dff_scale, *weights = pullback(g * th_ff, h)
        dh = g + gh
        dsa_gate = (dh * rd * (1.0 - th_sa * th_sa)).sum(axis=1)
        return (dh, dh * th_sa, dsa_gate, dff_scale, dff_gate, *weights)

    return nt.record(op, inputs, (h + th_ff * f,), bwd)[0]


def dense_ffn_half(x: Tensor, r_attn: Tensor, sa_gate: Tensor, ff_scale: Tensor,
                   ff_gate: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """A dense block's FFN half as one node: x' = h + tanh(ff_gate) F, with
    h = x + tanh(sa_gate) r_attn and F = SwiGLU(LN(h) (1 + ff_scale)).

    x and r_attn are (B, S, d), the gates and ff_scale (B, d) and the
    weights (h, d), (h, d), (d, h) (ShapeError otherwise). The values are
    bitwise those of the fused_gate_res_ln_scale → reshape → swiglu →
    reshape → fused_gated_residual chain it replaces. The node keeps both
    tanh(gate)s, each row's LayerNorm mean and inverse std of h, F, and
    until its pullback first runs the SwiGLU's up-projections h1 and h3.
    With gf the gradient at F, the pullback recomputes h, x̂ = LN(h) and
    m = x̂ (1 + ff_scale), then

        gm = SwiGLU pullback of gf at m (swiglu's),
        gh = LN pullback of gm (1 + ff_scale),   dff_scale = sum over tokens of gm x̂,

    inside _record_half's gated-residual pullbacks, summing the same terms
    in the same order as backward did for the chain, so gradients are
    bitwise the chain's too.
    """
    th_sa, th_ff, sd, h = _half_inputs("dense_ffn_half", x, r_attn, sa_gate, ff_scale,
                                       ff_gate)
    B, S, d = x.shape
    _check_shapes((B * S, d), w1.shape, w3.shape, w2.shape, "dense_ffn_half")
    w1d, w3d, w2d = w1.data, w3.data, w2.data
    m, mu, inv = nt._ln_stats(h)
    m *= 1.0 + sd
    h1, h3, f = _ffn(m.reshape(B * S, d), w1d, w3d, w2d)
    kept = [(h1, h3)]

    def pullback(gf, h):
        xhat = nt._ln_xhat(h, mu, inv)
        rows = (xhat * (1.0 + sd)).reshape(B * S, d)
        gf = gf.reshape(B * S, d)
        gx, gw1, gw3, act = _ffn_pullback(gf @ w2d, rows, kept, 0, w1d, w3d)
        gm = gx.reshape(B, S, d)
        return (nt._ln_bwd(xhat, inv, gm * (1.0 + sd)), (gm * xhat).sum(axis=1),
                gw1, gw3, gf.T @ act)

    return _record_half("dense_ffn_half", (x, r_attn, sa_gate, ff_scale, ff_gate, w1, w3, w2),
                        th_sa, th_ff, h, f.reshape(B, S, d), pullback)


def moe_forward(x: Tensor, r_attn: Tensor, sa_gate: Tensor, ff_scale: Tensor,
                ff_gate: Tensor, t_emb: Tensor, w_r: Tensor, bank: ExpertBank,
                capacity_factor: float, c: float):
    """An MoE block's FFN half as one node: x' = h + tanh(ff_gate) F, with
    h = x + tanh(sa_gate) r_attn.

    With n = RMS(h) c (c a constant) and m = n (1 + ff_scale), route_full
    picks each expert's B * capacity tokens and their gates from n and
    t_emb, and F is the routed experts on those rows of m, their gated
    outputs added back per token, plus the shared expert on every token.
    Tokens selected by zero experts receive only the shared-expert output.
    x and r_attn are (B, S, d), the gates and ff_scale (B, d), t_emb (B, d)
    (ShapeError otherwise); w_r is the (2d, E) router weight (ConfigError
    otherwise) and the bank holds E experts (ShapeError). Returns (x',
    decisions, routing), the last two route_full's.

    The values are bitwise those of the fused_gated_residual →
    fused_rms_modulate → route_full (12 nodes) → reshape → grouped_forward
    → reshape → fused_gated_residual chain it replaces. The node keeps both
    tanh(gate)s, each row's inverse RMS of h, F, every expert's up-projections
    until its pullback first uses them, token_flat, the gates and the
    router's (B, S, E) scores and claim mask. With gf the gradient at F, the
    pullback recomputes h, n and m, then

        gm, dgates, dW = expert pullback of gf at m (the module docstring's),
        gn_r, dt_emb, dw_r = route_pullback of dgates,
        gn = (gm (1 + ff_scale) + gn_r) c,
        gh = gn inv - h (sum(gn h) inv³ / d),   dff_scale = sum over tokens of gm n,

    inside _record_half's gated-residual pullbacks, summing the same terms
    in the same order as backward did for the chain, so gradients are
    bitwise the chain's too.
    """
    th_sa, th_ff, sd, h = _half_inputs("moe_forward", x, r_attn, sa_gate, ff_scale, ff_gate)
    B, S, d = x.shape
    inputs = (x, r_attn, sa_gate, ff_scale, ff_gate, t_emb, w_r, *_bank_tensors(bank))
    td, wd = t_emb.data, w_r.data
    ws = tuple(w.data for w in inputs[7:])
    inv = nt._rms_inv(h)
    n = h * inv
    n *= c
    decisions, routing = route_full(n, td, wd, capacity_factor)
    idx = routing["token_flat"].reshape(w_r.shape[1], -1)
    _check_bank((B * S, d), idx.shape[0], bank, "moe_forward")
    gates, scores, claimed = routing["gates"], routing["scores"], routing["claimed"]
    token_flat = routing["token_flat"]
    f, kept = _experts((n * (1.0 + sd)).reshape(B * S, d), idx, gates, ws,
                       nt.tracking(inputs))

    def pullback(gf, h):
        n = h * inv
        n *= c
        gx, dgates, *weights = _experts_pullback(gf.reshape(B * S, d),
                                                 (n * (1.0 + sd)).reshape(B * S, d),
                                                 idx, gates, ws, kept)
        gn_r, dt_emb, dw_r = route_pullback(dgates, n, td, wd, scores, claimed, token_flat)
        gm = gx.reshape(B, S, d)
        gn = gm * (1.0 + sd)
        gn += gn_r
        gn *= c
        dot = (gn * h).sum(axis=-1, keepdims=True)
        gh = gn * inv
        gh -= h * (dot * inv ** 3 / d)
        return (gh, (gm * n).sum(axis=1), dt_emb, dw_r, *weights)

    out = _record_half("moe_forward", inputs, th_sa, th_ff, h, f.reshape(B, S, d), pullback)
    return out, decisions, routing
