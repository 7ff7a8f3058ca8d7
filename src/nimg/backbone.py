"""Toy diffusion-transformer backbone.

Blocks pair grouped-query joint attention (image queries over concatenated
image and text KV) with either a dense SwiGLU FFN or a sparse MoE layer.
Timestep conditioning enters through zero-initialized modulation, so every
block is an exact identity at initialization. A block records five tape
nodes: the modulation matmul, add and split, its attention branch and its
FFN half. The fused nodes have hand-derived pullbacks, their values and
gradients are bitwise those of the chains of nodes they replace, and they
keep per-row statistics, not (B, S, d) arrays, and recompute the rest.
fused_ln_scale is the whole adaLN modulate, LN(x) (1 + scale) + shift, of
the final layer.
A block's whole attention branch is one node, joint_attention: adaLN
modulate, Q/K/V projections, the image QK-norm/RoPE, attention and the
output projection. It keeps only per-row statistics (each token's
LayerNorm mean and inverse std, each image query and key head's inverse
RMS, each score row's max and sum). Each sample's whole branch, forward
and pullback, is one task of nt.lanes, so samples run side by side on the
process's CPUs; only the sums of the weight gradients over the batch run
in the caller. Within a sample the tiles of up to ATTENTION_TILE query
rows run one at a time: a tile's scores, mask and softmax share one buffer
that stays in cache. Its pullback recomputes the modulated input, the
projections, the rotated heads and each tile's probabilities and output
from its inputs and those statistics. It sums the key and value
gradients over the tiles in row order, so they are not bitwise those of one
untiled pass (1.1e-15 relative at most in the desk-model checks). The text
keys' RMS norm and rotary rotation is one node, qk_norm_rope, recorded once
per prompt set, which keeps only the inverse RMS; the two angle tables are
built once per forward and shared by every layer.
A block's FFN half is one node too, from the attention output to the next
residual stream: both gated residuals, the norm and modulation, and the
dense SwiGLU (moe.dense_ffn_half) or the expert-choice routing and the
experts (moe.moe_forward). fused_gated_residual and fused_gate_res_ln_scale
are the gated residuals as nodes of their own; the model records neither.

Text is encoded by a deterministic hash embedder; per-layer text key/value
tensors are a pure function of the prompt and are precomputed once per
prompt set, never per denoising step. Text enters only through those K/V,
and every forward takes a TextContext: "no text" is zero-length text (all
prompts empty), which is also the null prompt of classifier-free guidance.
There is no text-free call.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
# swiglu is not called here: perfbench/layertrace.py times it under this
# module's name as well as moe's, so Tracer.install needs it in both.
from .moe import ExpertBank, dense_ffn_half, moe_forward, swiglu  # noqa: F401
from .router import DENSE_LAYERS, ConfigError, StageId, capacity_schedule
from .tensor import DomainError, ShapeError, Tensor, UnsupportedOp


# ---------------------------------------------------------------------------
# fused modulation kernels (one tape node each)


def fused_gated_residual(x: Tensor, g: Tensor, r: Tensor) -> Tensor:
    """x + tanh(g) * r in one pass; g is (B, d) broadcast over tokens.
    tanh(0) = 0 gates the branch fully off.

    The model does not record it (moe's FFN-half nodes apply both gated
    residuals inside themselves), but perfbench/layertrace.py looks it up in
    this module's __dict__ to time it, so deleting it makes Tracer.install
    raise KeyError.
    """
    if r.shape != x.shape:
        raise ShapeError(f"residual shape {r.shape} != {x.shape}")
    th = np.tanh(nt._expand_mod(g.data, x.shape))
    rd = r.data
    out = x.data + th * rd

    def bwd(G):
        return G, (G * rd * (1.0 - th * th)).sum(axis=1), G * th

    return nt.record("fused_gated_residual", (x, g, r), (out,), bwd)[0]


def fused_ln_scale(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """LayerNorm(x) * (1 + scale) + shift in one pass: DiT's adaLN modulate.

    scale and shift are (B, d), broadcast over the tokens of x (ShapeError
    otherwise); scale = shift = 0 is plain LayerNorm. The node keeps only
    each row's mean and inverse std, (B, S, 1) each; its pullback recomputes
    x̂ from x with _ln_stats' ops, so bitwise the forward's.
    """
    sd = nt._expand_mod(scale.data, x.shape)
    bd = nt._expand_mod(shift.data, x.shape)
    xd = x.data
    out, mu, inv = nt._ln_stats(xd)
    out *= 1.0 + sd
    out += bd

    def bwd(G):
        xhat = nt._ln_xhat(xd, mu, inv)
        return nt._ln_bwd(xhat, inv, G * (1.0 + sd)), (G * xhat).sum(axis=1), G.sum(axis=1)

    return nt.record("fused_ln_scale", (x, scale, shift), (out,), bwd)[0]


def fused_gate_res_ln_scale(x: Tensor, g: Tensor, r: Tensor,
                            s: Tensor) -> tuple[Tensor, Tensor]:
    """Gated residual then LayerNorm-scale, one pass.

    Returns (h, m) with h = x + tanh(g) * r (the updated residual stream)
    and m = LayerNorm(h) * (1 + s). The node keeps tanh(g) and each row's
    mean and inverse std of h; its pullback recomputes x̂ from h, its own
    first output. The model does not record it (moe.dense_ffn_half folds it),
    but perfbench/layertrace.py looks it up in this module's __dict__ to
    time it, so deleting it makes Tracer.install raise KeyError.
    """
    if r.shape != x.shape:
        raise ShapeError(f"residual shape {r.shape} != {x.shape}")
    th = np.tanh(nt._expand_mod(g.data, x.shape))
    sd = nt._expand_mod(s.data, x.shape)
    rd = r.data
    h = x.data + th * rd
    m, mu, inv = nt._ln_stats(h)
    m *= 1.0 + sd

    def bwd(Gh, Gm):
        xhat = nt._ln_xhat(h, mu, inv)
        dh = Gh + nt._ln_bwd(xhat, inv, Gm * (1.0 + sd))
        dg = (dh * rd * (1.0 - th * th)).sum(axis=1)
        return dh, dg, dh * th, (Gm * xhat).sum(axis=1)

    return nt.record("fused_gate_res_ln_scale", (x, g, r, s), (h, m), bwd)


# ---------------------------------------------------------------------------
# QK-norm and rotary positions (two spatial axes)


#: Base of the rotary frequencies base ** (-i / quarter) on each axis.
ROPE_BASE = 10000.0


def rope_tables(pos_h, pos_w, S: int, d_h: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each token's angles as (S, 1, d_h): one table for every
    sample, head and layer. Pair i of each head turns by
    pos_h * base^(-i/quarter) for i < d_h/4 and by pos_w on the rest.
    pos_h and pos_w must each be (S,) (ShapeError); d_h must be divisible
    by 4 (ConfigError)."""
    if d_h % 4 != 0:
        raise ConfigError(f"head dim {d_h} not divisible by 4")
    if np.shape(pos_h) != (S,) or np.shape(pos_w) != (S,):
        raise ShapeError(f"rope positions pos_h {np.shape(pos_h)} and pos_w "
                         f"{np.shape(pos_w)}; expected ({S},) each for {S} tokens")
    quarter = d_h // 4
    freqs = ROPE_BASE ** (-np.arange(quarter, dtype=np.float64) / quarter)
    ang_h = np.multiply.outer(np.asarray(pos_h, dtype=np.float64), freqs)
    ang_w = np.multiply.outer(np.asarray(pos_w, dtype=np.float64), freqs)
    ang = np.concatenate([ang_h, ang_w], axis=-1)       # (S, d_h/2)
    ang = np.repeat(ang, 2, axis=-1)[:, None, :]        # pairs share an angle
    return np.cos(ang), np.sin(ang)


def _rotated(x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """(x0, x1) -> (-x1, x0) within each adjacent pair of the last axis, as a
    new array; transpose=True applies the transpose, (x0, x1) -> (x1, -x0)."""
    out = np.empty_like(x)
    even, odd = x[..., 0::2], x[..., 1::2]
    if transpose:
        out[..., 0::2], out[..., 1::2] = odd, -even
    else:
        out[..., 0::2], out[..., 1::2] = -odd, even
    return out


def rotate_pairs(t: Tensor) -> Tensor:
    """(x0, x1) -> (-x1, x0) within each adjacent dim pair.

    The model does not record it (qk_norm_rope and joint_attention rotate
    inside their own nodes), but perfbench/layertrace.py looks it up in this
    module's __dict__ to time it, so deleting it makes Tracer.install raise
    KeyError.
    """
    return nt.record("rotate_pairs", (t,), (_rotated(t.data),),
                     lambda g: (_rotated(g, transpose=True),))[0]


def _check_tables(cos: np.ndarray, sin: np.ndarray, heads: tuple[int, ...],
                  name: str) -> None:
    """ShapeError unless cos and sin are the (S, 1, d_h) tables of rope_tables
    for (B, S, H, d_h) heads."""
    want = (heads[1], 1, heads[3])
    if np.shape(cos) != want or np.shape(sin) != want:
        raise ShapeError(f"rope tables cos {np.shape(cos)} and sin {np.shape(sin)}; "
                         f"expected {want} for {name} {heads}")


def _norm_rope(xd: np.ndarray, inv: np.ndarray, cos: np.ndarray,
               sin: np.ndarray) -> np.ndarray:
    """n cos + R(n) sin with n = xd inv, in a new buffer: qk_norm_rope's
    forward given the inverse RMS, so the same call recomputes it bitwise."""
    n = xd * inv
    out = n * cos
    rn = _rotated(n)
    rn *= sin
    out += rn
    return out


def _norm_rope_pullback(g: np.ndarray, xd: np.ndarray, inv: np.ndarray,
                        cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The gradient at xd from g, the gradient at _norm_rope's output: the
    inverse rotation, then the RMS-norm pullback, in one new buffer."""
    gx = g * cos
    gx += _rotated(g * sin, transpose=True)
    dot = (gx * xd).sum(axis=-1, keepdims=True)
    gx *= inv
    gx -= xd * (dot * inv ** 3 / xd.shape[-1])
    return gx


def qk_norm_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """2-axis RoPE of RMSNorm(x) on (B, S, H, d_h) heads, as one tape node.

    The model records it for the text keys only, in precompute_text_kv;
    joint_attention norms and rotates the image queries and keys inside its
    own node with the same array helpers. cos and sin are the (S, 1, d_h)
    angle tables of rope_tables, built once per forward and shared by every
    call. With R the pair rotation (x0, x1) -> (-x1, x0), the forward is

        inv = 1 / sqrt(mean(x²) + NORM_EPS),   n = x inv,   out = n cos + R(n) sin,

    in the numpy order of the rmsnorm → rotate_pairs → mul → mul → add
    composition it replaces, so its values are bitwise that composition's.
    The node keeps only inv (B, S, H, 1) and the caller's two tables; x is
    its input.
    With g the output gradient the pullback is the inverse rotation, then
    the RMS-norm pullback, in one owned buffer:

        gn = g cos + Rᵀ(g sin),   gx = gn inv - x (sum(gn x) inv³ / d_h),

    which sums the same two terms as the engine does for the composition,
    so gradients are bitwise equal too. Tables of another shape raise
    ShapeError.
    """
    if x.ndim != 4:
        raise ShapeError(f"qk_norm_rope expects (B, S, H, d_h) heads, got {x.shape}")
    _check_tables(cos, sin, x.shape, "heads")
    xd = x.data
    inv = nt._rms_inv(xd)
    return nt.record("qk_norm_rope", (x,), (_norm_rope(xd, inv, cos, sin),),
                     lambda g: (_norm_rope_pullback(g, xd, inv, cos, sin),))[0]


# ---------------------------------------------------------------------------
# attention


def _check_attention_shapes(x: Tensor, scale: Tensor, shift: Tensor, wq: Tensor,
                            wk: Tensor, wv: Tensor, wo: Tensor, k_txt: Tensor,
                            v_txt: Tensor, text_mask: np.ndarray, cos: np.ndarray,
                            sin: np.ndarray) -> tuple[int, int, int]:
    """(H_q, H_kv, d_h) of joint_attention's inputs, or the typed error they
    raise."""
    if x.ndim != 3:
        raise ShapeError(f"attention x has shape {x.shape}; expected (B, S_i, d)")
    B, S_i, d = x.shape
    nt._expand_mod(scale.data, x.shape)
    nt._expand_mod(shift.data, x.shape)
    if (np.ndim(cos) != 3 or np.shape(cos)[:2] != (S_i, 1) or np.shape(sin) != np.shape(cos)
            or np.shape(cos)[2] % 2 or np.shape(cos)[2] == 0):
        raise ShapeError(f"rope tables cos {np.shape(cos)} and sin {np.shape(sin)}; "
                         f"expected ({S_i}, 1, d_h), d_h even, for x {x.shape}")
    d_h = np.shape(cos)[2]
    for name, w in (("wq", wq), ("wk", wk)):
        if w.ndim != 2 or w.shape[0] != d or w.shape[1] % d_h:
            raise ShapeError(f"attention {name} has shape {w.shape}; expected "
                             f"({d}, heads * {d_h}) for x {x.shape} and d_h {d_h}")
    if wv.shape != wk.shape:
        raise ShapeError(f"attention wv shape {wv.shape} != wk {wk.shape}")
    if wo.shape != (wq.shape[1], d):
        raise ShapeError(f"attention wo has shape {wo.shape}; expected "
                         f"({wq.shape[1]}, {d}) for wq {wq.shape}")
    H_q, H_kv = wq.shape[1] // d_h, wk.shape[1] // d_h
    if H_kv == 0 or H_q % H_kv != 0:
        raise ConfigError(f"query heads {H_q} not a multiple of kv heads {H_kv}")
    if k_txt is None or v_txt is None or text_mask is None:
        raise ShapeError("attention needs k_txt and v_txt and a text_mask; "
                         "without text, pass zero-length ones")
    if k_txt.ndim != 4 or k_txt.shape[0] != B or k_txt.shape[2:] != (H_kv, d_h):
        raise ShapeError(f"attention k_txt has shape {k_txt.shape}; expected "
                         f"({B}, S_t, {H_kv}, {d_h})")
    if v_txt.shape != k_txt.shape:
        raise ShapeError(f"attention v_txt shape {v_txt.shape} != k_txt {k_txt.shape}")
    if np.shape(text_mask) != k_txt.shape[:2]:
        raise ShapeError(f"attention text_mask has shape {np.shape(text_mask)}; "
                         f"expected {k_txt.shape[:2]} (B, S_t)")
    if S_i + k_txt.shape[1] == 0:
        raise ShapeError("attention over no keys: no image or text tokens")
    return H_q, H_kv, d_h


#: Query rows per tile of joint_attention: a tile's scores at the desk shapes
#: (4 query heads per kv head, 264 keys) are 0.5 MB, so the softmax and
#: pullback passes over them stay in a 2 MB per-core L2 cache.
ATTENTION_TILE = 64


def joint_attention(x: Tensor, scale: Tensor, shift: Tensor, wq: Tensor, wk: Tensor,
                    wv: Tensor, wo: Tensor, k_txt: Tensor, v_txt: Tensor,
                    text_mask: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """A block's attention branch, adaLN modulate to output projection, as
    one tape node.

    x: (B, S_i, d) image tokens; scale and shift: (B, d) adaLN modulation,
    broadcast over the tokens; wq: (d, H_q * d_h), wk and wv: (d, H_kv * d_h),
    wo: (H_q * d_h, d); k/v txt: (B, S_t, H_kv, d_h), k_txt already normed
    and rotated (precompute_text_kv's qk_norm_rope); text_mask: a boolean
    (B, S_t) validity mask; cos and sin: the (S_i, 1, d_h) image angle
    tables of rope_tables. d_h is read from the tables, H_q and H_kv from
    the columns of wq and wk. All are required: without text, S_t is 0
    (what all-empty prompts give), and each of the nine tensors still gets
    a gradient. Text contributes no queries, so scores are (S_i, S_i + S_t).
    Returns (B, S_i, d). Mismatched or missing inputs raise ShapeError, and
    head counts where H_q is not a multiple of H_kv ConfigError.

    With LN a LayerNorm without affine parameters and QK the per-head RMS
    norm and 2-axis RoPE of qk_norm_rope, the forward is

        a = LN(x) (1 + scale) + shift,   q = a W_q,   k = a W_k,   v = a W_v,
        O = softmax(QK(q) [QK(k); k_txt]ᵀ / sqrt(d_h) + mask) [v; v_txt],
        y = O W_o,

    by the numpy calls of the fused_ln_scale → matmul → reshape → attention
    → matmul chain it replaces, so its values are bitwise that chain's.
    Grouped-query attention does not repeat K/V: query head j * n_rep + r
    reads kv head j, and within one kv head the n_rep query heads' rows
    are stacked into one (n_rep * T, d_h) matrix.

    Each sample's whole branch is one task of nt.lanes, forward and
    pullback alike: its LayerNorm, projections, QK-norm/RoPE, attention
    and output projection, and in the pullback every step below down to
    its rows of dx, dscale, dshift and the text dK and dV. A sample's task
    writes only its slot [b] of arrays the node allocated: the output, the
    kept statistics, the input gradients and each weight's product
    (B, ...) buffer, whose sum over the batch the caller forms as matmul's
    pullback does. So a no-grad call holds one sample's a, q, k, v and
    rotated heads per lane, not the batch's, and values do not depend on
    how many lanes run. Within a sample the attention runs in tiles of
    ATTENTION_TILE query rows (the last may be shorter), one at a time in
    row order, as in FlashAttention (Dao et al. 2022). A tile's scores
    S = Q Kᵀ over all S_i + S_t keys are scaled, masked and softmaxed in
    place in one buffer.
    The node keeps only per-row statistics: each token's LayerNorm mean and
    inverse std (B, S_i, 1), the inverse RMS of every query and image key
    head (B, S_i, H, 1), and each score row's max and sum. a, q, k, v, the
    rotated heads and O are not kept (Chen et al. 2016). The pullback
    recomputes a from x with _ln_xhat, then q, k and v by the same matmuls,
    the rotated heads, and each tile's P and O = P V by the forward's exact
    sequence, all bitwise the forward's. With G the output gradient and
    c = 1/sqrt(d_h) it computes dO = G W_oᵀ, then per tile

        dP = dO Vᵀ,   dS = P * (dP - rowsum(dP * P)) c,
        dQ = dS K,    dK += dSᵀ Q,   dV += Pᵀ dO,

    where dK and dV of a sample accumulate over its tiles in row order and
    each tile's GEMM sums over its n_rep query heads and rows at once. Then

        dW_o = Oᵀ G,   dq, dk = the QK-norm/RoPE pullback of dQ, dK,
        da = dv W_vᵀ + dk W_kᵀ,   da += dq W_qᵀ,
        dW_q = aᵀ dq,  dW_k = aᵀ dk,  dW_v = aᵀ dv,
        dx = LN pullback of da (1 + scale),
        dscale = sum over tokens of da x̂,   dshift = sum over tokens of da,

    where each weight's product is formed per sample, in that sample's
    task, and summed over the batch in the caller, as matmul's pullback
    does, and da sums the V, K and Q terms in the order backward summed
    them for the chain. So gradients are bitwise the chain's too.

    The tiled sums make dK and dV, and so the gradients upstream of them,
    not bitwise those of one untiled pass. At the desk shapes (256 image
    and 8 text tokens, 4 query heads per kv head, one OpenBLAS thread) the
    output and dQ were bitwise the untiled node's, and dK and dV moved by
    up to 1.1e-15 relative; so did the desk model's parameter gradients.
    The per-head loop oracle in the tests holds values and gradients to
    rtol 1e-12.
    """
    H_q, H_kv, d_h = _check_attention_shapes(x, scale, shift, wq, wk, wv, wo,
                                             k_txt, v_txt, text_mask, cos, sin)
    B, S_i, d = x.shape
    n_rep = H_q // H_kv
    qk_scale = 1.0 / math.sqrt(d_h)
    sd, bd = nt._expand_mod(scale.data, x.shape), nt._expand_mod(shift.data, x.shape)
    xd, wod = x.data, wo.data
    bias = np.where(np.asarray(text_mask, bool), 0.0, -1e30)     # (B, S_t)
    tiles = [slice(r, min(r + ATTENTION_TILE, S_i)) for r in range(0, S_i, ATTENTION_TILE)]
    projections = ((wq, H_q), (wk, H_kv), (wv, H_kv))

    def heads_of(t: np.ndarray, rows: slice) -> np.ndarray:
        """Rows of one sample's (S_i, H_q * d_h)-sized array as
        (H_kv, n_rep * T, d_h): kv head, then query head and row."""
        t = t.reshape(S_i, H_kv, n_rep, d_h)[rows].transpose(1, 2, 0, 3)
        return t.reshape(H_kv, -1, d_h)

    def put_heads(dst: np.ndarray, rows: slice, t: np.ndarray) -> None:
        """Inverse of heads_of: write t into rows of dst."""
        dst.reshape(S_i, H_kv, n_rep, d_h)[rows] = (
            t.reshape(H_kv, n_rep, -1, d_h).transpose(2, 0, 1, 3))

    def branch(b: int, xhat: np.ndarray, fill: bool):
        """Sample b's modulated input a, its q, k and v heads (S_i, H, d_h),
        the normed and rotated q, and the key and value heads of every
        token, (H_kv, S_kv, d_h): image, then text. With fill, the inverse
        RMS of each q and k head is computed and stored into inv_q and
        inv_k; else it is read from them."""
        a = xhat * (1.0 + sd[b])
        a += bd[b]
        qd, kd, vd = (np.matmul(a, w.data).reshape(S_i, H, d_h) for w, H in projections)
        if fill:
            inv_q[b], inv_k[b] = nt._rms_inv(qd), nt._rms_inv(kd)
        kh = np.concatenate([_norm_rope(kd, inv_k[b], cos, sin), k_txt.data[b]])
        vh = np.concatenate([vd, v_txt.data[b]])
        return (a, qd, kd, _norm_rope(qd, inv_q[b], cos, sin),
                kh.transpose(1, 0, 2).copy(), vh.transpose(1, 0, 2).copy())

    def probs(b, rows, qt, kh, fill):
        """P of one tile of sample b in its scores' buffer, (H_kv, n_rep * T,
        S_kv). With fill, the row max and sum are computed and stored into
        stats; else they are read from them."""
        p = np.matmul(qt, np.swapaxes(kh, -1, -2))
        p *= qk_scale
        p[..., S_i:] += bias[b]
        row_max, row_sum = (s[b, :, :, rows] for s in stats)
        if fill:
            row_max[...] = p.max(axis=-1).reshape(row_max.shape)
        p -= row_max.reshape(H_kv, -1, 1)
        np.exp(p, out=p)
        if fill:
            row_sum[...] = p.sum(axis=-1).reshape(row_sum.shape)
        p /= row_sum.reshape(H_kv, -1, 1)
        return p

    # the kept statistics and the output, filled at [b] by sample b's task
    mu, inv = np.empty((B, S_i, 1)), np.empty((B, S_i, 1))
    inv_q, inv_k = np.empty((B, S_i, H_q, 1)), np.empty((B, S_i, H_kv, 1))
    stats = (np.empty((B, H_kv, n_rep, S_i, 1)), np.empty((B, H_kv, n_rep, S_i, 1)))
    y = np.empty((B, S_i, d))

    def sample(b: int) -> None:
        xhat, mu[b], inv[b] = nt._ln_stats(xd[b])
        qn, kh, vh = branch(b, xhat, fill=True)[3:]
        del xhat
        o = np.empty((S_i, H_q * d_h))
        for rows in tiles:
            p = probs(b, rows, heads_of(qn, rows), kh, fill=True)
            put_heads(o, rows, np.matmul(p, vh))
        np.matmul(o, wod, out=y[b])

    for _ in nt.lanes(sample, range(B)):
        pass

    def bwd(g):
        # each sample's share, filled at [b] by its task: the input
        # gradients, and each weight's product, summed over the batch below
        gx, g_scale, g_shift = np.empty(x.shape), np.empty(scale.shape), np.empty(shift.shape)
        g_ktxt, g_vtxt = np.empty(k_txt.shape), np.empty(v_txt.shape)
        g_wq, g_wk, g_wv, g_wo = (np.empty((B, *w.shape)) for w in (wq, wk, wv, wo))

        def sample_pullback(b: int) -> None:
            xhat = nt._ln_xhat(xd[b], mu[b], inv[b])
            a, qd, kd, qn, kh, vh = branch(b, xhat, fill=False)
            go = np.matmul(g[b], np.swapaxes(wod, -1, -2))       # dO
            o = np.empty(go.shape)
            gq = np.empty(qd.shape)
            gk, gv = np.zeros(kh.shape), np.zeros(vh.shape)      # (H_kv, S_kv, d_h)
            for rows in tiles:
                qt, got = heads_of(qn, rows), heads_of(go, rows)
                p = probs(b, rows, qt, kh, fill=False)
                put_heads(o, rows, np.matmul(p, vh))
                gs = np.matmul(got, np.swapaxes(vh, -1, -2))     # dP, then dS in place
                gv += np.matmul(np.swapaxes(p, -1, -2), got)
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= qk_scale
                put_heads(gq, rows, np.matmul(gs, kh))
                gk += np.matmul(np.swapaxes(gs, -1, -2), qt)
            del qn, kh, vh, go
            np.matmul(np.swapaxes(o, -1, -2), g[b], out=g_wo[b])
            del o
            gk, gv = gk.transpose(1, 0, 2), gv.transpose(1, 0, 2)  # (S_kv, H_kv, d_h)
            g_ktxt[b], g_vtxt[b] = gk[S_i:], gv[S_i:]
            gq = _norm_rope_pullback(gq, qd, inv_q[b], cos, sin)
            g_kimg = _norm_rope_pullback(np.ascontiguousarray(gk[:S_i]), kd, inv_k[b],
                                         cos, sin)
            g_vimg = np.ascontiguousarray(gv[:S_i])
            del gk, gv, qd, kd

            def projection_pullback(w: Tensor, gh: np.ndarray, gw: np.ndarray) -> np.ndarray:
                """matmul's pullback of a W from the (S_i, H, d_h) heads'
                gradient: a's gradient, with aᵀ times it written into gw."""
                g2 = gh.reshape(S_i, w.shape[1])
                np.matmul(np.swapaxes(a, -1, -2), g2, out=gw)
                return np.matmul(g2, np.swapaxes(w.data, -1, -2))

            ga = projection_pullback(wv, g_vimg, g_wv[b])
            ga = ga + projection_pullback(wk, g_kimg, g_wk[b])
            ga += projection_pullback(wq, gq, g_wq[b])
            gx[b] = nt._ln_bwd(xhat, inv[b], ga * (1.0 + sd[b]))
            g_scale[b] = (ga * xhat).sum(axis=0)
            g_shift[b] = ga.sum(axis=0)

        for _ in nt.lanes(sample_pullback, range(B)):
            pass
        return (gx, g_scale, g_shift, nt._sum_to(g_wq, wq.shape), nt._sum_to(g_wk, wk.shape),
                nt._sum_to(g_wv, wv.shape), nt._sum_to(g_wo, wo.shape), g_ktxt, g_vtxt)

    return nt.record("joint_attention", (x, scale, shift, wq, wk, wv, wo, k_txt, v_txt),
                     (y,), bwd)[0]


# ---------------------------------------------------------------------------
# timestep embedding


def _timestep_values(t) -> np.ndarray:
    """A timestep as an array. The timestep is data: a Tensor t that requires
    grad, whose gradient nothing would form, and values that are not real
    numbers, or ragged nesting that is no array at all, raise UnsupportedOp."""
    if isinstance(t, Tensor):
        if t.requires_grad:
            raise UnsupportedOp("timestep t requires grad; it is data, and no "
                                "gradient flows to it")
        t = t.data
    try:
        vals = np.asarray(t)
    except ValueError:  # inhomogeneous nesting such as [[0.1], [0.2, 0.3]]
        raise UnsupportedOp("timestep t is ragged; expected a scalar or (B,) "
                            "real values") from None
    if vals.dtype.kind not in "iuf":
        raise UnsupportedOp(f"timestep t has dtype {vals.dtype}; expected real numbers")
    return vals


def sinusoidal_features(t, dim: int) -> Tensor:
    """Half sine / half cosine features over log-spaced frequencies.

    t: scalar or (B,) array, or Tensor that does not require grad, of real
    values in [0, 1], and dim an even integer >= 0 (ConfigError). Returns
    the (B, dim) features as a constant Tensor; at t = 0 the sine half is
    exactly 0 and the cosine half exactly 1. NaN is outside the domain.
    """
    if not isinstance(dim, numbers.Integral) or dim < 0 or dim % 2 != 0:
        raise ConfigError(f"feature dim {dim!r} must be an even integer >= 0")
    vals = _timestep_values(t)
    if vals.ndim > 1:
        raise ShapeError(f"timestep t has shape {vals.shape}; expected () or (B,)")
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise DomainError(f"timestep outside [0, 1]: {vals}")
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, math.log(10000.0), half))
    args = vals.astype(np.float64).reshape(-1, 1) * freqs       # (B, half)
    return Tensor(np.concatenate([np.sin(args), np.cos(args)], axis=-1))


class TimestepEmbed:
    """Sinusoidal features through a two-layer SiLU MLP."""

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.d_model = d_model
        self.w1 = Tensor(trunc_normal(rng, (d_model, d_model)), requires_grad=True)
        self.b1 = Tensor(np.zeros(d_model), requires_grad=True)
        self.w2 = Tensor(trunc_normal(rng, (d_model, d_model)), requires_grad=True)
        self.b2 = Tensor(np.zeros(d_model), requires_grad=True)

    def __call__(self, t) -> Tensor:
        feats = sinusoidal_features(t, self.d_model)          # (B, d)
        h = nt.silu(nt.add(nt.matmul(feats, self.w1), self.b1))
        return nt.add(nt.matmul(h, self.w2), self.b2)

    def named_parameters(self, prefix: str):
        return {f"{prefix}.fc1.weight": self.w1, f"{prefix}.fc1.bias": self.b1,
                f"{prefix}.fc2.weight": self.w2, f"{prefix}.fc2.bias": self.b2}


# ---------------------------------------------------------------------------
# text encoding and text-KV precompute


def hash_token_embedding(token: str, dim: int) -> np.ndarray:
    """Deterministic per-token embedding from a content hash."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(seed).standard_normal(dim) / math.sqrt(dim)


def encode_prompt(prompt: str, dim: int) -> np.ndarray:
    return np.array([hash_token_embedding(t, dim) for t in prompt.split()]).reshape(-1, dim)


@dataclass
class TextContext:
    """Per-layer text key/value tensors, fixed for a given prompt set.

    Nothing here depends on the diffusion timestep, so a context computed
    once is reused across every denoising step. When every prompt is empty,
    S_t is 0: this zero-length context is how a forward runs without text,
    and joint_attention then attends over the image tokens only.
    """

    k_txt: list[Tensor]          # per layer, (B, S_t, H_kv, d_h)
    v_txt: list[Tensor]
    mask: np.ndarray             # (B, S_t) validity for padded positions
    # the model whose text projections made it; weak, so a context kept
    # across set-ups does not keep a dropped model's weights alive
    model: weakref.ref


# ---------------------------------------------------------------------------
# model


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until inside +-2 std.

    Each round redraws only the entries still outside, in flat order, so the
    draws land where a redraw of the whole mask would put them.
    """
    out = np.asarray(rng.standard_normal(shape) * std)   # 0-d too, so flat is a view
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redrawn = rng.standard_normal(bad.size) * std
        flat[bad] = redrawn
        bad = bad[np.abs(redrawn) > 2.0 * std]
    return out


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 32
    n_q_heads: int = 4
    n_kv_heads: int = 1
    head_dim: int = 8
    n_experts: int = 4
    expert_hidden: int = 16   # routed and shared experts alike
    latent_channels: int = 4
    patch: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_q_heads", "n_kv_heads", "head_dim",
                     "n_experts", "expert_hidden", "latent_channels", "patch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigError("n_q_heads must be a multiple of n_kv_heads")
        if self.n_q_heads * self.head_dim != self.d_model:
            raise ConfigError("n_q_heads * head_dim must equal d_model")
        if self.head_dim % 4 != 0:
            raise ConfigError("head_dim must be divisible by 4 for 2-axis rope")


class Block:
    def __init__(self, cfg: ModelConfig, layer: int, rng: np.random.Generator):
        d = cfg.d_model
        kv_dim = cfg.n_kv_heads * cfg.head_dim
        p = lambda shape, std=0.02: Tensor(trunc_normal(rng, shape, std),
                                           requires_grad=True)
        self.layer = layer
        self.cfg = cfg
        self.wq = p((d, d))
        self.wk = p((d, kv_dim))
        self.wv = p((d, kv_dim))
        self.wo = p((d, d))
        self.wk_txt = p((d, kv_dim))
        self.wv_txt = p((d, kv_dim))
        # (sa_shift, sa_scale, sa_gate, ff_scale, ff_gate) from t_emb
        self.mod_w = Tensor(np.zeros((d, 5 * d)), requires_grad=True)
        self.mod_b = Tensor(np.zeros(5 * d), requires_grad=True)
        self.dense = layer < DENSE_LAYERS
        if self.dense:  # hidden width d
            self.ffn_w1 = p((d, d))
            self.ffn_w3 = p((d, d))
            self.ffn_w2 = p((d, d))
        else:
            E, h = cfg.n_experts, cfg.expert_hidden
            self.router_gate = p((2 * d, E), std=0.006)
            self.bank = ExpertBank(w1=p((E, h, d)), w3=p((E, h, d)),
                                   w2=p((E, d, h)), shared_w1=p((h, d)),
                                   shared_w3=p((h, d)), shared_w2=p((d, h)))

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.attn.wq": self.wq, f"{prefix}.attn.wk": self.wk,
               f"{prefix}.attn.wv": self.wv, f"{prefix}.attn.wo": self.wo,
               f"{prefix}.attn.wk_txt": self.wk_txt,
               f"{prefix}.attn.wv_txt": self.wv_txt,
               f"{prefix}.img_mod.weight": self.mod_w,
               f"{prefix}.img_mod.bias": self.mod_b}
        if self.dense:
            out.update({f"{prefix}.ffn.w1": self.ffn_w1,
                        f"{prefix}.ffn.w3": self.ffn_w3,
                        f"{prefix}.ffn.w2": self.ffn_w2})
        else:
            out.update({f"{prefix}.router.gate": self.router_gate,
                        f"{prefix}.moe.w1": self.bank.w1,
                        f"{prefix}.moe.w3": self.bank.w3,
                        f"{prefix}.moe.w2": self.bank.w2,
                        f"{prefix}.moe.shared_w1": self.bank.shared_w1,
                        f"{prefix}.moe.shared_w3": self.bank.shared_w3,
                        f"{prefix}.moe.shared_w2": self.bank.shared_w2})
        return out


def _chunks(m: Tensor, n: int) -> tuple[Tensor, ...]:
    """Split (B, n*d) modulation into n (B, d) parts."""
    return nt.split(m, n, axis=-1)


class MoEDiT:
    """Patchified latent in, velocity out; dense then MoE blocks."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        d = cfg.d_model
        in_dim = cfg.latent_channels * cfg.patch * cfg.patch
        self.patch_w = Tensor(trunc_normal(rng, (in_dim, d)), requires_grad=True)
        self.patch_b = Tensor(np.zeros(d), requires_grad=True)
        self.time_embed = TimestepEmbed(d, rng)
        self.blocks = [Block(cfg, i, rng) for i in range(cfg.n_layers)]
        self.final_mod_w = Tensor(np.zeros((d, 2 * d)), requires_grad=True)
        self.final_mod_b = Tensor(np.zeros(2 * d), requires_grad=True)
        self.final_proj_w = Tensor(trunc_normal(rng, (d, in_dim)), requires_grad=True)
        self.final_proj_b = Tensor(np.zeros(in_dim), requires_grad=True)
        self._text_kv_recomputes = 0

    # -- parameters -------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"patch_embed.weight": self.patch_w,
                  "patch_embed.bias": self.patch_b}
        params.update(self.time_embed.named_parameters("time_embed"))
        for i, blk in enumerate(self.blocks):
            params.update(blk.named_parameters(f"blocks.{i}"))
        params.update({"final_mod.weight": self.final_mod_w,
                       "final_mod.bias": self.final_mod_b,
                       "final_proj.weight": self.final_proj_w,
                       "final_proj.bias": self.final_proj_b})
        return params

    # -- text -------------------------------------------------------------

    @property
    def text_kv_recompute_count(self) -> int:
        return self._text_kv_recomputes

    def precompute_text_kv(self, prompts: Sequence[str]) -> TextContext:
        """Project encoder output to per-layer text KV, once per prompt set.
        prompts is a sequence of str, one per sample (ShapeError otherwise)."""
        if (isinstance(prompts, str) or not isinstance(prompts, Sequence)
                or not all(isinstance(p, str) for p in prompts)):
            raise ShapeError("prompts must be a sequence of str, one per sample")
        self._text_kv_recomputes += 1
        cfg = self.cfg
        d = cfg.d_model
        enc = [encode_prompt(p, d) for p in prompts]
        s_t = max((e.shape[0] for e in enc), default=0)
        B = len(prompts)
        mask = np.zeros((B, s_t), dtype=bool)
        cmat = np.zeros((B, s_t, d))
        for b, e in enumerate(enc):
            mask[b, :e.shape[0]] = True
            cmat[b, :e.shape[0]] = e
        c = Tensor(cmat)
        ks, vs = [], []
        rope = rope_tables(np.zeros(s_t), np.arange(s_t), s_t, cfg.head_dim)
        for blk in self.blocks:
            k = nt.reshape(nt.matmul(c, blk.wk_txt),
                           (B, s_t, cfg.n_kv_heads, cfg.head_dim))
            k = qk_norm_rope(k, *rope)
            v = nt.reshape(nt.matmul(c, blk.wv_txt),
                           (B, s_t, cfg.n_kv_heads, cfg.head_dim))
            ks.append(k)
            vs.append(v)
        return TextContext(k_txt=ks, v_txt=vs, mask=mask, model=weakref.ref(self))

    # -- forward ----------------------------------------------------------

    def patchify(self, z: Tensor) -> tuple[Tensor, tuple[int, int]]:
        B, C, H, W = z.shape
        p = self.cfg.patch
        if H % p or W % p:
            raise ShapeError(f"latent {H}x{W} not divisible by patch {p}")
        gh, gw = H // p, W // p
        t = nt.reshape(z, (B, C, gh, p, gw, p))
        t = nt.transpose(t, (0, 2, 4, 1, 3, 5))
        return nt.reshape(t, (B, gh * gw, C * p * p)), (gh, gw)

    def unpatchify(self, tokens: Tensor, grid: tuple[int, int],
                   shape: tuple[int, ...]) -> Tensor:
        B, C, H, W = shape
        p = self.cfg.patch
        gh, gw = grid
        t = nt.reshape(tokens, (B, gh, gw, C, p, p))
        t = nt.transpose(t, (0, 3, 1, 4, 2, 5))
        return nt.reshape(t, (B, C, H, W))

    def forward(self, z_t: Tensor, t, ctx: TextContext, stage: StageId):
        """Predict the velocity for a noisy latent.

        ctx is required: this model's precompute_text_kv output, holding one
        prompt per sample (ShapeError otherwise); to run without text, pass
        the zero-length context of all-empty prompts. t is a scalar or (B,)
        array, or a Tensor that does not require grad, of real values (see
        sinusoidal_features), and stage a StageId (ConfigError otherwise,
        checked before anything runs). z_t is (B, C, H, W) with B, H and W
        at least 1 (ShapeError, checked first). Returns (velocity, aux)
        where aux carries each MoE layer's router logits, a (B, S, E) array
        off the tape, and its routing decisions.
        """
        cfg = self.cfg
        if (z_t.ndim != 4 or z_t.shape[1] != cfg.latent_channels
                or 0 in (z_t.shape[0], *z_t.shape[2:])):
            raise ShapeError(f"latent z_t has shape {z_t.shape}; expected "
                             f"(B, {cfg.latent_channels}, H, W) with B, H, W >= 1")
        if not isinstance(stage, StageId):
            raise ConfigError(f"stage {stage!r} is not a StageId")
        B = z_t.shape[0]
        if not isinstance(ctx, TextContext):
            raise ShapeError(f"text context ctx is {type(ctx).__name__}; expected a "
                             "TextContext (all-empty prompts for no text)")
        if ctx.mask.shape[0] != B:
            raise ShapeError(f"text context ctx holds {ctx.mask.shape[0]} prompts "
                             f"for a latent batch of {B}")
        if len(ctx.k_txt) != len(self.blocks) or len(ctx.v_txt) != len(self.blocks):
            raise ShapeError(f"text context ctx holds K/V for {len(ctx.k_txt)} layers "
                             f"for a model of {len(self.blocks)}")
        if ctx.model() is not self:
            raise ShapeError("text context ctx was built by another model; its K/V "
                             "come from that model's text projections")
        tokens, (gh, gw) = self.patchify(z_t)
        x = nt.add(nt.matmul(tokens, self.patch_w), self.patch_b)
        t_arr = _timestep_values(t)
        if t_arr.shape not in ((), (B,)):
            raise ShapeError(f"timestep t has shape {t_arr.shape}; expected () "
                             f"or ({B},) for a batch of {B}")
        t_vec = self.time_embed(np.broadcast_to(t_arr, (B,)))
        rope = rope_tables(np.repeat(np.arange(gh), gw), np.tile(np.arange(gw), gh),
                           gh * gw, cfg.head_dim)

        aux = {"router_logits": [], "decisions": []}
        for blk in self.blocks:
            mod = nt.add(nt.matmul(t_vec, blk.mod_w), blk.mod_b)
            sa_shift, sa_scale, sa_gate, ff_scale, ff_gate = _chunks(mod, 5)

            r_attn = self._attention(blk, x, sa_scale, sa_shift, ctx, rope)

            if blk.dense:
                x = dense_ffn_half(x, r_attn, sa_gate, ff_scale, ff_gate,
                                   blk.ffn_w1, blk.ffn_w3, blk.ffn_w2)
            else:
                cf = capacity_schedule(blk.layer, stage, n_layers=cfg.n_layers)
                x, decisions, routing = moe_forward(
                    x, r_attn, sa_gate, ff_scale, ff_gate, t_vec, blk.router_gate,
                    blk.bank, cf, 1.0 / math.sqrt(blk.layer + 1))
                aux["router_logits"].append(routing["logits"])
                aux["decisions"].append((blk.layer, decisions))

        fmod = nt.add(nt.matmul(t_vec, self.final_mod_w), self.final_mod_b)
        f_shift, f_scale = _chunks(fmod, 2)
        y = fused_ln_scale(x, f_scale, f_shift)
        out = nt.add(nt.matmul(y, self.final_proj_w), self.final_proj_b)
        vel = self.unpatchify(out, (gh, gw), z_t.shape)
        return vel, aux

    def _attention(self, blk: Block, x: Tensor, sa_scale: Tensor, sa_shift: Tensor,
                   ctx: TextContext, rope: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """The block's attention branch on the residual stream x, before its
        gate: one joint_attention node."""
        return joint_attention(x, sa_scale, sa_shift, blk.wq, blk.wk, blk.wv, blk.wo,
                               ctx.k_txt[blk.layer], ctx.v_txt[blk.layer], ctx.mask, *rope)
