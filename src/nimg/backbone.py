"""Toy diffusion-transformer backbone.

Blocks pair grouped-query joint attention (image queries over concatenated
image and text KV) with either a dense SwiGLU FFN or a sparse MoE layer.
Timestep conditioning enters through zero-initialized modulation, so every
block is an exact identity at initialization. The fused residual /
normalization ops are single tape nodes with hand-derived pullbacks and are
contractually equivalent to their multi-op compositions. Joint attention is
one such node too. It runs one tile at a time, one sample and up to
ATTENTION_TILE query rows: a tile's scores, mask and softmax share one
buffer that stays in cache, and the node keeps only each score row's max
and sum. Its pullback recomputes each tile's probabilities from the inputs
and those two statistics, and sums the key and value gradients over the
tiles in row order, so they are not bitwise those of one untiled pass
(1.1e-15 relative at most in the desk-model checks). Each query and key
head's RMS norm and 2-axis rotary rotation is one node, qk_norm_rope, which
keeps only the inverse RMS and the two angle tables (built once per forward
and shared by every layer); its pullback is the inverse rotation followed
by the RMS-norm pullback.

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
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .moe import ExpertBank, moe_forward, swiglu
from .router import DENSE_LAYERS, ConfigError, StageId, capacity_schedule
from .tensor import DomainError, ShapeError, Tensor, UnsupportedOp


# ---------------------------------------------------------------------------
# fused modulation kernels (one tape node each)


def _expand_mod(m: np.ndarray, like_shape: tuple[int, ...]) -> np.ndarray:
    """(B, d) modulation as (B, 1, d), broadcast over the tokens of (B, S, d)."""
    if len(like_shape) != 3 or m.shape != (like_shape[0], like_shape[2]):
        raise ShapeError(f"modulation shape {m.shape} is not (B, d) for "
                         f"activations {like_shape}")
    return m[:, None, :]


def fused_gated_residual(x: Tensor, g: Tensor, r: Tensor) -> Tensor:
    """x + tanh(g) * r in one pass; g is (B, d) broadcast over tokens.
    tanh(0) = 0 gates the branch fully off."""
    if r.shape != x.shape:
        raise ShapeError(f"residual shape {r.shape} != {x.shape}")
    th = np.tanh(_expand_mod(g.data, x.shape))
    rd = r.data
    out = x.data + th * rd

    def bwd(G):
        return G, (G * rd * (1.0 - th * th)).sum(axis=1), G * th

    return nt.record("fused_gated_residual", (x, g, r), (out,), bwd)[0]


def fused_ln_scale(x: Tensor, s: Tensor) -> Tensor:
    """LayerNorm(x) * (1 + s) in one pass; s = 0 reduces to plain LayerNorm."""
    sd = _expand_mod(s.data, x.shape)
    xhat, inv = nt._ln_stats(x.data)
    out = xhat * (1.0 + sd)

    def bwd(G):
        return nt._ln_bwd(xhat, inv, G * (1.0 + sd)), (G * xhat).sum(axis=1)

    return nt.record("fused_ln_scale", (x, s), (out,), bwd)[0]


def fused_gate_res_ln_scale(x: Tensor, g: Tensor, r: Tensor,
                            s: Tensor) -> tuple[Tensor, Tensor]:
    """Gated residual then LayerNorm-scale, one pass.

    Returns (h, m) with h = x + tanh(g) * r (the updated residual stream)
    and m = LayerNorm(h) * (1 + s).
    """
    if r.shape != x.shape:
        raise ShapeError(f"residual shape {r.shape} != {x.shape}")
    th = np.tanh(_expand_mod(g.data, x.shape))
    sd = _expand_mod(s.data, x.shape)
    rd = r.data
    h = x.data + th * rd
    xhat, inv = nt._ln_stats(h)
    m = xhat * (1.0 + sd)

    def bwd(Gh, Gm):
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

    The model does not record it (qk_norm_rope rotates inside its own node),
    but perfbench/layertrace.py looks it up in this module's __dict__ to time
    it, so deleting it makes Tracer.install raise KeyError.
    """
    return nt.record("rotate_pairs", (t,), (_rotated(t.data),),
                     lambda g: (_rotated(g, transpose=True),))[0]


def qk_norm_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """2-axis RoPE of RMSNorm(x) on (B, S, H, d_h) heads, as one tape node.

    cos and sin are the (S, 1, d_h) angle tables of rope_tables, built once
    per forward and shared by every call. With R the pair rotation
    (x0, x1) -> (-x1, x0), the forward is

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
    d_h = x.shape[3]
    want = (x.shape[1], 1, d_h)
    if np.shape(cos) != want or np.shape(sin) != want:
        raise ShapeError(f"rope tables cos {np.shape(cos)} and sin {np.shape(sin)}; "
                         f"expected {want} for heads {x.shape}")
    xd = x.data
    ms = (xd * xd).mean(axis=-1, keepdims=True) + nt.NORM_EPS
    inv = 1.0 / np.sqrt(ms)
    n = xd * inv
    out = n * cos
    rn = _rotated(n)
    rn *= sin
    out += rn

    def bwd(g):
        gx = g * cos
        gx += _rotated(g * sin, transpose=True)
        dot = (gx * xd).sum(axis=-1, keepdims=True)
        gx *= inv
        gx -= xd * (dot * inv ** 3 / d_h)
        return (gx,)

    return nt.record("qk_norm_rope", (x,), (out,), bwd)[0]


# ---------------------------------------------------------------------------
# attention


def _check_attention_shapes(q: Tensor, k_img: Tensor, v_img: Tensor,
                            k_txt: Tensor, v_txt: Tensor,
                            text_mask: np.ndarray) -> None:
    if q.ndim != 4:
        raise ShapeError(f"attention q has shape {q.shape}; expected (B, S_i, H_q, d_h)")
    B, S_i, H_q, d_h = q.shape
    if k_img.ndim != 4 or k_img.shape[:2] != (B, S_i) or k_img.shape[3] != d_h:
        raise ShapeError(f"attention k_img has shape {k_img.shape}; expected "
                         f"({B}, {S_i}, H_kv, {d_h}) for q {q.shape}")
    if v_img.shape != k_img.shape:
        raise ShapeError(f"attention v_img shape {v_img.shape} != k_img {k_img.shape}")
    H_kv = k_img.shape[2]
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


#: Query rows per tile of joint_attention: a tile's scores at the desk shapes
#: (4 query heads per kv head, 264 keys) are 0.5 MB, so the softmax and
#: pullback passes over them stay in a 2 MB per-core L2 cache.
ATTENTION_TILE = 64


def joint_attention(q: Tensor, k_img: Tensor, v_img: Tensor, k_txt: Tensor,
                    v_txt: Tensor, text_mask: np.ndarray) -> Tensor:
    """Image queries attend over concatenated image and text KV; one tape node.

    q: (B, S_i, H_q, d_h); k/v img: (B, S_i, H_kv, d_h); k/v txt
    (B, S_t, H_kv, d_h); text_mask is a boolean (B, S_t) validity mask.
    All six are required: without text, S_t is 0 (what all-empty prompts
    give), and the node still has five inputs, each of which gets a
    gradient. Text contributes no queries, so scores are (S_i, S_i + S_t).
    Returns (B, S_i, H_q * d_h). Mismatched or missing inputs raise
    ShapeError.

    Grouped-query attention without repeating K/V: query head j * n_rep + r
    reads kv head j, and within one kv head the n_rep query heads' rows are
    stacked into one (n_rep * T, d_h) matrix.

    Forward and pullback run one tile at a time: one sample and a block of
    ATTENTION_TILE query rows (the last block of a sample may be shorter),
    as in FlashAttention (Dao et al. 2022). A tile's scores S = Q Kᵀ over
    all S_i + S_t keys are scaled, masked and softmaxed in place in one
    buffer. The node keeps only each row's max and sum (two (..., S_i, 1)
    arrays): the pullback rebuilds the tile's Q from its input and
    recomputes P with the forward's exact sequence, so the recomputed P is
    bitwise the forward's. With scale = 1/sqrt(d_h) and dO the output
    gradient, each tile's pullback is

        dP = dO Vᵀ,   dS = P * (dP - rowsum(dP * P)) * scale,
        dQ = dS K,    dK += dSᵀ Q,   dV += Pᵀ dO,

    where dK and dV of a sample accumulate over its tiles in row order, and
    each tile's GEMM sums over its n_rep query heads and rows at once.
    Gradients are therefore not bitwise those of one untiled pass. At the
    desk shapes (256 image and 8 text tokens, 4 query heads per kv head, one
    OpenBLAS thread) the output and dQ were bitwise the untiled node's, and
    dK and dV moved by up to 1.1e-15 relative; so did the desk model's
    parameter gradients. The per-head loop oracle in the tests holds values
    and gradients to rtol 1e-12.
    """
    _check_attention_shapes(q, k_img, v_img, k_txt, v_txt, text_mask)
    B, S_i, H_q, d_h = q.shape
    H_kv = k_img.shape[2]
    n_rep = H_q // H_kv
    scale = 1.0 / math.sqrt(d_h)

    inputs = (q, k_img, v_img, k_txt, v_txt)
    S_kv = S_i + k_txt.shape[1]
    if S_kv == 0:
        raise ShapeError("attention over no keys: no image or text tokens")
    bias = np.where(np.asarray(text_mask, bool), 0.0, -1e30)     # (B, S_t)
    tiles = [(b, slice(r, min(r + ATTENTION_TILE, S_i)))
             for b in range(B) for r in range(0, S_i, ATTENTION_TILE)]

    def heads_of(a: np.ndarray, b: int, rows: slice) -> np.ndarray:
        """Rows of sample b of a (B, S_i, H_q * d_h)-sized array as
        (H_kv, n_rep * T, d_h): kv head, then query head and row."""
        t = a.reshape(B, S_i, H_kv, n_rep, d_h)[b, rows].transpose(1, 2, 0, 3)
        return t.reshape(H_kv, -1, d_h)

    def put_heads(dst: np.ndarray, b: int, rows: slice, t: np.ndarray) -> None:
        """Inverse of heads_of: write t into rows of sample b of dst."""
        dst.reshape(B, S_i, H_kv, n_rep, d_h)[b, rows] = (
            t.reshape(H_kv, n_rep, -1, d_h).transpose(2, 0, 1, 3))

    def kv_heads(img: Tensor, txt: Tensor) -> np.ndarray:
        """(B, H_kv, S_kv, d_h): image keys (or values), then text."""
        return np.concatenate([img.data, txt.data], axis=1).transpose(0, 2, 1, 3).copy()

    def probs(b, rows, qt, kh, stats, fill):
        """P of one tile in its scores' buffer, (H_kv, n_rep * T, S_kv). With
        fill, the row max and sum are computed and stored into stats; else
        they are read from them."""
        p = np.matmul(qt, np.swapaxes(kh[b], -1, -2))
        p *= scale
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

    stats = (np.empty((B, H_kv, n_rep, S_i, 1)), np.empty((B, H_kv, n_rep, S_i, 1)))
    kh, vh = kv_heads(k_img, k_txt), kv_heads(v_img, v_txt)
    out = np.empty((B, S_i, H_q * d_h))
    for b, rows in tiles:
        p = probs(b, rows, heads_of(q.data, b, rows), kh, stats, fill=True)
        put_heads(out, b, rows, np.matmul(p, vh[b]))

    def bwd(g):
        kh, vh = kv_heads(k_img, k_txt), kv_heads(v_img, v_txt)
        gq = np.empty(q.shape)
        gk, gv = np.zeros(kh.shape), np.zeros(vh.shape)          # (B, H_kv, S_kv, d_h)
        for b, rows in tiles:
            qt, go = heads_of(q.data, b, rows), heads_of(g, b, rows)
            p = probs(b, rows, qt, kh, stats, fill=False)
            gs = np.matmul(go, np.swapaxes(vh[b], -1, -2))      # dP, then dS in place
            gv[b] += np.matmul(np.swapaxes(p, -1, -2), go)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            put_heads(gq, b, rows, np.matmul(gs, kh[b]))
            gk[b] += np.matmul(np.swapaxes(gs, -1, -2), qt)
        gk, gv = gk.transpose(0, 2, 1, 3), gv.transpose(0, 2, 1, 3)  # (B, S_kv, H_kv, d_h)
        return (gq, np.ascontiguousarray(gk[:, :S_i]), np.ascontiguousarray(gv[:, :S_i]),
                np.ascontiguousarray(gk[:, S_i:]), np.ascontiguousarray(gv[:, S_i:]))

    return nt.record("joint_attention", inputs, (out,), bwd)[0]


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
    values in [0, 1]. Returns the (B, dim) features as a constant Tensor; at
    t = 0 the sine half is exactly 0 and the cosine half exactly 1. NaN is
    outside the domain.
    """
    if dim % 2 != 0:
        raise ConfigError(f"feature dim {dim} must be even")
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
    """Normal(0, std) resampled until inside +-2 std."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2.0 * std
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

    def precompute_text_kv(self, prompts: list[str]) -> TextContext:
        """Project encoder output to per-layer text KV, once per prompt set."""
        if isinstance(prompts, str) or not all(isinstance(p, str) for p in prompts):
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
        checked before anything runs). Returns (velocity, aux)
        where aux carries the tape-connected router logits and the routing
        decisions of every MoE layer.
        """
        cfg = self.cfg
        if not isinstance(stage, StageId):
            raise ConfigError(f"stage {stage!r} is not a StageId")
        if z_t.ndim != 4 or z_t.shape[1] != cfg.latent_channels:
            raise ShapeError(f"latent z_t has shape {z_t.shape}; expected "
                             f"(B, {cfg.latent_channels}, H, W)")
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

            a_in = nt.add(fused_ln_scale(x, sa_scale), nt.reshape(sa_shift, (B, 1, -1)))
            r_attn = self._attention(blk, a_in, ctx, rope)

            if blk.dense:
                h, f_in = fused_gate_res_ln_scale(x, sa_gate, r_attn, ff_scale)
                f2 = nt.reshape(f_in, (B * gh * gw, cfg.d_model))
                f_out = swiglu(f2, blk.ffn_w1, blk.ffn_w3, blk.ffn_w2)
                x = fused_gated_residual(h, ff_gate, nt.reshape(f_out, x.shape))
            else:
                h = fused_gated_residual(x, sa_gate, r_attn)
                scale = 1.0 / math.sqrt(blk.layer + 1)
                x_norm = nt.mul(nt.rmsnorm(h), scale)
                x_mod = nt.mul(x_norm, nt.add(nt.reshape(ff_scale, (B, 1, -1)), 1.0))
                cf = capacity_schedule(blk.layer, stage, n_layers=cfg.n_layers)
                moe_out, decisions, routing = moe_forward(
                    x_norm, x_mod, t_vec, cf, blk.bank, blk.router_gate)
                aux["router_logits"].append(routing["logits"])
                aux["decisions"].append((blk.layer, decisions))
                x = fused_gated_residual(h, ff_gate, moe_out)

        fmod = nt.add(nt.matmul(t_vec, self.final_mod_w), self.final_mod_b)
        f_shift, f_scale = _chunks(fmod, 2)
        y = nt.add(fused_ln_scale(x, f_scale), nt.reshape(f_shift, (B, 1, -1)))
        out = nt.add(nt.matmul(y, self.final_proj_w), self.final_proj_b)
        vel = self.unpatchify(out, (gh, gw), z_t.shape)
        return vel, aux

    def _attention(self, blk: Block, a_in: Tensor, ctx: TextContext,
                   rope: tuple[np.ndarray, np.ndarray]) -> Tensor:
        cfg = self.cfg
        B, S, _ = a_in.shape
        q = nt.reshape(nt.matmul(a_in, blk.wq), (B, S, cfg.n_q_heads, cfg.head_dim))
        k = nt.reshape(nt.matmul(a_in, blk.wk), (B, S, cfg.n_kv_heads, cfg.head_dim))
        v = nt.reshape(nt.matmul(a_in, blk.wv), (B, S, cfg.n_kv_heads, cfg.head_dim))
        q = qk_norm_rope(q, *rope)
        k = qk_norm_rope(k, *rope)
        attn = joint_attention(q, k, v, ctx.k_txt[blk.layer],
                               ctx.v_txt[blk.layer], ctx.mask)
        return nt.matmul(attn, blk.wo)
