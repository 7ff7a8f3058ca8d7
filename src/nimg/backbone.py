"""Toy diffusion-transformer backbone.

Blocks pair grouped-query joint attention (image queries over concatenated
image and text KV) with either a dense SwiGLU FFN or a sparse MoE layer.
Timestep conditioning enters through zero-initialized modulation, so every
block is an exact identity at initialization. The fused residual /
normalization ops are single tape nodes with hand-derived pullbacks and are
contractually equivalent to their multi-op compositions. Joint attention is
one such node too: scores, mask and softmax share one buffer, and the node
keeps only each score row's max and sum; its pullback recomputes the
probabilities from the inputs and those two statistics.

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
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .moe import ExpertBank, moe_forward, swiglu
from .router import DENSE_LAYERS, ConfigError, StageId, capacity_schedule
from .tensor import DomainError, ShapeError, Tensor


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
# rotary positions (two spatial axes)


#: Base of the rotary frequencies base ** (-i / quarter) on each axis.
ROPE_BASE = 10000.0


def _rope_tables(pos_h, pos_w, d_h: int):
    if d_h % 4 != 0:
        raise ConfigError(f"head dim {d_h} not divisible by 4")
    quarter = d_h // 4
    freqs = ROPE_BASE ** (-np.arange(quarter, dtype=np.float64) / quarter)
    ang_h = np.multiply.outer(np.asarray(pos_h, dtype=np.float64), freqs)
    ang_w = np.multiply.outer(np.asarray(pos_w, dtype=np.float64), freqs)
    ang = np.concatenate([ang_h, ang_w], axis=-1)       # (..., d_h/2)
    ang = np.repeat(ang, 2, axis=-1)                    # pairs share an angle
    return np.cos(ang), np.sin(ang)


def rotate_pairs(t: Tensor) -> Tensor:
    """(x0, x1) -> (-x1, x0) within each adjacent dim pair."""
    x = t.data
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]

    def bwd(g):
        gi = np.empty_like(g)
        gi[..., 1::2] = -g[..., 0::2]
        gi[..., 0::2] = g[..., 1::2]
        return (gi,)

    return nt.record("rotate_pairs", (t,), (out,), bwd)[0]


def rope_apply_grid(x: Tensor, pos_h: np.ndarray, pos_w: np.ndarray) -> Tensor:
    """Apply per-token rotary angles to (B, S, H, d_h) head vectors."""
    if x.ndim != 4:
        raise ShapeError(f"rope_apply_grid expects (B, S, H, d_h) heads, got {x.shape}")
    cos, sin = _rope_tables(pos_h, pos_w, x.shape[3])   # (S, d_h)
    # (S, 1, d_h): one table for every sample and head
    c, s = Tensor(cos[:, None, :]), Tensor(sin[:, None, :])
    return nt.add(nt.mul(x, c), nt.mul(rotate_pairs(x), s))


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

    Grouped-query attention is a batch broadcast: queries are split into
    (H_kv, n_rep) head groups and K/V carry a unit group axis, so query head
    j * n_rep + r reads kv head j without K/V being repeated.

    The scores S = Q Kᵀ are scaled, masked and softmaxed in place in one
    buffer. The node keeps only each row's max and sum (two (..., S_i, 1)
    arrays, as in FlashAttention): the pullback rebuilds the head-split Q,
    K, V from its inputs and recomputes P with the forward's exact sequence,
    so the recomputed P is bitwise the forward's. With scale = 1/sqrt(d_h)
    and dO the output gradient, the pullback is

        dP = dO Vᵀ,   dS = P * (dP - rowsum(dP * P)) * scale,
        dQ = dS K,    dK = dSᵀ Q,   dV = Pᵀ dO,

    with dK and dV summed over the n_rep query heads that share a kv head.
    """
    _check_attention_shapes(q, k_img, v_img, k_txt, v_txt, text_mask)
    B, S_i, H_q, d_h = q.shape
    H_kv = k_img.shape[2]
    n_rep = H_q // H_kv
    scale = 1.0 / math.sqrt(d_h)

    inputs = (q, k_img, v_img, k_txt, v_txt)
    S_t = k_txt.shape[1]
    S_kv = S_i + S_t
    if S_kv == 0:
        raise ShapeError("attention over no keys: no image or text tokens")
    bias = np.where(np.asarray(text_mask, bool), 0.0, -1e30)[:, None, None, None, :]

    def split_heads():
        """Q as (B, H_kv, n_rep, S_i, d_h), Kᵀ and V over image then text keys."""
        qh = np.ascontiguousarray(q.data.reshape(B, S_i, H_kv, n_rep, d_h)
                                  .transpose(0, 2, 3, 1, 4))
        kh = np.empty((B, H_kv, 1, d_h, S_kv))
        vh = np.empty((B, H_kv, 1, S_kv, d_h))
        for k, v, keys in zip(inputs[1::2], inputs[2::2], (slice(0, S_i), slice(S_i, S_kv))):
            kh[:, :, 0, :, keys] = k.data.transpose(0, 2, 3, 1)
            vh[:, :, 0, keys] = v.data.transpose(0, 2, 1, 3)
        return qh, kh, vh

    def probs(qh, kh, stats=None):
        """P in the scores' buffer; stats = (row max, row sum), computed if None."""
        p = np.matmul(qh, kh)
        p *= scale
        p[..., S_i:] += bias
        row_max = p.max(axis=-1, keepdims=True) if stats is None else stats[0]
        p -= row_max
        np.exp(p, out=p)
        row_sum = p.sum(axis=-1, keepdims=True) if stats is None else stats[1]
        p /= row_sum
        return p, (row_max, row_sum)

    qh, kh, vh = split_heads()
    p, stats = probs(qh, kh)
    out = np.matmul(p, vh).transpose(0, 3, 1, 2, 4)             # (B, S_i, H_kv, n_rep, d_h)
    out = np.ascontiguousarray(out).reshape(B, S_i, H_q * d_h)

    def bwd(g):
        qh, kh, vh = split_heads()
        p = probs(qh, kh, stats)[0]
        go = np.ascontiguousarray(g.reshape(B, S_i, H_kv, n_rep, d_h)
                                  .transpose(0, 2, 3, 1, 4))
        gs = np.matmul(go, np.swapaxes(vh, -1, -2))             # dP, then dS in place
        gv = np.matmul(np.swapaxes(p, -1, -2), go).sum(axis=2)  # (B, H_kv, S_kv, d_h)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = np.matmul(gs, np.swapaxes(kh, -1, -2))
        gk = np.matmul(np.swapaxes(qh, -1, -2), gs).sum(axis=2)  # (B, H_kv, d_h, S_kv)
        gq = np.ascontiguousarray(gq.transpose(0, 3, 1, 2, 4)).reshape(q.shape)
        gk = np.ascontiguousarray(gk.transpose(0, 3, 1, 2))     # (B, S_kv, H_kv, d_h)
        gv = np.ascontiguousarray(gv.transpose(0, 2, 1, 3))
        return (gq, np.ascontiguousarray(gk[:, :S_i]), np.ascontiguousarray(gv[:, :S_i]),
                np.ascontiguousarray(gk[:, S_i:]), np.ascontiguousarray(gv[:, S_i:]))

    return nt.record("joint_attention", inputs, (out,), bwd)[0]


# ---------------------------------------------------------------------------
# timestep embedding


def sinusoidal_features(t: Tensor, dim: int) -> Tensor:
    """Half sine / half cosine features over log-spaced frequencies.

    t: scalar or (B,) tensor of values in [0, 1]; at t = 0 the sine half is
    exactly 0 and the cosine half exactly 1. NaN is outside the domain.
    """
    if dim % 2 != 0:
        raise ConfigError(f"feature dim {dim} must be even")
    vals = t.data if isinstance(t, Tensor) else np.asarray(t)
    if vals.ndim > 1:
        raise ShapeError(f"timestep t has shape {vals.shape}; expected () or (B,)")
    if not np.all((vals >= 0.0) & (vals <= 1.0)):
        raise DomainError(f"timestep outside [0, 1]: {vals}")
    t = nt.as_tensor(t)
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, math.log(10000.0), half))
    args = nt.mul(nt.reshape(t, (t.size, 1)), Tensor(freqs))   # (B, half)
    return nt.concat([nt.sin(args), nt.cos(args)], axis=-1)


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
        pos_w = np.arange(s_t)
        pos_h = np.zeros(s_t)
        for blk in self.blocks:
            k = nt.reshape(nt.matmul(c, blk.wk_txt),
                           (B, s_t, cfg.n_kv_heads, cfg.head_dim))
            k = rope_apply_grid(nt.rmsnorm(k), pos_h, pos_w)
            v = nt.reshape(nt.matmul(c, blk.wv_txt),
                           (B, s_t, cfg.n_kv_heads, cfg.head_dim))
            ks.append(k)
            vs.append(v)
        return TextContext(k_txt=ks, v_txt=vs, mask=mask)

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

        ctx is required and holds one prompt per sample and K/V for each of
        this model's layers (ShapeError otherwise); to run without
        text, pass the zero-length context of all-empty prompts. Returns
        (velocity, aux) where aux carries the tape-connected router logits
        and the routing decisions of every MoE layer.
        """
        cfg = self.cfg
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
        tokens, (gh, gw) = self.patchify(z_t)
        x = nt.add(nt.matmul(tokens, self.patch_w), self.patch_b)
        t_arr = np.asarray(t)
        if t_arr.shape not in ((), (B,)):
            raise ShapeError(f"timestep t has shape {t_arr.shape}; expected () "
                             f"or ({B},) for a batch of {B}")
        t_vec = self.time_embed(Tensor(np.broadcast_to(t_arr, (B,))))
        pos_h = np.repeat(np.arange(gh), gw)
        pos_w = np.tile(np.arange(gw), gh)

        aux = {"router_logits": [], "decisions": []}
        for blk in self.blocks:
            mod = nt.add(nt.matmul(t_vec, blk.mod_w), blk.mod_b)
            sa_shift, sa_scale, sa_gate, ff_scale, ff_gate = _chunks(mod, 5)

            a_in = nt.add(fused_ln_scale(x, sa_scale), nt.reshape(sa_shift, (B, 1, -1)))
            r_attn = self._attention(blk, a_in, ctx, pos_h, pos_w)

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
                   pos_h: np.ndarray, pos_w: np.ndarray) -> Tensor:
        cfg = self.cfg
        B, S, _ = a_in.shape
        q = nt.reshape(nt.matmul(a_in, blk.wq), (B, S, cfg.n_q_heads, cfg.head_dim))
        k = nt.reshape(nt.matmul(a_in, blk.wk), (B, S, cfg.n_kv_heads, cfg.head_dim))
        v = nt.reshape(nt.matmul(a_in, blk.wv), (B, S, cfg.n_kv_heads, cfg.head_dim))
        q = rope_apply_grid(nt.rmsnorm(q), pos_h, pos_w)
        k = rope_apply_grid(nt.rmsnorm(k), pos_h, pos_w)
        attn = joint_attention(q, k, v, ctx.k_txt[blk.layer],
                               ctx.v_txt[blk.layer], ctx.mask)
        return nt.matmul(attn, blk.wo)
