"""Tape-free numpy reference of MoEDiT.forward, written from the block equations.

Every block is an adaLN-zero DiT block (Peebles & Xie 2022): the timestep
embedding t gives per-block modulation (sa_shift, sa_scale, sa_gate,
ff_scale, ff_gate) = t W_mod + b_mod, and with LN a LayerNorm and RMS an
RMSNorm over the last axis, both without affine parameters,

    a   = LN(x) (1 + sa_scale) + sa_shift
    h   = x + tanh(sa_gate) Attn(a)
    x'  = h + tanh(ff_gate) FFN(LN(h) (1 + ff_scale))          dense layers
    x'  = h + tanh(ff_gate) MoE(n, n (1 + ff_scale), t),        MoE layers,
          with n = RMS(h) / sqrt(layer + 1)

Attn is grouped-query attention of the image tokens over image then text
keys, with RMS-normed, 2-axis rotary queries and keys (height angles on the
first half of each head's dim pairs, width on the second). MoE routes on
[n, t] by expert choice and runs the experts on the modulated state.

Nothing here uses the tape or nimg's ops: loops run per token, per head and
per expert, and weights are read by name from model.named_parameters(). The
hash text embedder (encode_prompt) and the capacity schedule are inputs, not
wiring, and are taken from the package.
"""

from __future__ import annotations

import math

import numpy as np

from nimg.backbone import encode_prompt
from nimg.router import DENSE, GATE_EPS, capacity_schedule

EPS = 1e-6


def layer_norm(x):
    mu = x.mean()
    return (x - mu) / math.sqrt(((x - mu) ** 2).mean() + EPS)


def rms_norm(x):
    return x / math.sqrt((x * x).mean() + EPS)


def silu(x):
    return x / (1.0 + np.exp(-x))


def swiglu(x, w1, w3, w2):
    """One token through (SiLU(x W1^T) * (x W3^T)) W2^T."""
    return (silu(w1 @ x) * (w3 @ x)) @ w2.T


def rope_loop(x, pos_h, pos_w):
    """Rotate each adjacent dim pair of (B, S, H, d_h) heads by its angle:
    pair i < d_h/4 by pos_h * base^(-i/quarter), the rest by pos_w."""
    d_h = x.shape[-1]
    quarter = d_h // 4
    out = np.empty_like(x)
    for s in range(x.shape[1]):
        for i in range(d_h // 2):  # pair i is dims (2i, 2i + 1)
            pos = pos_h[s] if i < quarter else pos_w[s]
            theta = pos * 10000.0 ** (-(i % quarter) / quarter)
            c, sn = math.cos(theta), math.sin(theta)
            x0, x1 = x[:, s, :, 2 * i], x[:, s, :, 2 * i + 1]
            out[:, s, :, 2 * i] = c * x0 - sn * x1
            out[:, s, :, 2 * i + 1] = sn * x0 + c * x1
    return out


def attention_loop(q, k_img, v_img, k_txt, v_txt, mask):
    """Per (sample, query head) masked softmax attention over image then
    text keys; head h reads kv head h // n_rep."""
    B, S_i, H_q, d_h = q.shape
    n_rep = H_q // k_img.shape[2]
    k = np.concatenate([k_img, k_txt], axis=1)
    v = np.concatenate([v_img, v_txt], axis=1)
    valid = np.concatenate([np.ones((B, S_i), bool), mask], axis=1)
    out = np.zeros((B, S_i, H_q, d_h))
    for b in range(B):
        for h in range(H_q):
            j = h // n_rep
            s = q[b, :, h] @ k[b, :, j].T / math.sqrt(d_h)
            s = np.where(valid[b], s, -np.inf)
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            out[b, :, h] = (p / p.sum(axis=-1, keepdims=True)) @ v[b, :, j]
    return out.reshape(B, S_i, H_q * d_h)


def timestep_embedding(t, P, d):
    """Sine then cosine of t at log-spaced frequencies, through a SiLU MLP."""
    freqs = np.exp(np.linspace(0.0, math.log(10000.0), d // 2))
    feats = np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])
    h = silu(feats @ P["time_embed.fc1.weight"] + P["time_embed.fc1.bias"])
    return h @ P["time_embed.fc2.weight"] + P["time_embed.fc2.bias"]


def heads(x, W, n_heads, d_h):
    """Per token: x W split into (n_heads, d_h); x is (B, S, d)."""
    B, S, _ = x.shape
    out = np.empty((B, S, n_heads, d_h))
    for b in range(B):
        for s in range(S):
            out[b, s] = (x[b, s] @ W).reshape(n_heads, d_h)
    return out


def normed_heads(x, W, n_heads, d_h, pos_h, pos_w):
    out = heads(x, W, n_heads, d_h)
    for b in range(out.shape[0]):
        for s in range(out.shape[1]):
            for j in range(n_heads):
                out[b, s, j] = rms_norm(out[b, s, j])
    return rope_loop(out, pos_h, pos_w)


def text_kv(P, i, cfg, prompts):
    """Layer i's text K (RMS-normed, rotated at height 0 and width = token
    index) and V, zero-padded to the longest prompt, with its validity mask."""
    enc = [encode_prompt(p, cfg.d_model) for p in prompts]
    S_t = max((e.shape[0] for e in enc), default=0)
    c = np.zeros((len(prompts), S_t, cfg.d_model))
    mask = np.zeros((len(prompts), S_t), bool)
    for b, e in enumerate(enc):
        c[b, :len(e)], mask[b, :len(e)] = e, True
    dh, Hkv = cfg.head_dim, cfg.n_kv_heads
    k = normed_heads(c, P[f"blocks.{i}.attn.wk_txt"], Hkv, dh,
                     np.zeros(S_t), np.arange(S_t))
    v = heads(c, P[f"blocks.{i}.attn.wv_txt"], Hkv, dh)
    return k, v, mask


def moe(P, i, n, m, t_emb, capacity_factor):
    """Expert-choice MoE of one sample: n routes (with t_emb), m is computed on."""
    S = n.shape[0]
    w_r = P[f"blocks.{i}.router.gate"]
    E = w_r.shape[1]
    scores = np.empty((S, E))
    for s in range(S):
        logits = np.concatenate([n[s], t_emb]) @ w_r
        e = np.exp(logits - logits.max())
        scores[s] = e / e.sum()
    cap = min(math.ceil(capacity_factor * S / E), S)
    claimed = np.zeros((S, E), bool)
    for e in range(E):  # each expert takes its cap best tokens, ties to lower index
        claimed[np.argsort(-scores[:, e], kind="stable")[:cap], e] = True
    out = np.empty_like(m)
    for s in range(S):
        acc = swiglu(m[s], P[f"blocks.{i}.moe.shared_w1"], P[f"blocks.{i}.moe.shared_w3"],
                     P[f"blocks.{i}.moe.shared_w2"])
        total = scores[s][claimed[s]].sum() + GATE_EPS
        for e in np.flatnonzero(claimed[s]):
            y = swiglu(m[s], P[f"blocks.{i}.moe.w1"][e], P[f"blocks.{i}.moe.w3"][e],
                       P[f"blocks.{i}.moe.w2"][e])
            acc = acc + (scores[s, e] / total) * y
        out[s] = acc
    return out


def reference_forward(model, z, t, prompts, stage):
    """The velocity MoEDiT.forward should give for latent z (B, C, H, W),
    timesteps t (scalar or (B,)) and one prompt per sample."""
    cfg = model.cfg
    P = {name: p.data for name, p in model.named_parameters().items()}
    B, C, H, W = z.shape
    p, d, dh = cfg.patch, cfg.d_model, cfg.head_dim
    gh, gw = H // p, W // p
    S = gh * gw
    pos_h = np.array([s // gw for s in range(S)])
    pos_w = np.array([s % gw for s in range(S)])

    x = np.empty((B, S, d))
    for b in range(B):
        for s in range(S):
            patch = z[b, :, pos_h[s] * p:(pos_h[s] + 1) * p, pos_w[s] * p:(pos_w[s] + 1) * p]
            x[b, s] = patch.reshape(-1) @ P["patch_embed.weight"] + P["patch_embed.bias"]
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (B,))
    temb = [timestep_embedding(t[b], P, d) for b in range(B)]

    for i in range(cfg.n_layers):
        mods = [(temb[b] @ P[f"blocks.{i}.img_mod.weight"]
                 + P[f"blocks.{i}.img_mod.bias"]).reshape(5, d) for b in range(B)]
        a = np.empty_like(x)
        for b in range(B):
            sa_shift, sa_scale = mods[b][0], mods[b][1]
            for s in range(S):
                a[b, s] = layer_norm(x[b, s]) * (1.0 + sa_scale) + sa_shift
        q = normed_heads(a, P[f"blocks.{i}.attn.wq"], cfg.n_q_heads, dh, pos_h, pos_w)
        k = normed_heads(a, P[f"blocks.{i}.attn.wk"], cfg.n_kv_heads, dh, pos_h, pos_w)
        v = heads(a, P[f"blocks.{i}.attn.wv"], cfg.n_kv_heads, dh)
        attn = attention_loop(q, k, v, *text_kv(P, i, cfg, prompts))

        cf = capacity_schedule(i, stage, n_layers=cfg.n_layers)
        for b in range(B):
            _, _, sa_gate, ff_scale, ff_gate = mods[b]
            h = np.array([x[b, s] + np.tanh(sa_gate) * (attn[b, s] @ P[f"blocks.{i}.attn.wo"])
                          for s in range(S)])
            if cf == DENSE:
                f = [swiglu(layer_norm(h[s]) * (1.0 + ff_scale), P[f"blocks.{i}.ffn.w1"],
                            P[f"blocks.{i}.ffn.w3"], P[f"blocks.{i}.ffn.w2"])
                     for s in range(S)]
            else:
                n = np.array([rms_norm(h[s]) / math.sqrt(i + 1) for s in range(S)])
                f = moe(P, i, n, n * (1.0 + ff_scale), temb[b], cf)
            for s in range(S):
                x[b, s] = h[s] + np.tanh(ff_gate) * f[s]

    vel = np.empty_like(z, dtype=np.float64)
    for b in range(B):
        f_shift, f_scale = (temb[b] @ P["final_mod.weight"] + P["final_mod.bias"]).reshape(2, d)
        for s in range(S):
            y = layer_norm(x[b, s]) * (1.0 + f_scale) + f_shift
            out = y @ P["final_proj.weight"] + P["final_proj.bias"]
            vel[b, :, pos_h[s] * p:(pos_h[s] + 1) * p,
                pos_w[s] * p:(pos_w[s] + 1) * p] = out.reshape(C, p, p)
    return vel
