"""Sparse expert computation: routed SwiGLU experts run as one batched op.

Experts run on the modulated token state while routing decisions come from
the unmodulated state (see router). Expert-choice routing gives every expert
exactly B * capacity tokens, so the routed tokens form one (E, B*cap, d)
block that a single stacked SwiGLU maps against (E, h, d) weights. Tokens
claimed by several experts get their gated outputs scatter-added in fixed
expert-major order; a shared expert covers every token so none is left
without expert output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .router import RouterConfig, route_full
from .tensor import ShapeError, Tensor


def swiglu_arrays(x: np.ndarray, w1: np.ndarray, w3: np.ndarray,
                  w2: np.ndarray) -> np.ndarray:
    """Gated-linear forward on raw 2-D arrays; the per-expert reference the
    tests compare the taped op against."""
    h1 = x @ w1.T
    h3 = x @ w3.T
    s = 1.0 / (1.0 + np.exp(-h1))
    return (h1 * s * h3) @ w2.T


def swiglu(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Single-pass SwiGLU: (SiLU(x W1^T) * (x W3^T)) W2^T.

    x is (..., n, d) and the weights are (..., h, d), (..., h, d) and
    (..., d, h) with the same leading axes, so one call covers a dense FFN
    (no leading axes) and a stack of experts (one leading axis). One tape
    node with a hand-derived pullback; value-identical to the three-step
    composition within float rounding.
    """
    lead, d = x.shape[:-2], x.shape[-1]
    h = w1.shape[-2] if w1.ndim >= 2 else -1
    if (x.ndim < 2 or w1.shape != lead + (h, d) or w3.shape != lead + (h, d)
            or w2.shape != lead + (d, h)):
        raise ShapeError(f"swiglu weight shapes w1={w1.shape} w3={w3.shape} "
                         f"w2={w2.shape} inconsistent with x={x.shape}")
    T = lambda a: np.swapaxes(a, -1, -2)
    xd, w1d, w3d, w2d = x.data, w1.data, w3.data, w2.data
    h1 = xd @ T(w1d)
    h3 = xd @ T(w3d)
    sig = 1.0 / (1.0 + np.exp(-h1))
    act = h1 * sig
    pre = act * h3
    out = pre @ T(w2d)

    def bwd(g):
        gpre = g @ w2d
        gw2 = T(g) @ pre
        gact = gpre * h3
        gh3 = gpre * act
        gh1 = gact * sig * (1.0 + h1 * (1.0 - sig))
        gx = gh1 @ w1d + gh3 @ w3d
        gw1 = T(gh1) @ xd
        gw3 = T(gh3) @ xd
        return gx, gw1, gw3, gw2

    return nt.record("swiglu", (x, w1, w3, w2), (out,), bwd)[0]


def swiglu_composed(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Three-step reference: separate matmuls, SiLU, and elementwise product."""
    wt = lambda w: nt.transpose(w, (1, 0))
    return nt.matmul(nt.mul(nt.silu(nt.matmul(x, wt(w1))), nt.matmul(x, wt(w3))), wt(w2))


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


def grouped_forward(tokens: Tensor, bank: ExpertBank) -> Tensor:
    """Run row block e of (E, n, d) tokens through expert e; returns (E, n, d)."""
    return swiglu(tokens, bank.w1, bank.w3, bank.w2)


def moe_forward(x: Tensor, x_norm: Tensor, x_mod: Tensor, t_emb: Tensor,
                cfg: RouterConfig, bank: ExpertBank, w_r: Tensor,
                return_routing: bool = False):
    """Full sparse layer: route on x_norm + t_emb, compute experts on x_mod.

    Returns (B, S, d); tokens selected by zero experts receive only the
    shared-expert output.
    """
    B, S, d = x.shape
    decisions, routing = route_full(x_norm, t_emb, w_r, cfg)
    cap = routing["capacity"]
    token_flat = routing["token_flat"]
    E = cfg.n_experts

    x_mod_flat = nt.reshape(x_mod, (B * S, d))
    gathered = nt.reshape(nt.gather_rows(x_mod_flat, token_flat), (E, B * cap, d))
    expert_out = nt.reshape(grouped_forward(gathered, bank), (E * B * cap, d))
    gated = nt.mul(expert_out,
                   nt.broadcast_to(nt.reshape(routing["gates"], (-1, 1)),
                                   expert_out.shape))
    combined = nt.scatter_add_rows(gated, token_flat, B * S)   # (B*S, d)
    shared = swiglu(x_mod_flat, bank.shared_w1, bank.shared_w3, bank.shared_w2)
    out = nt.reshape(nt.add(combined, shared), (B, S, d))
    if return_routing:
        return out, decisions, routing
    return out
