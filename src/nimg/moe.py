"""Sparse expert computation: routed SwiGLU experts run as one batched op.

Experts run on the modulated token state while routing decisions come from
the unmodulated state (see router). Expert-choice routing gives every expert
exactly B * capacity distinct tokens, so the routed rows form one (E, B*cap)
block index: one gather feeds a single stacked SwiGLU with (E, h, d) weights,
the (E, B*cap, 1) gates scale its output, and one scatter_add_rows adds it
back in expert order. A shared expert covers every token so none is left
without expert output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .router import route_full
from .tensor import ShapeError, Tensor


def _sigmoid(h: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-h)) in one new buffer."""
    s = np.negative(h)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def swiglu(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Single-pass SwiGLU: (SiLU(x W1^T) * (x W3^T)) W2^T.

    x is (..., n, d) and the weights are (..., h, d), (..., h, d) and
    (..., d, h) with the same leading axes, so one call covers a dense FFN
    (no leading axes) and a stack of experts (one leading axis). One tape
    node with a hand-derived pullback; value-identical to the three-step
    composition within float rounding.

    The node keeps only the two up-projections h1 = x W1^T and h3 = x W3^T.
    The forward forms sigmoid(h1), then SiLU(h1), then SiLU(h1) * h3 in one
    buffer that is dropped after the down-projection; the pullback
    recomputes them from h1 and h3 with the same in-place sequence, so they
    are bitwise the forward's values.
    """
    lead, d = x.shape[:-2], (x.shape[-1] if x.ndim else -1)
    h = w1.shape[-2] if w1.ndim >= 2 else -1
    if (x.ndim < 2 or w1.shape != lead + (h, d) or w3.shape != lead + (h, d)
            or w2.shape != lead + (d, h)):
        raise ShapeError(f"swiglu weight shapes w1={w1.shape} w3={w3.shape} "
                         f"w2={w2.shape} inconsistent with x={x.shape}")
    T = lambda a: np.swapaxes(a, -1, -2)
    xd, w1d, w3d, w2d = x.data, w1.data, w3.data, w2.data
    h1 = xd @ T(w1d)
    h3 = xd @ T(w3d)
    gated = _sigmoid(h1)        # sigmoid(h1), then SiLU(h1), then SiLU(h1) * h3
    gated *= h1
    gated *= h3
    out = gated @ T(w2d)

    def bwd(g):
        gpre = g @ w2d
        buf = _sigmoid(h1)
        gh1 = gpre * h3
        gh1 *= buf
        dsilu = np.subtract(1.0, buf)
        dsilu *= h1
        dsilu += 1.0
        gh1 *= dsilu              # gpre * h3 * sig * (1 + h1 * (1 - sig))
        del dsilu
        buf *= h1                 # SiLU(h1)
        gh3 = gpre * buf
        buf *= h3                 # SiLU(h1) * h3
        gw2 = T(g) @ buf
        del buf
        gx = gh1 @ w1d + gh3 @ w3d
        gw1 = T(gh1) @ xd
        gw3 = T(gh3) @ xd
        return gx, gw1, gw3, gw2

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


def grouped_forward(tokens: Tensor, bank: ExpertBank) -> Tensor:
    """Run row block e of (E, n, d) tokens through expert e; returns (E, n, d)."""
    return swiglu(tokens, bank.w1, bank.w3, bank.w2)


def moe_forward(x_norm: Tensor, x_mod: Tensor, t_emb: Tensor,
                capacity_factor: float, bank: ExpertBank, w_r: Tensor,
                return_routing: bool = False):
    """Full sparse layer: route on x_norm + t_emb, compute experts on x_mod.

    Returns (B, S, d); tokens selected by zero experts receive only the
    shared-expert output.
    """
    if x_mod.ndim != 3:
        raise ShapeError(f"expert state has shape {x_mod.shape}; expected (B, S, d)")
    B, S, d = x_mod.shape
    decisions, routing = route_full(x_norm, t_emb, w_r, capacity_factor)
    cap = routing["capacity"]
    blocks = routing["token_flat"].reshape(w_r.shape[1], B * cap)   # (E, B*cap)

    x_mod_flat = nt.reshape(x_mod, (B * S, d))
    expert_out = grouped_forward(nt.gather_rows(x_mod_flat, blocks), bank)
    gated = nt.mul(expert_out, routing["gates"])                 # (E, B*cap, d)
    combined = nt.scatter_add_rows(gated, blocks, B * S)         # (B*S, d)
    shared = swiglu(x_mod_flat, bank.shared_w1, bank.shared_w3, bank.shared_w2)
    out = nt.reshape(nt.add(combined, shared), (B, S, d))
    if return_routing:
        return out, decisions, routing
    return out
