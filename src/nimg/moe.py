"""Sparse expert computation: the routed experts run as one tape node.

Experts run on the modulated token state while routing decisions come from
the unmodulated state (see router). Expert-choice routing gives every expert
exactly B * capacity distinct tokens, so the routed rows form one (E, n)
block index, n = B * capacity, and grouped_forward runs the whole routed
FFN as one node: it gathers each expert's rows, runs a stacked SwiGLU with
(E, h, d) weights, scales each output row by its (E, n, 1) gate and adds the
rows back in expert order. A shared expert, a plain swiglu, covers every
token so none is left without expert output.

With x the (N, d) token rows, X = x[blocks], h1 = X W1^T, h3 = X W3^T,
a = SiLU(h1) * h3 and y = gates * (a W2^T) added into zero rows by block,
the pullback of the upstream gradient G is, with Gr = G[blocks]:

    u = Gr W2             dgates = sum_h u * a      gpre = gates * u
    dh1 = gpre * h3 * SiLU'(h1)                     dh3 = gpre * SiLU(h1)
    dW2 = (gates * Gr)^T a    dW1 = dh1^T X    dW3 = dh3^T X
    dx  = dh1 W1 + dh3 W3, scatter-added into zero rows by block.

The node keeps only h1, h3 and the block index. The pullback re-gathers X
from the input and recomputes SiLU(h1) and a from h1 and h3, so no
(E, n, d) array (gathered rows, expert outputs, gated outputs) outlives the
forward.
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


def _swiglu_act(h1: np.ndarray, h3: np.ndarray) -> np.ndarray:
    """SiLU(h1) * h3 in one new buffer: sigmoid(h1), then SiLU(h1), then
    the product, always in this order so a recomputation is bitwise."""
    a = _sigmoid(h1)
    a *= h1
    a *= h3
    return a


def _swiglu_pullback(gpre: np.ndarray, h1: np.ndarray, h3: np.ndarray):
    """Gradients at h1 and h3 from gpre, the gradient at SiLU(h1) * h3, and
    the recomputed SiLU(h1) * h3 itself: (gh1, gh3, act)."""
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
    return gh1, gh3, buf


def _check_weights(x_shape: tuple[int, ...], w1: Tensor, w3: Tensor, w2: Tensor,
                   op: str) -> None:
    """ShapeError unless the weights are (..., h, d), (..., h, d), (..., d, h)
    with the leading axes of rows shaped x_shape = (..., n, d)."""
    lead, d = x_shape[:-2], (x_shape[-1] if x_shape else -1)
    h = w1.shape[-2] if w1.ndim >= 2 else -1
    if (len(x_shape) < 2 or w1.shape != lead + (h, d) or w3.shape != lead + (h, d)
            or w2.shape != lead + (d, h)):
        raise ShapeError(f"{op} weight shapes w1={w1.shape} w3={w3.shape} "
                         f"w2={w2.shape} inconsistent with x={x_shape}")


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def swiglu(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Single-pass SwiGLU: (SiLU(x W1^T) * (x W3^T)) W2^T.

    x is (..., n, d) and the weights are (..., h, d), (..., h, d) and
    (..., d, h) with the same leading axes, so one call covers a dense FFN
    (no leading axes) and a stack of experts (one leading axis). One tape
    node with a hand-derived pullback; value-identical to the three-step
    composition within float rounding.

    The node keeps only the two up-projections h1 = x W1^T and h3 = x W3^T.
    The forward forms SiLU(h1) * h3 in one buffer that is dropped after the
    down-projection; the pullback recomputes it from h1 and h3 with the
    same in-place sequence, so it is bitwise the forward's value.
    """
    _check_weights(x.shape, w1, w3, w2, "swiglu")
    xd, w1d, w3d, w2d = x.data, w1.data, w3.data, w2.data
    h1 = xd @ _T(w1d)
    h3 = xd @ _T(w3d)
    out = _swiglu_act(h1, h3) @ _T(w2d)

    def bwd(g):
        gh1, gh3, act = _swiglu_pullback(g @ w2d, h1, h3)
        gw2 = _T(g) @ act
        del act
        gx = gh1 @ w1d + gh3 @ w3d
        gw1 = _T(gh1) @ xd
        gw3 = _T(gh3) @ xd
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


def grouped_forward(x: Tensor, blocks, gates: Tensor, bank: ExpertBank) -> Tensor:
    """The routed experts as one node: sum over e, k of gates[e, k] times
    expert e on row blocks[e, k] of x, added into that row; returns (N, d).

    x is (N, d) token rows, blocks an (E, n) block index of rows with no row
    twice in one block (ShapeError), and gates (E, n, 1). Rows are added in
    flat block order, bitwise as numpy's add.at over blocks.ravel(). The
    pullback equations are in the module docstring.
    """
    if x.ndim != 2:
        raise ShapeError(f"grouped_forward rows x have shape {x.shape}; expected (N, d)")
    idx = nt._row_index(blocks, x.shape[0], "grouped_forward")
    if gates.shape != idx.shape + (1,):
        raise ShapeError(f"grouped_forward gates have shape {gates.shape}; expected "
                         f"{idx.shape + (1,)} for blocks of shape {idx.shape}")
    _check_weights(idx.shape + x.shape[1:], bank.w1, bank.w3, bank.w2, "grouped_forward")
    xd, gd = x.data, gates.data
    w1d, w3d, w2d = bank.w1.data, bank.w3.data, bank.w2.data
    rows = xd[idx]
    h1 = rows @ _T(w1d)
    h3 = rows @ _T(w3d)
    del rows
    y = _swiglu_act(h1, h3) @ _T(w2d)
    y *= gd
    out = nt._add_blocks(np.zeros(x.shape), idx, y)

    def bwd(g):
        gr = g[idx]
        u = gr @ w2d
        gh1, gh3, act = _swiglu_pullback(u * gd, h1, h3)
        gr *= gd
        gw2 = _T(gr) @ act
        del gr
        u *= act
        del act
        dgates = u.sum(axis=-1, keepdims=True)
        del u
        gx = nt._add_blocks(np.zeros(x.shape), idx, gh1 @ w1d + gh3 @ w3d)
        rows = xd[idx]
        gw1 = _T(gh1) @ rows
        gw3 = _T(gh3) @ rows
        return gx, dgates, gw1, gw3, gw2

    return nt.record("grouped_forward", (x, gates, bank.w1, bank.w3, bank.w2),
                     (out,), bwd)[0]


def moe_forward(x_norm: Tensor, x_mod: Tensor, t_emb: Tensor,
                capacity_factor: float, bank: ExpertBank, w_r: Tensor):
    """Full sparse layer: route on x_norm + t_emb, compute experts on x_mod.

    Three steps: route_full picks each expert's B * capacity tokens and
    their gates; one grouped_forward node runs the routed experts on those
    rows of x_mod and adds their gated outputs back per token; the shared
    swiglu runs on every token and is added. Returns (out, decisions,
    routing): out is (B, S, d), and decisions and routing are route_full's.
    Tokens selected by zero experts receive only the shared-expert output.
    """
    if x_mod.ndim != 3:
        raise ShapeError(f"expert state has shape {x_mod.shape}; expected (B, S, d)")
    B, S, d = x_mod.shape
    decisions, routing = route_full(x_norm, t_emb, w_r, capacity_factor)
    blocks = routing["token_flat"].reshape(w_r.shape[1], B * routing["capacity"])

    x_mod_flat = nt.reshape(x_mod, (B * S, d))
    routed = grouped_forward(x_mod_flat, blocks, routing["gates"], bank)
    shared = swiglu(x_mod_flat, bank.shared_w1, bank.shared_w3, bank.shared_w2)
    out = nt.reshape(nt.add(routed, shared), (B, S, d))
    return out, decisions, routing
