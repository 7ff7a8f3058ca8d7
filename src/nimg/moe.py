"""Sparse expert computation: the routed and shared experts run as one tape node.

Experts run on the modulated token state while routing decisions come from
the unmodulated state (see router). Expert-choice routing gives every expert
exactly B * capacity distinct tokens, so the routed rows form one (E, n)
block index, n = B * capacity, and grouped_forward runs the whole expert
FFN as one node. It loops over the experts: it gathers expert e's rows,
runs its SwiGLU, scales each output row by its gate and adds the rows back.
Then it runs the shared expert, which covers every token so none is left
without expert output, on all rows and adds it last. Every expert, and the
dense blocks' swiglu node, runs one SwiGLU on (n, d) rows and 2-D weights,
through the helpers _ffn and _ffn_pullback.

For expert e with X = x[blocks[e]], h1 = X W1^T, h3 = X W3^T,
a = SiLU(h1) * h3 and y = gates[e] * (a W2^T) added into rows blocks[e],
the pullback of the upstream gradient G is, with Gr = G[blocks[e]]:

    u = Gr W2             dgates = sum_h u * a      gpre = gates * u
    dh1 = gpre * h3 * SiLU'(h1)                     dh3 = gpre * SiLU(h1)
    dW2 = (gates * Gr)^T a    dW1 = dh1^T X    dW3 = dh3^T X
    dx  = dh1 W1 + dh3 W3, added into rows blocks[e].

The shared expert's is the same with X = x, every row, and no gate.
The node keeps only each expert's h1 and h3, the shared expert's and the
block index. The pullback re-gathers X from the input and recomputes
SiLU(h1) and a from h1 and h3, so no gathered rows or expert outputs
outlive the forward. Without a tape it keeps nothing: each expert's h1 and
h3 are dropped within its own step.
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


def _ffn(x: np.ndarray, w1: np.ndarray, w3: np.ndarray, w2: np.ndarray):
    """SwiGLU of (n, d) rows x: (h1, h3, out) with h1 = x W1^T, h3 = x W3^T
    and out = (SiLU(h1) * h3) W2^T. SiLU(h1) * h3 is formed in one buffer
    that is dropped after the down-projection."""
    h1 = x @ w1.T
    h3 = x @ w3.T
    a = _sigmoid(h1)
    a *= h1
    a *= h3
    return h1, h3, a @ w2.T


def _ffn_pullback(gpre: np.ndarray, x: np.ndarray, h1: np.ndarray, h3: np.ndarray,
                  w1: np.ndarray, w3: np.ndarray):
    """From gpre, the gradient at SiLU(h1) * h3, to (gx, gw1, gw3, act): the
    gradients of _ffn's rows and up-projection weights, and SiLU(h1) * h3
    recomputed in _ffn's order, so bitwise its value, for the caller's gw2."""
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
    return gh1 @ w1 + gh3 @ w3, gh1.T @ x, gh3.T @ x, act


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

    The node keeps only the two up-projections h1 = x W1^T and h3 = x W3^T;
    the pullback recomputes SiLU(h1) * h3 from them, bitwise the forward's
    value.
    """
    _check_shapes(x.shape, w1.shape, w3.shape, w2.shape, "swiglu")
    xd, w1d, w3d, w2d = x.data, w1.data, w3.data, w2.data
    h1, h3, out = _ffn(xd, w1d, w3d, w2d)

    def bwd(g):
        gx, gw1, gw3, act = _ffn_pullback(g @ w2d, xd, h1, h3, w1d, w3d)
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
    and the block index. When no node will be recorded (nt.tracking), each
    expert's h1 and h3 are dropped within its own step, so a no-grad call
    holds at most one expert's at a time.
    """
    if x.ndim != 2:
        raise ShapeError(f"grouped_forward rows x have shape {x.shape}; expected (N, d)")
    idx = nt._row_index(blocks, x.shape[0], "grouped_forward")
    if idx.ndim != 2 or gates.shape != idx.shape + (1,):
        raise ShapeError(f"grouped_forward gates have shape {gates.shape} for blocks of "
                         f"shape {idx.shape}; expected (E, n, 1) for (E, n) blocks")
    routed = (bank.w1, bank.w3, bank.w2)
    shared = (bank.shared_w1, bank.shared_w3, bank.shared_w2)
    if any(w.shape[:1] != idx.shape[:1] for w in routed):
        raise ShapeError(f"grouped_forward expert weights w1={bank.w1.shape} "
                         f"w3={bank.w3.shape} w2={bank.w2.shape}; expected "
                         f"{idx.shape[0]} experts, one per block")
    _check_shapes(x.shape, *(w.shape[1:] for w in routed), "grouped_forward")
    _check_shapes(x.shape, *(w.shape for w in shared), "grouped_forward shared")
    inputs = (x, gates, *routed, *shared)
    keep = nt.tracking(inputs)
    xd, gd = x.data, gates.data
    w1d, w3d, w2d, s1d, s3d, s2d = (w.data for w in routed + shared)
    kept = []   # each routed expert's (h1, h3) in block order, then the shared one's

    def ffn(xr: np.ndarray, w1: np.ndarray, w3: np.ndarray, w2: np.ndarray):
        h1, h3, y = _ffn(xr, w1, w3, w2)
        if keep:
            kept.append((h1, h3))
        return y

    out = np.zeros(x.shape)
    for e, rows in enumerate(idx):
        out[rows] += ffn(xd[rows], w1d[e], w3d[e], w2d[e]) * gd[e]
    out += ffn(xd, s1d, s3d, s2d)

    def bwd(g):
        gx = np.zeros(x.shape)
        dgates = np.empty(gates.shape)
        gw1, gw3, gw2 = np.empty(w1d.shape), np.empty(w3d.shape), np.empty(w2d.shape)
        for e, (rows, (h1, h3)) in enumerate(zip(idx, kept)):
            gr = g[rows]
            u = gr @ w2d[e]
            gxe, gw1[e], gw3[e], act = _ffn_pullback(u * gd[e], xd[rows], h1, h3,
                                                     w1d[e], w3d[e])
            gx[rows] += gxe
            gr *= gd[e]
            gw2[e] = gr.T @ act
            u *= act
            dgates[e] = u.sum(axis=-1, keepdims=True)
        gxs, gs1, gs3, act = _ffn_pullback(g @ s2d, xd, *kept[-1], s1d, s3d)
        gx += gxs
        return gx, dgates, gw1, gw3, gw2, gs1, gs3, g.T @ act

    return nt.record("grouped_forward", inputs, (out,), bwd)[0]


def moe_forward(x_norm: Tensor, x_mod: Tensor, t_emb: Tensor,
                capacity_factor: float, bank: ExpertBank, w_r: Tensor):
    """Full sparse layer: route on x_norm + t_emb, compute experts on x_mod.

    route_full picks each expert's B * capacity tokens and their gates, and
    one grouped_forward node runs the routed experts on those rows of x_mod,
    adds their gated outputs back per token and adds the shared expert on
    every token. Returns (out, decisions, routing): out is (B, S, d), and
    decisions and routing are route_full's. Tokens selected by zero experts
    receive only the shared-expert output.
    """
    if x_mod.ndim != 3:
        raise ShapeError(f"expert state has shape {x_mod.shape}; expected (B, S, d)")
    B, S, d = x_mod.shape
    decisions, routing = route_full(x_norm, t_emb, w_r, capacity_factor)
    blocks = routing["token_flat"].reshape(w_r.shape[1], B * routing["capacity"])
    out = grouped_forward(nt.reshape(x_mod, (B * S, d)), blocks, routing["gates"], bank)
    return nt.reshape(out, (B, S, d)), decisions, routing
