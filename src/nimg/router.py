"""Expert-choice routing on decoupled inputs.

The router scores the unmodulated token state plus a per-sample timestep
term, x_norm W_x + t_emb W_t; each expert then claims its top-capacity
tokens, which makes per-expert load exactly uniform by construction. Gates
are the raw per-token softmax scores renormalized over the experts that
claimed the token.

Routing runs on arrays, off the tape: route_full is the forward and
route_pullback its gradient. The model calls both from inside the MoE
block's one tape node (moe.moe_forward), which keeps route_full's scores,
claim mask, gates and token_flat for the pullback. route_full's numpy calls
are those of the taped split → matmul → reshape → matmul → add → softmax →
mul → sum → add → div → reshape → gather_rows chain it replaces, and
route_pullback sums that chain's pullback terms in the order backward ran
them, so values and gradients are bitwise the chain's (tests/oracles.py
keeps the chain as route_chain).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .tensor import ShapeError


class ConfigError(ValueError):
    """Invalid routing configuration."""


class StageId(enum.Enum):
    S256 = "s256"
    S512 = "s512"
    S1024 = "s1024"


#: Sentinel returned by capacity_schedule for layers that run a dense FFN.
DENSE = "dense"
#: Layers 0 .. DENSE_LAYERS-1 run a dense FFN at every stage.
DENSE_LAYERS = 3
#: Added to each token's gate total before normalizing.
GATE_EPS = 1e-6


@dataclass
class RouterDecision:
    """Detached record of one routing pass over a single sample."""

    top_indices: np.ndarray   # (E, capacity) token positions
    affinity: np.ndarray      # (E, capacity) raw softmax scores
    gates: np.ndarray         # (E, capacity) normalized
    logits: np.ndarray        # (S, E)
    capacity: int


def capacity_for(S: int, E: int, C: float) -> int:
    """Per-expert token budget ceil(C*S/E), clamped to at most S; ConfigError
    unless S and E are integers >= 1 and C a finite real > 0."""
    if (not isinstance(S, numbers.Integral) or not isinstance(E, numbers.Integral)
            or not isinstance(C, numbers.Real) or S < 1 or E < 1 or not 0 < C < math.inf):
        raise ConfigError(f"invalid capacity arguments S={S} E={E} C={C}")
    return min(math.ceil(C * S / E), S)


def capacity_schedule(layer: int, stage: StageId, n_layers: int = 32):
    """Capacity factor for a layer at a training stage; DENSE for layers 0-2.

    The first DENSE_LAYERS layers run dense FFNs at every stage. Later stages
    sparsify: the low-resolution stage keeps 8.0 everywhere, the middle
    stage 4.0, and the high-resolution stage 4.0 for layers 3-4 and 2.0
    beyond. ConfigError unless layer is an integer in [0, n_layers).
    """
    if not isinstance(layer, numbers.Integral) or not 0 <= layer < n_layers:
        raise ConfigError(f"layer {layer!r} is not an integer in [0, {n_layers})")
    if layer < DENSE_LAYERS:
        return DENSE
    if stage == StageId.S256:
        return 8.0
    if stage == StageId.S512:
        return 4.0
    if stage == StageId.S1024:
        return 4.0 if layer <= 4 else 2.0
    raise ConfigError(f"unknown stage {stage!r}")


def _topk_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row: indices of the k largest entries, ties won by lower index."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    return order[..., :k]


def _gate_terms(scores: np.ndarray, claimed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kept = scores * claimed and each token's gate normaliser
    den = sum_E kept + GATE_EPS, (B, S, 1); the dense gates are kept / den."""
    kept = scores * claimed
    den = kept.sum(axis=-1, keepdims=True)
    den += GATE_EPS
    return kept, den


def _cells(token_flat: np.ndarray, E: int) -> np.ndarray:
    """The (E, B*cap) index of each claimed cell in the flat (B*S*E,) scores:
    token * E + expert, expert-major like token_flat."""
    experts = np.repeat(np.arange(E, dtype=np.int64), token_flat.size // E)
    return (token_flat * E + experts).reshape(E, -1)


def route_full(x_norm: np.ndarray, t_emb: np.ndarray, w_r: np.ndarray,
               capacity_factor: float):
    """One routing pass on arrays; nothing is recorded.

    x_norm: (B, S, d) unmodulated token state; t_emb: (B, d) timestep
    embedding; w_r: (2d, E) router weight, whose column count is the number
    of experts; its token half W_x and timestep half W_t give the logits
    x_norm W_x + t_emb W_t. Returns (decisions, routing) where decisions is
    one RouterDecision per sample and routing carries the arrays the MoE
    node needs: the flat row index token_flat into (B*S, d), expert-major
    (e, b, slot), which reshaped to (E, B*cap) gives in row e expert e's
    block of distinct tokens; the softmax scores (B, S, E); the boolean
    claim mask claimed (B, S, E) of the cells the experts selected; and the
    gates, (E, B*cap, 1) like the expert outputs they scale. A token's gate
    total is a sum over its dense row of E scores: gates = kept / (sum_E
    kept + GATE_EPS) with kept = scores * claimed, gathered at the claimed
    cells. A state that is not (B, S, d) raises ShapeError, a weight that is
    not (2d, E >= 1) ConfigError, and a t_emb that is not (B, d) ShapeError.
    """
    if np.ndim(x_norm) != 3:
        raise ShapeError(f"router state has shape {np.shape(x_norm)}; expected (B, S, d)")
    B, S, d = x_norm.shape
    if np.ndim(w_r) != 2 or w_r.shape[0] != 2 * d or w_r.shape[1] < 1:
        raise ConfigError(f"router weight shape {np.shape(w_r)}, expected ({2 * d}, E >= 1)")
    if np.shape(t_emb) != (B, d):
        raise ShapeError(f"router t_emb has shape {np.shape(t_emb)}; expected ({B}, {d})")
    E = w_r.shape[1]
    capacity = capacity_for(S, E, capacity_factor)

    t_term = np.matmul(t_emb, w_r[d:]).reshape(B, 1, E)        # once per sample
    logits = np.matmul(x_norm, w_r[:d]) + t_term                # (B, S, E)
    scores = nt._softmax(logits)

    affinity_np = scores.transpose(0, 2, 1)                           # (B, E, S)
    top = _topk_rows(affinity_np, capacity)                           # (B, E, cap)

    # Flat dispatch order is expert-major (e, b, slot) so expert segments
    # are contiguous and scatter-add accumulation order is fixed.
    top_eb = top.transpose(1, 0, 2)                                   # (E, B, cap)
    batch_off = (np.arange(B, dtype=np.int64) * S)[None, :, None]
    token_flat = (top_eb + batch_off).reshape(-1)                     # (E*B*cap,)
    cells = _cells(token_flat, E)
    claimed = np.zeros(B * S * E, bool)
    claimed[cells.reshape(-1)] = True
    claimed = claimed.reshape(B, S, E)
    kept, den = _gate_terms(scores, claimed)
    gates = (kept / den).reshape(B * S * E, 1)[cells]                 # (E, B*cap, 1)

    gates_np = gates.reshape(E, B, capacity)
    aff_sel = np.take_along_axis(affinity_np, top, axis=-1)
    decisions = [RouterDecision(top_indices=top[b].copy(),
                                affinity=aff_sel[b].copy(),
                                gates=gates_np[:, b, :].copy(),
                                logits=logits[b].copy(),
                                capacity=capacity)
                 for b in range(B)]

    routing = {
        "gates": gates,                 # (E, B*cap, 1)
        "logits": logits,               # (B, S, E)
        "scores": scores,               # (B, S, E)
        "claimed": claimed,             # (B, S, E) bool
        "token_flat": token_flat,       # flat row index into (B*S, d)
        "shape": (B, S, E),
    }
    return decisions, routing


def route_pullback(dgates: np.ndarray, x_norm: np.ndarray, t_emb: np.ndarray,
                   w_r: np.ndarray, scores: np.ndarray, claimed: np.ndarray,
                   token_flat: np.ndarray):
    """The gradients (dx_norm, dt_emb, dw_r) of route_full's gates from
    dgates, their (E, B*cap, 1) gradient, given the pass's inputs and its
    scores, claim mask and token_flat.

    With gd the gradient of the dense gates (dgates added into the claimed
    cells of zeros), kept and den as in route_full and L the logits, it runs
    the chain's pullbacks in the order backward ran them:

        gkept = gd / den + sum_E(-gd kept / den²)      (div, then sum)
        gs = gkept * claimed,   gL = s (gs - sum_E(gs s))   (mul, softmax)
        dx_norm = gL W_xᵀ,   dW_x = sum over samples of x_normᵀ gL,
        gt = sum over tokens of gL,   dt_emb = gt W_tᵀ,   dW_t = t_embᵀ gt,
        dw_r = [dW_x; dW_t],

    where the second term of gkept is the cross-expert normaliser term: a
    token's gate moves with the scores of every expert that claimed it.
    """
    B, S, E = scores.shape
    d = x_norm.shape[-1]
    gd = nt._add_blocks(np.zeros((B * S * E, 1)), _cells(token_flat, E), dgates)
    gd = gd.reshape(B, S, E)
    kept, den = _gate_terms(scores, claimed)
    gkept = gd / den
    gkept += nt._sum_to(-gd * kept / (den * den), den.shape)
    gs = gkept * claimed
    gl = scores * (gs - (gs * scores).sum(axis=-1, keepdims=True))
    w_x, w_t = w_r[:d], w_r[d:]
    gx = np.matmul(gl, w_x.T)
    gw_x = nt._sum_to(np.matmul(np.swapaxes(x_norm, -1, -2), gl), w_x.shape)
    gt = nt._sum_to(gl, (B, 1, E)).reshape(B, E)
    return gx, np.matmul(gt, w_t.T), np.concatenate((gw_x, np.matmul(t_emb.T, gt)), axis=0)
