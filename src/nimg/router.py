"""Expert-choice routing on decoupled inputs.

The router scores the unmodulated token state plus a per-sample timestep
term, x_norm W_x + t_emb W_t; each expert then claims its top-capacity
tokens, which makes per-expert load exactly uniform by construction. Gates
are the raw per-token softmax scores renormalized over the experts that
claimed the token.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .tensor import ShapeError, Tensor


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


def route_full(x_norm: Tensor, t_emb: Tensor, w_r: Tensor, capacity_factor: float):
    """Routing pass keeping gates and logits on the tape.

    x_norm: (B, S, d) unmodulated token state; t_emb: (B, d) timestep
    embedding; w_r: (2d, E) router weight, whose column count is the number
    of experts; its token half W_x and timestep half W_t give the logits
    x_norm W_x + t_emb W_t. Returns (decisions, routing) where
    decisions is one RouterDecision per sample and routing carries the
    tape-connected gates plus the flat row index token_flat into (B*S, d),
    expert-major (e, b, slot); reshaped to (E, B*cap), row e is expert e's
    block of distinct tokens. A token's gate total is a sum over its dense
    row of E scores: gates = kept / (sum_E kept + GATE_EPS) with kept =
    scores * claimed, the constant 0/1 mask of the cells the experts
    selected. routing["gates"] is one block gather of the claimed cells,
    shaped (E, B*cap, 1) like the expert outputs it scales.
    """
    if x_norm.ndim != 3:
        raise ShapeError(f"router state has shape {x_norm.shape}; expected (B, S, d)")
    B, S, d = x_norm.shape
    if w_r.ndim != 2 or w_r.shape[0] != 2 * d or w_r.shape[1] < 1:
        raise ConfigError(f"router weight shape {w_r.shape}, expected ({2 * d}, E >= 1)")
    E = w_r.shape[1]
    capacity = capacity_for(S, E, capacity_factor)

    w_x, w_t = nt.split(w_r, 2, axis=0)                       # (d, E) each
    t_term = nt.reshape(nt.matmul(t_emb, w_t), (B, 1, E))     # once per sample
    logits = nt.add(nt.matmul(x_norm, w_x), t_term)           # (B, S, E)
    scores = nt.softmax(logits, axis=-1)

    # Selection is index arithmetic off-tape; gate values flow on-tape.
    affinity_np = scores.data.transpose(0, 2, 1)                     # (B, E, S)
    top = _topk_rows(affinity_np, capacity)                           # (B, E, cap)

    # Flat dispatch order is expert-major (e, b, slot) so expert segments
    # are contiguous and scatter-add accumulation order is fixed.
    top_eb = top.transpose(1, 0, 2)                                   # (E, B, cap)
    batch_off = (np.arange(B, dtype=np.int64) * S)[None, :, None]
    token_flat = (top_eb + batch_off).reshape(-1)                     # (E*B*cap,)
    expert_ids = np.repeat(np.arange(E, dtype=np.int64), B * capacity)
    cell_flat = token_flat * E + expert_ids
    claimed = np.bincount(cell_flat, minlength=B * S * E).reshape(B, S, E)  # 0/1
    kept = nt.mul(scores, Tensor(claimed))
    dense_gates = nt.div(kept, nt.add(nt.sum(kept, axis=-1, keepdims=True), GATE_EPS))
    gates = nt.gather_rows(nt.reshape(dense_gates, (B * S * E, 1)),
                           cell_flat.reshape(E, B * capacity))         # (E, B*cap, 1)

    gates_np = gates.data.reshape(E, B, capacity)
    aff_sel = np.take_along_axis(affinity_np, top, axis=-1)
    decisions = [RouterDecision(top_indices=top[b].copy(),
                                affinity=aff_sel[b].copy(),
                                gates=gates_np[:, b, :].copy(),
                                logits=logits.data[b].copy(),
                                capacity=capacity)
                 for b in range(B)]

    routing = {
        "gates": gates,                 # tape tensor (E, B*cap, 1)
        "logits": logits,               # tape tensor (B, S, E)
        "token_flat": token_flat,       # flat row index into (B*S, d)
        "capacity": capacity,
        "shape": (B, S, E),
    }
    return decisions, routing
