"""Expert-choice routing on decoupled inputs.

The router scores the unmodulated token state concatenated with the
timestep embedding; each expert then claims its top-capacity tokens, which
makes per-expert load exactly uniform by construction. Gates are the raw
per-token softmax scores renormalized over the experts that claimed the
token.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .tensor import Tensor


class ConfigError(ValueError):
    """Invalid routing configuration."""


class StageId(enum.Enum):
    S256 = "s256"
    S512 = "s512"
    S1024 = "s1024"


#: Sentinel returned by capacity_schedule for layers that run a dense FFN.
DENSE = "dense"


@dataclass
class RouterConfig:
    d_model: int
    n_experts: int
    capacity_factor: float
    gate_scale: float = 1.0
    gate_eps: float = 1e-6

    def __post_init__(self):
        if self.n_experts < 1:
            raise ConfigError("n_experts must be >= 1")
        if self.capacity_factor <= 0:
            raise ConfigError("capacity_factor must be > 0")
        if self.gate_eps <= 0:
            raise ConfigError("gate_eps must be > 0")

    def validate_weight(self, w_r: Tensor) -> None:
        want = (2 * self.d_model, self.n_experts)
        if tuple(w_r.shape) != want:
            raise ConfigError(f"router weight shape {w_r.shape}, expected {want}")


@dataclass
class RouterDecision:
    """Detached record of one routing pass over a single sample."""

    top_indices: np.ndarray   # (E, capacity) token positions
    affinity: np.ndarray      # (E, capacity) raw softmax scores
    gates: np.ndarray         # (E, capacity) normalized * gate_scale
    logits: np.ndarray        # (S, E)
    capacity: int


def capacity_for(S: int, E: int, C: float) -> int:
    """Per-expert token budget ceil(C*S/E), clamped to at most S."""
    if S < 1 or E < 1 or C <= 0:
        raise ConfigError(f"invalid capacity arguments S={S} E={E} C={C}")
    return min(math.ceil(C * S / E), S)


def capacity_schedule(layer: int, stage: StageId, n_layers: int = 32):
    """Capacity factor for a layer at a training stage; DENSE for layers 0-2.

    The first three layers run dense FFNs at every stage. Later stages
    sparsify: the low-resolution stage keeps 8.0 everywhere, the middle
    stage 4.0, and the high-resolution stage 4.0 for layers 3-4 and 2.0
    beyond.
    """
    if not 0 <= layer < n_layers:
        raise IndexError(f"layer {layer} out of range [0, {n_layers})")
    if layer < 3:
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


def route_full(x_norm: Tensor, t_emb: Tensor, w_r: Tensor, cfg: RouterConfig):
    """Routing pass keeping gates and logits on the tape.

    x_norm: (B, S, d) unmodulated token state; t_emb: (B, d) timestep
    embedding broadcast over tokens. Returns (decisions, routing) where
    decisions is one RouterDecision per sample and routing carries the
    tape-connected gate tensor plus flat gather/scatter indices in
    expert-major order.
    """
    cfg.validate_weight(w_r)
    B, S, d = x_norm.shape
    E = cfg.n_experts
    capacity = capacity_for(S, E, cfg.capacity_factor)
    if capacity < 1:
        raise ConfigError("computed capacity is zero")

    t_full = nt.broadcast_to(nt.reshape(t_emb, (B, 1, d)), (B, S, d))
    router_in = nt.concat([x_norm, t_full], axis=-1)          # (B, S, 2d)
    logits = nt.matmul(router_in, w_r)                        # (B, S, E)
    scores = nt.softmax(logits, axis=-1)

    # Selection is index arithmetic off-tape; gate values flow on-tape.
    affinity_np = scores.data.transpose(0, 2, 1)                     # (B, E, S)
    top = _topk_rows(affinity_np, capacity)                           # (B, E, cap)

    # Flat dispatch order is expert-major (e, b, slot) so expert segments
    # are contiguous and scatter-add accumulation order is fixed.
    top_eb = top.transpose(1, 0, 2)                                   # (E, B, cap)
    batch_off = (np.arange(B, dtype=np.int64) * S)[None, :, None]
    token_flat = (top_eb + batch_off).reshape(-1)                     # (E*B*cap,)
    expert_ids = np.broadcast_to(np.arange(E, dtype=np.int64)[:, None, None],
                                 top_eb.shape).reshape(-1)
    cell_flat = token_flat * E + expert_ids
    gate_raw = nt.gather_rows(nt.reshape(scores, (B * S * E, 1)), cell_flat)
    gate_raw = nt.reshape(gate_raw, (E * B * capacity,))

    totals = nt.scatter_add_rows(nt.reshape(gate_raw, (-1, 1)), token_flat, B * S)
    tot_per_slot = nt.reshape(nt.gather_rows(totals, token_flat), (-1,))
    gates = nt.mul(nt.div(gate_raw, nt.add(tot_per_slot, cfg.gate_eps)),
                   cfg.gate_scale)                                    # (E*B*cap,)

    gates_np = gates.data.reshape(E, B, capacity)
    aff_sel = np.take_along_axis(affinity_np, top, axis=-1)
    decisions = [RouterDecision(top_indices=top[b].copy(),
                                affinity=aff_sel[b].copy(),
                                gates=gates_np[:, b, :].copy(),
                                logits=logits.data[b].copy(),
                                capacity=capacity)
                 for b in range(B)]

    routing = {
        "gates": gates,                 # tape tensor, expert-major flat order
        "logits": logits,               # tape tensor (B, S, E)
        "token_flat": token_flat,       # flat row index into (B*S, d)
        "capacity": capacity,
        "shape": (B, S, E),
    }
    return decisions, routing


def route(x_norm: Tensor, t_emb: Tensor, w_r: Tensor,
          cfg: RouterConfig) -> list[RouterDecision]:
    """Route a batch; returns one detached RouterDecision per sample."""
    with nt.no_grad():
        decisions, _ = route_full(x_norm, t_emb, w_r, cfg)
    return decisions
