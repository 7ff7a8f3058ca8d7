"""Per-layer timing of nimg, wrapped from outside the package.

``Tracer.install`` replaces public functions of ``nimg.tensor``, ``nimg.moe``
and ``nimg.backbone`` with timed wrappers, at the names their callers look
them up (``nimg.backbone.moe_forward`` and ``nimg.moe.route_full`` are
imported by name; pullbacks are reached through ``nimg.tensor.record``).
``Tracer.uninstall`` puts the originals back. Nothing in the package is
edited.

Two kinds of timing are kept apart:

* layer spans (``backbone.forward``, ``backbone.attention``, ``moe.combine``,
  ``tensor.backward``, ...) nest on one stack and are self-timed: a span's
  duration minus the time covered by its child layer spans;
* op timers (``tensor.op.<op>.fwd_s`` / ``bwd_s``) time each call of a listed
  op and each of its pullbacks, self-timed against other op timers, and do
  not subtract from layer spans.

All step metrics are means per timed step. Each traced training step is
also reconciled by count: the pullbacks timed must be exactly the tape nodes
that backward visits, so a node whose pullback escaped the wrapper (and whose
time would land in engine_s) fails the step.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from nimg import backbone, moe, tensor

OPS = ("matmul", "swiglu", "gather_rows", "scatter_add_rows", "softmax", "mul",
       "add", "broadcast_to", "concat", "transpose", "rmsnorm", "rotate_pairs",
       "fused_gated_residual", "fused_ln_scale", "fused_gate_res_ln_scale")

# (op, enclosing layer span) -> layer span opened around that op call.
_OP_LAYER = {("scatter_add_rows", "moe.moe_forward"): "moe.combine",
             ("swiglu", "moe.moe_forward"): "moe.shared_swiglu"}
_MODULATION_OPS = ("fused_gated_residual", "fused_ln_scale", "fused_gate_res_ln_scale")
# Layer spans whose ops' pullback time is also charged to them.
_BWD_CHARGED = ("moe.combine", "moe.shared_swiglu")

_PULLBACK = "tensor.backward.pullback"
_clock = time.perf_counter
_MB = 1024.0 * 1024.0


def _targets():
    """(owner, attribute, kind, name) for every wrapped function."""
    out = [(tensor, "record", "record", None),
           (tensor, "backward", "layer", "tensor.backward"),
           (moe, "route_full", "route", "router.route_full"),
           (backbone, "moe_forward", "layer", "moe.moe_forward"),
           (moe, "grouped_forward", "layer", "moe.grouped_forward"),
           (backbone.MoEDiT, "forward", "layer", "backbone.forward"),
           (backbone.MoEDiT, "_attention", "layer", "backbone.attention"),
           (backbone.MoEDiT, "precompute_text_kv", "layer", "backbone.text_kv"),
           (backbone, "_chunks", "layer", "backbone.modulation")]
    for op in OPS:
        if op == "swiglu":
            # defined in moe, imported by name into backbone
            out += [(moe, op, "op", op), (backbone, op, "op", op)]
        elif op == "rotate_pairs" or op in _MODULATION_OPS:
            out.append((backbone, op, "op", op))
        else:
            out.append((tensor, op, "op", op))
    return out


class Tracer:
    """Collects layer spans, op timers and routing counts while installed."""

    def __init__(self):
        self._stack: list[list] = []   # open layer spans: [name, start, child_s]
        self._ops: list[list] = []     # open op timers: [start, child_s]
        self._saved: list[tuple] = []
        self.text_kv_s = 0.0           # over the tracer's lifetime, set-up included
        self.text_kv_calls = 0
        self.reset()

    def reset(self) -> None:
        """Forget step accumulators (text-KV call timing is kept)."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.op_calls = defaultdict(int)
        self.op_fwd_s = defaultdict(float)
        self.op_bwd_s = defaultdict(float)
        self.charged_bwd_s = defaultdict(float)
        self.routed: list[tuple[np.ndarray, int]] = []  # (token_flat, B*S)
        self.decision_bytes = 0
        self.tape_nodes = 0
        self.tape_output_bytes = 0
        self.grad_bytes = 0
        self.pullback_calls = 0        # since the last note_tape

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        make = {"record": self._wrap_record, "layer": self._wrap_layer,
                "route": self._wrap_route, "op": self._wrap_op}
        for owner, attr, kind, name in _targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, make[kind](name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        dur = _clock() - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def _wrap_layer(self, name, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self._exit()
                if name == "backbone.text_kv":
                    self.text_kv_s += dur
                    self.text_kv_calls += 1
        return traced

    def _wrap_route(self, name, fn):
        timed = self._wrap_layer(name, fn)

        def traced(*args, **kwargs):
            decisions, routing = timed(*args, **kwargs)
            B, S, _ = routing["shape"]
            self.routed.append((routing["token_flat"], B * S))
            self.decision_bytes += sum(a.nbytes for d in decisions for a in
                                       (d.top_indices, d.affinity, d.gates, d.logits))
            return decisions, routing
        return traced

    def _wrap_op(self, op, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            layer = ("backbone.modulation" if op in _MODULATION_OPS
                     else _OP_LAYER.get((op, parent)))
            if layer:
                self._enter(layer)
            self._ops.append([_clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                start, child = self._ops.pop()
                dur = _clock() - start
                if self._ops:
                    self._ops[-1][1] += dur
                self.op_calls[op] += 1
                self.op_fwd_s[op] += dur - child
                if layer:
                    self._exit()
        return traced

    def _wrap_record(self, _name, fn):
        def traced(op, inputs, out_arrays, bwd):
            top = self._stack[-1][0] if self._stack else None
            charge = top if top in _BWD_CHARGED else None

            def timed_bwd(*grads):
                self.pullback_calls += 1
                self._enter(_PULLBACK)
                try:
                    return bwd(*grads)
                finally:
                    dur = self._exit()
                    self.op_bwd_s[op] += dur
                    if charge:
                        self.charged_bwd_s[charge] += dur
            return fn(op, inputs, out_arrays, timed_bwd)
        return traced

    # -- tape ------------------------------------------------------------------

    def note_tape(self, tape) -> list[str]:
        """Count a step's tape after backward: nodes, output and grad bytes.

        Returns a problem unless the pullbacks timed since the last call are
        exactly the nodes backward visited: those with an output that
        received a gradient (node outputs are fresh, so a .grad on one was
        set by this backward).
        """
        self.tape_nodes += len(tape.nodes)
        visited = 0
        for node in tape.nodes:
            reached = False
            for out in node.outputs:
                self.tape_output_bytes += out.data.nbytes
                if out.grad is not None:
                    self.grad_bytes += out.grad.nbytes
                    reached = True
            visited += reached
        timed, self.pullback_calls = self.pullback_calls, 0
        if visited == 0 or timed != visited:
            return [f"backward visited {visited} tape nodes but {timed} pullbacks "
                    "were timed"]
        return []

    # -- results ---------------------------------------------------------------

    def reconcile(self, step_wall_s: float, min_share: float) -> list[str]:
        """Consistency checks on the collected spans; returns failures."""
        problems = []
        backward = self.total_s["tensor.backward"]
        pullback = self.self_s[_PULLBACK]
        engine = self.self_s["tensor.backward"]
        if abs(pullback + engine - backward) > 1e-9 * max(1.0, backward):
            problems.append(f"pullback_s {pullback!r} + engine_s {engine!r} "
                            f"!= backward_s {backward!r}")
        # the top-level spans a step makes
        covered = sum(self.total_s[n] for n in
                      ("backbone.forward", "backbone.text_kv", "tensor.backward"))
        if not min_share * step_wall_s <= covered <= step_wall_s:
            problems.append(f"forward + backward {covered:.6f} s is not within "
                            f"[{min_share}, 1] of step wall time {step_wall_s:.6f} s")
        return problems

    def metrics(self, steps: int) -> dict[str, float]:
        """Per-layer metrics as means per timed step."""
        n = float(steps)
        tokens = sum(bs for _, bs in self.routed)
        uncovered = sum(bs - np.unique(flat).size for flat, bs in self.routed)
        m = {
            "tensor.backward_s": self.total_s["tensor.backward"] / n,
            "tensor.backward.pullback_s": self.self_s[_PULLBACK] / n,
            "tensor.backward.engine_s": self.self_s["tensor.backward"] / n,
            "tensor.tape.nodes": self.tape_nodes / n,
            "tensor.tape.output_mb": self.tape_output_bytes / _MB / n,
            "tensor.grad.intermediate_mb": self.grad_bytes / _MB / n,
        }
        for op in OPS:
            m[f"tensor.op.{op}.calls"] = self.op_calls[op] / n
            m[f"tensor.op.{op}.fwd_s"] = self.op_fwd_s[op] / n
            m[f"tensor.op.{op}.bwd_s"] = self.op_bwd_s[op] / n
        m.update({
            "router.route_full_s": self.self_s["router.route_full"] / n,
            "router.uncovered_token_frac": uncovered / tokens if tokens else 0.0,
            "router.decision_mb": self.decision_bytes / _MB / n,
            "moe.moe_forward_s": self.self_s["moe.moe_forward"] / n,
            "moe.grouped_forward_s": self.self_s["moe.grouped_forward"] / n,
            "moe.shared_swiglu_s": (self.self_s["moe.shared_swiglu"]
                                    + self.charged_bwd_s["moe.shared_swiglu"]) / n,
            "moe.combine_s": (self.self_s["moe.combine"]
                              + self.charged_bwd_s["moe.combine"]) / n,
            "moe.expert_rows": sum(flat.size for flat, _ in self.routed) / n,
            "backbone.forward_s": self.self_s["backbone.forward"] / n,
            "backbone.attention_s": self.self_s["backbone.attention"] / n,
            "backbone.modulation_s": self.self_s["backbone.modulation"] / n,
            "backbone.text_kv_s": (self.text_kv_s / self.text_kv_calls
                                   if self.text_kv_calls else 0.0),
            "backbone.text_kv_recomputes": self.calls["backbone.text_kv"] / n,
        })
        return m
