import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.moe import ExpertBank, dense_ffn_half, grouped_forward, moe_forward, swiglu
from nimg.router import GATE_EPS, capacity_for, route_full
from nimg.tensor import ShapeError, Tape, Tensor, backward
from oracles import (assert_lanes_free, dense_half_chain, fused_rms_modulate, grad_check,
                     moe_half_chain)


def swiglu_arrays(x: np.ndarray, w1: np.ndarray, w3: np.ndarray,
                  w2: np.ndarray) -> np.ndarray:
    """Gated-linear forward on raw 2-D arrays; the per-expert reference the
    taped op is compared against."""
    h1 = x @ w1.T
    h3 = x @ w3.T
    s = 1.0 / (1.0 + np.exp(-h1))
    return (h1 * s * h3) @ w2.T


def swiglu_composed(x: Tensor, w1: Tensor, w3: Tensor, w2: Tensor) -> Tensor:
    """Three-step reference: separate matmuls, SiLU, and elementwise product."""
    wt = lambda w: nt.transpose(w, (1, 0))
    return nt.matmul(nt.mul(nt.silu(nt.matmul(x, wt(w1))), nt.matmul(x, wt(w3))), wt(w2))


def make_bank(rng, E, h, d, h_shared=None, scale=1.0):
    h_shared = h_shared or h
    t = lambda s: Tensor(rng.normal(size=s) * scale, dtype=np.float64)
    return ExpertBank(w1=t((E, h, d)), w3=t((E, h, d)), w2=t((E, d, h)),
                      shared_w1=t((h_shared, d)), shared_w3=t((h_shared, d)),
                      shared_w2=t((d, h_shared)))


def test_swiglu_zero_input():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(3, 2)), dtype=np.float64)
    w3 = Tensor(rng.normal(size=(3, 2)), dtype=np.float64)
    w2 = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
    out = swiglu(Tensor(np.zeros((4, 2)), dtype=np.float64), w1, w3, w2)
    np.testing.assert_array_equal(out.data, 0.0)


def test_swiglu_scalar_reduction():
    one = lambda: Tensor(np.ones((1, 1)), dtype=np.float64)
    for x in (-1.3, 0.0, 0.7, 2.5):
        out = swiglu(Tensor(np.array([[x]]), dtype=np.float64), one(), one(), one())
        silu_x = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(out.item(), silu_x * x, rtol=1e-12)


def test_swiglu_fused_matches_composed():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(8, 4)), dtype=np.float64)
    w1 = Tensor(rng.normal(size=(6, 4)), dtype=np.float64)
    w3 = Tensor(rng.normal(size=(6, 4)), dtype=np.float64)
    w2 = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
    a = swiglu(x, w1, w3, w2).data
    b = swiglu_composed(x, w1, w3, w2).data
    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-12)


def test_swiglu_gradients_vs_fd():
    rng = np.random.default_rng(2)
    w1 = Tensor(rng.normal(size=(5, 3)), dtype=np.float64)
    w3 = Tensor(rng.normal(size=(5, 3)), dtype=np.float64)
    w2 = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
    rep = grad_check(lambda p: nt.sum(nt.mul(swiglu(p, w1, w3, w2),
                                             swiglu(p, w1, w3, w2))),
                     Tensor(rng.normal(size=(4, 3))), h=1e-5)
    assert rep.max_rel_err <= 1e-6

    x = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
    rep = grad_check(lambda p: nt.sum(swiglu(x, p, w3, w2)),
                     Tensor(rng.normal(size=(5, 3))), h=1e-5)
    assert rep.max_rel_err <= 1e-6


def test_taped_swiglu_keeps_only_its_output_and_up_projections():
    rng = np.random.default_rng(20)
    n, d, h = 512, 8, 64
    x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    w1, w3 = (Tensor(rng.standard_normal((h, d)), requires_grad=True) for _ in range(2))
    w2 = Tensor(rng.standard_normal((d, h)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:   # the tape keeps the node, and so its closure, alive
            out = swiglu(x, w1, w3, w2)
        held = tracemalloc.get_traced_memory()[0] - before
        assert len(tape.nodes) == 1
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + 2 * n * h * 8   # the output, h1 and h3
    assert kept <= held <= kept + 16 * 1024, (held, kept)


def test_swiglu_shape_mismatch():
    z = lambda s: Tensor(np.zeros(s))
    with pytest.raises(ShapeError):
        swiglu(z((2, 3)), z((4, 3)), z((4, 2)), z((3, 4)))


def test_grouped_forward_equal_weights():
    """Equal weights and gates: a row gives the same output through either expert."""
    rng = np.random.default_rng(3)
    bank = make_bank(rng, 2, 4, 3)
    bank.w1.data[1] = bank.w1.data[0]
    bank.w3.data[1] = bank.w3.data[0]
    bank.w2.data[1] = bank.w2.data[0]
    row = rng.normal(size=(1, 3))
    x = Tensor(np.concatenate([row, row]), dtype=np.float64)
    gates = Tensor(np.full((2, 1, 1), 0.7))
    out = grouped_forward(x, [[0], [1]], gates, bank)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def grouped_case(rng, E=3, n=4, N=7, h=6, d=5):
    """Rows, an (E, n) block index and (E, n, 1) gates; row 0 is in every
    block, row N - 1 in none."""
    x = Tensor(rng.normal(size=(N, d)), dtype=np.float64)
    blocks = np.stack([np.concatenate([[0], 1 + rng.permutation(N - 2)[:n - 1]])
                       for _ in range(E)])
    gates = Tensor(rng.uniform(0.1, 1.0, size=(E, n, 1)), dtype=np.float64)
    return x, blocks, gates, make_bank(rng, E, h, d)


def expert_slices(t, E):
    """The E leading-axis slices of a taped (E, ...) tensor."""
    return [nt.reshape(s, t.shape[1:]) for s in nt.split(t, E, axis=0)]


def grouped_composed(x, blocks, gates, bank):
    """The composition grouped_forward replaces: per expert, a row gather, a
    2-D swiglu and the gate; then one block scatter of every expert's rows,
    and the shared expert's swiglu on every row added last."""
    E, n = blocks.shape
    weights = zip(*(expert_slices(t, E) for t in (bank.w1, bank.w3, bank.w2, gates)))
    gated = [nt.mul(swiglu(nt.gather_rows(x, rows), w1, w3, w2), g)
             for rows, (w1, w3, w2, g) in zip(blocks, weights)]
    stacked = nt.reshape(nt.concat(gated), (E, n, x.shape[1]))
    routed = nt.scatter_add_rows(stacked, blocks, x.shape[0])
    return nt.add(routed, swiglu(x, bank.shared_w1, bank.shared_w3, bank.shared_w2))


def shared_rows(x: np.ndarray, bank) -> np.ndarray:
    """The shared expert on every row, from raw arrays."""
    return swiglu_arrays(x, bank.shared_w1.data, bank.shared_w3.data, bank.shared_w2.data)


def test_grouped_forward_matches_loop_oracle():
    rng = np.random.default_rng(5)
    x, blocks, gates, bank = grouped_case(rng)
    out = grouped_forward(x, blocks, gates, bank)
    oracle = np.zeros(x.shape)
    for r in range(x.shape[0]):
        oracle[r] = shared_rows(x.data[r][None, :], bank)[0]
    for e in range(blocks.shape[0]):
        for k, r in enumerate(blocks[e]):
            y = swiglu_arrays(x.data[r][None, :], bank.w1.data[e],
                              bank.w3.data[e], bank.w2.data[e])[0]
            oracle[r] += gates.data[e, k, 0] * y
    assert out.shape == x.shape
    # a row no expert chose gets the shared expert alone
    np.testing.assert_allclose(out.data[-1], shared_rows(x.data[-1:], bank)[0], rtol=1e-12)
    np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=0)


def test_grouped_forward_matches_composition():
    """Forward bitwise, gradients of all eight inputs at rtol 1e-12."""
    rng = np.random.default_rng(15)
    x, blocks, gates, bank = grouped_case(rng)
    weight = Tensor(rng.normal(size=x.shape))
    inputs = (x, gates, bank.w1, bank.w3, bank.w2, bank.shared_w1, bank.shared_w3,
              bank.shared_w2)
    for t in inputs:
        t.requires_grad = True
    grads = []
    for fn in (grouped_forward, grouped_composed):
        for t in inputs:
            t.grad = None
        with Tape() as tape:
            out = fn(x, blocks, gates, bank)
            loss = nt.sum(nt.mul(out, weight))
        backward(tape, loss)
        grads.append((out.data.tobytes(), [t.grad for t in inputs]))
    (fused, fused_grads), (composed, composed_grads) = grads
    assert fused == composed
    for a, b in zip(fused_grads, composed_grads):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_grouped_forward_gradients_vs_fd():
    rng = np.random.default_rng(16)
    x, blocks, gates, bank = grouped_case(rng, E=2, n=3, N=5, h=4, d=3)
    weight = Tensor(rng.normal(size=x.shape))
    loss = lambda out: nt.sum(nt.mul(out, weight))
    checks = {  # input: (loss as a function of that input, point)
        "x": (lambda p: loss(grouped_forward(p, blocks, gates, bank)), x),
        "gates": (lambda p: loss(grouped_forward(x, blocks, p, bank)), gates),
        "w1": (lambda p: loss(grouped_forward(x, blocks, gates, replace(bank, w1=p))),
               bank.w1),
        "w3": (lambda p: loss(grouped_forward(x, blocks, gates, replace(bank, w3=p))),
               bank.w3),
        "w2": (lambda p: loss(grouped_forward(x, blocks, gates, replace(bank, w2=p))),
               bank.w2),
    }
    for w in ("shared_w1", "shared_w3", "shared_w2"):
        checks[w] = (lambda p, w=w: loss(grouped_forward(x, blocks, gates,
                                                         replace(bank, **{w: p}))),
                     getattr(bank, w))
    for name, (fn, point) in checks.items():
        rep = grad_check(fn, point, h=1e-5)
        assert rep.max_rel_err <= 1e-6, (name, rep.max_rel_err)


def retention_case(rng, E=4, n=128, N=512, d=8, h=64):
    """A grouped_forward input of the given sizes whose every tensor
    requires grad; the shared expert is h wide too."""
    x = Tensor(rng.standard_normal((N, d)), requires_grad=True)
    blocks = np.stack([rng.permutation(N)[:n] for _ in range(E)])
    gates = Tensor(rng.uniform(size=(E, n, 1)), requires_grad=True)
    bank = make_bank(rng, E, h, d)
    for w in vars(bank).values():
        w.requires_grad = True
    return x, blocks, gates, bank


def test_taped_grouped_forward_keeps_only_its_output_and_up_projections():
    rng = np.random.default_rng(21)
    E, n, N, d, h = 4, 128, 512, 8, 64
    x, blocks, gates, bank = retention_case(rng, E, n, N, d, h)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:   # the tape keeps the node, and so its closure, alive
            out = grouped_forward(x, blocks, gates, bank)
        held = tracemalloc.get_traced_memory()[0] - before
        assert len(tape.nodes) == 1
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + 2 * (E * n + N) * h * 8   # output, routed and shared h1, h3
    assert kept <= held <= kept + 16 * 1024, (held, kept)


def no_grad_grouped_forward_peak(rng, E, n, N, d, h):
    """The traced peak of a no-grad grouped_forward over what existed
    before, less its output."""
    x, blocks, gates, bank = retention_case(rng, E, n, N, d, h)
    with nt.no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = grouped_forward(x, blocks, gates, bank)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak - out.data.nbytes


def test_no_grad_grouped_forward_drops_each_experts_activations(monkeypatch):
    """Without a tape, no expert's h1 and h3 outlive its own step: on one
    lane the peak stays below one routed expert's h1 + h3 above the output
    plus the largest step, the shared expert's (h1, h3, the activation and
    its output over all N rows)."""
    monkeypatch.setattr(nt, "LANES", 1)
    E, n, N, d, h = 8, 128, 512, 8, 64
    peak = no_grad_grouped_forward_peak(np.random.default_rng(22), E, n, N, d, h)
    shared_step = (3 * N * h + N * d) * 8
    assert peak - shared_step < 2 * n * h * 8, peak


def test_no_grad_grouped_forward_holds_one_expert_step_per_lane(monkeypatch):
    """On three lanes two more routed experts' steps may run beside the
    largest one: each lane holds its expert's rows, h1, h3, activation and
    output, and drops them when the step ends."""
    monkeypatch.setattr(nt, "LANES", 3)
    E, n, N, d, h = 8, 128, 512, 8, 64
    peak = no_grad_grouped_forward_peak(np.random.default_rng(22), E, n, N, d, h)
    shared_step = (3 * N * h + N * d) * 8
    routed_step = (3 * n * h + 2 * n * d) * 8
    assert peak - shared_step < 2 * n * h * 8 + 2 * routed_step, peak


def drop_grads(tensors):
    for t in tensors:
        t.grad = None


def held_after_forward_and_backward(forward, inputs):
    """Bytes a tape holds, over what existed before, after `forward()`
    under it and again after one backward of sum(out) and dropping every
    .grad; returns (after forward, after backward, out)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:   # the tape keeps the node, and so its closure, alive
            out = forward()
            after_forward = tracemalloc.get_traced_memory()[0] - before
            loss = nt.sum(out)
        backward(tape, loss)
        drop_grads((*inputs, out, loss))
        after_backward = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return after_forward, after_backward, out


@pytest.mark.parametrize("op", ["grouped_forward", "swiglu"])
def test_ffn_node_releases_its_up_projections_once_its_pullback_has_run(op):
    """After one backward, with every .grad dropped, the node holds its
    output alone: its h1 and h3 (every routed expert's and the shared
    expert's for grouped_forward) are gone."""
    rng = np.random.default_rng(24)
    E, n, N, d, h = 4, 128, 512, 8, 64
    x, blocks, gates, bank = retention_case(rng, E, n, N, d, h)
    if op == "grouped_forward":
        forward = lambda: grouped_forward(x, blocks, gates, bank)
        inputs, released = (x, gates, *vars(bank).values()), 2 * (E * n + N) * h * 8
    else:
        w1, w3, w2 = bank.shared_w1, bank.shared_w3, bank.shared_w2
        forward = lambda: swiglu(x, w1, w3, w2)
        inputs, released = (x, w1, w3, w2), 2 * N * h * 8
    after_forward, after_backward, out = held_after_forward_and_backward(forward, inputs)
    assert out.data.nbytes <= after_backward <= out.data.nbytes + 16 * 1024, after_backward
    assert abs(after_forward - after_backward - released) <= 16 * 1024, (
        after_forward, after_backward, released)


def test_three_backwards_over_one_grouped_forward_give_1_2_3_times_bitwise():
    """At the desk shapes: the first backward uses the kept up-projections,
    the second and third recompute them, and every pass adds the first
    pass's gradients again, bit for bit."""
    rng = np.random.default_rng(25)
    x, blocks, gates, bank = retention_case(rng, E=16, n=256, N=512, d=128, h=128)
    inputs = (x, gates, *vars(bank).values())
    weight = Tensor(rng.standard_normal(x.shape))
    with Tape() as tape:
        loss = nt.sum(nt.mul(grouped_forward(x, blocks, gates, bank), weight))
    backward(tape, loss)
    first = [t.grad.copy() for t in inputs]
    for k in (2.0, 3.0):
        backward(tape, loss)
        for t, g in zip(inputs, first):
            assert t.grad.tobytes() == (k * g).tobytes()


def raising_cases(rng):
    """(forward, inputs, a wrong-shaped upstream gradient, the error it
    raises) per FFN node. The grouped case's blocks put expert 0 on rows
    0-3 and expert 1 on rows 4-7, so a gradient of 4 rows lets expert 0's
    pullback run (and release its pair) before expert 1's row gather, on
    lane 1 when there are more lanes than one, raises IndexError; swiglu's
    raises ValueError inside its pullback, after it took the pair."""
    x, _, gates, bank = grouped_case(rng, E=2, n=4, N=9)
    blocks = np.array([[0, 2, 1, 3], [5, 4, 7, 6]])
    grouped = (lambda: grouped_forward(x, blocks, gates, bank),
               (x, gates, *vars(bank).values()), np.ones((4, x.shape[1])), IndexError)
    w1, w3, w2 = bank.shared_w1, bank.shared_w3, bank.shared_w2
    dense = (lambda: swiglu(x, w1, w3, w2), (x, w1, w3, w2), np.ones((3, x.shape[1])),
             ValueError)
    return {"grouped_forward": grouped, "swiglu": dense}


@pytest.mark.parametrize("op", ["grouped_forward", "swiglu"])
def test_pullback_that_raises_part_way_leaves_a_node_that_runs_again(monkeypatch, op):
    """On 1, 2 and 3 lanes: the error reaches the caller with its own type,
    no lane is left busy, and the next backward is bitwise a fresh one's."""
    for lanes in (1, 2, 3):
        monkeypatch.setattr(nt, "LANES", lanes)
        rng = np.random.default_rng(26)
        forward, inputs, bad_g, error = raising_cases(rng)[op]
        for t in inputs:
            t.requires_grad = True
        weight = Tensor(rng.standard_normal(inputs[0].shape))
        grads = []
        for fail_first in (False, True):
            drop_grads(inputs)
            with Tape() as tape:
                loss = nt.sum(nt.mul(forward(), weight))
            if fail_first:
                with pytest.raises(error) as raised:
                    tape.nodes[0].bwd(bad_g)
                assert raised.type is error, lanes
                assert_lanes_free()
            backward(tape, loss)
            grads.append([t.grad.tobytes() for t in inputs])
        assert grads[0] == grads[1], lanes


def test_swiglu_stacked_shape_mismatch():
    z = lambda s: Tensor(np.zeros(s))
    with pytest.raises(ShapeError):  # 2 token blocks, 3 experts
        swiglu(z((2, 4, 3)), z((3, 5, 3)), z((3, 5, 3)), z((3, 3, 5)))
    with pytest.raises(ShapeError):  # stacked weights, unstacked tokens
        swiglu(z((4, 3)), z((2, 5, 3)), z((2, 5, 3)), z((2, 3, 5)))
    with pytest.raises(ShapeError):  # one weight unstacked
        swiglu(z((2, 4, 3)), z((2, 5, 3)), z((5, 3)), z((2, 3, 5)))
    with pytest.raises(ShapeError, match="rows"):  # 3-D rows, consistent stacked weights
        swiglu(z((2, 4, 3)), z((2, 5, 3)), z((2, 5, 3)), z((2, 3, 5)))
    with pytest.raises(ShapeError, match="rows"):  # 3-D rows, 2-D weights
        swiglu(z((2, 4, 3)), z((5, 3)), z((5, 3)), z((3, 5)))


MOE_ARGS = ("x", "r_attn", "sa_gate", "ff_scale", "ff_gate", "t_emb", "w_r",
            "w1", "w3", "w2", "shared_w1", "shared_w3", "shared_w2")
DENSE_ARGS = ("x", "r_attn", "sa_gate", "ff_scale", "ff_gate", "w1", "w3", "w2")
RMS_C = 0.5


class MoECase:
    """moe_forward's inputs on random data: the residual stream x and the
    attention output r_attn (B, S, d), the three (B, d) modulations, t_emb,
    the (2d, E) router weight and a bank of E experts h wide; C is the
    capacity factor."""

    def __init__(self, rng, B, S, d, E, C, h=4):
        t = lambda *shape: Tensor(rng.normal(size=shape))
        self.C = C
        self.tensors = dict(x=t(B, S, d), r_attn=t(B, S, d), sa_gate=t(B, d),
                            ff_scale=t(B, d), ff_gate=t(B, d), t_emb=t(B, d),
                            w_r=t(2 * d, E))
        self.tensors.update(vars(make_bank(rng, E, h, d)))

    def run(self, fn=None, **changes):
        """(x', decisions, routing) of fn (moe_forward) on the case's tensors
        with the named ones replaced."""
        ts = {**self.tensors, **changes}
        return (fn or moe_forward)(*(ts[n] for n in MOE_ARGS[:7]), self.bank_of(ts),
                                   self.C, RMS_C)

    @staticmethod
    def bank_of(ts) -> ExpertBank:
        return ExpertBank(*(ts[n] for n in MOE_ARGS[7:]))

    @property
    def bank(self) -> ExpertBank:
        return self.bank_of(self.tensors)

    def states(self):
        """(h, x_norm, x_mod) as arrays: the residual stream after the
        attention gate, the router input and the experts' input."""
        ts = self.tensors
        h = ts["x"].data + np.tanh(ts["sa_gate"].data)[:, None] * ts["r_attn"].data
        x_norm, x_mod = fused_rms_modulate(Tensor(h), ts["ff_scale"], RMS_C)
        return h, x_norm.data, x_mod.data

    def output(self, f: np.ndarray) -> np.ndarray:
        """x' = h + tanh(ff_gate) f for an FFN output f, by the node's ops."""
        return self.states()[0] + np.tanh(self.tensors["ff_gate"].data)[:, None] * f


def dense_oracle(case: MoECase) -> np.ndarray:
    """Per-token bookkeeping oracle of the FFN output F: shared + sum of the
    gated selecting experts."""
    _, x_norm, x_mod = case.states()
    bank = case.bank
    B, S, _ = x_mod.shape
    decs, _ = route_full(x_norm, case.tensors["t_emb"].data, case.tensors["w_r"].data, case.C)
    out = np.zeros(x_mod.shape)
    for b in range(B):
        dec = decs[b]
        for s in range(S):
            row = x_mod[b, s][None, :]
            acc = shared_rows(row, bank)[0]
            for e in range(dec.top_indices.shape[0]):
                for slot in np.nonzero(dec.top_indices[e] == s)[0]:
                    y = swiglu_arrays(row, bank.w1.data[e], bank.w3.data[e],
                                      bank.w2.data[e])[0]
                    acc = acc + dec.gates[e, slot] * y
            out[b, s] = acc
    return out


def test_moe_forward_zero_experts_gives_shared_only():
    rng = np.random.default_rng(6)
    case = MoECase(rng, 1, 6, 4, 2, 1.0)
    case.tensors["w2"].data[:] = 0.0  # routed experts output zero
    out = case.run()[0]
    shared = shared_rows(case.states()[2].reshape(-1, 4), case.bank)
    np.testing.assert_array_equal(out.data, case.output(shared.reshape(out.shape)))


def test_moe_forward_single_expert_full_capacity():
    rng = np.random.default_rng(7)
    d, S = 3, 4
    case = MoECase(rng, 1, S, d, 1, 1.0, h=5)
    out = case.run()[0]
    flat = case.states()[2].reshape(-1, d)
    bank = case.bank
    routed = swiglu_arrays(flat, bank.w1.data[0], bank.w3.data[0], bank.w2.data[0])
    gate = 1.0 / (1.0 + GATE_EPS)  # sole expert, affinity 1
    expect = case.output((shared_rows(flat, bank) + gate * routed).reshape(out.shape))
    np.testing.assert_allclose(out.data, expect, rtol=1e-9)


def test_moe_forward_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for trial in range(8):
        B = int(rng.integers(1, 3))
        S = int(rng.integers(2, 17))
        E = int(rng.integers(1, 5))
        case = MoECase(rng, B, S, 4, E, float(rng.uniform(0.5, 4.0)))
        out = case.run()[0]
        np.testing.assert_allclose(out.data, case.output(dense_oracle(case)), rtol=1e-6,
                                   atol=1e-9, err_msg=f"trial {trial}")
        assert np.all(np.isfinite(out.data))


def test_moe_forward_routed_sum_is_add_at_over_token_flat_bitwise():
    rng = np.random.default_rng(14)
    B, S, d, E = 2, 9, 4, 4
    case = MoECase(rng, B, S, d, E, 2.0)
    out, _, routing = case.run()
    token_flat = routing["token_flat"]
    # with three or more addends a row's sum depends on their order
    assert np.bincount(token_flat).max() >= 3
    x_flat = case.states()[2].reshape(B * S, d)
    rows = x_flat[token_flat].reshape(E, -1, d)
    bank = case.bank
    with nt.no_grad():
        expert_out = np.stack([swiglu(Tensor(rows[e]), Tensor(bank.w1.data[e]),
                                      Tensor(bank.w3.data[e]), Tensor(bank.w2.data[e])).data
                               for e in range(E)])
        shared = swiglu(Tensor(x_flat), bank.shared_w1, bank.shared_w3,
                        bank.shared_w2).data
    routed = np.zeros((B * S, d))
    np.add.at(routed, token_flat, (expert_out * routing["gates"]).reshape(-1, d))
    assert out.data.tobytes() == case.output((routed + shared).reshape(B, S, d)).tobytes()


def test_moe_forward_batch_permutation_equivariance():
    rng = np.random.default_rng(9)
    case = MoECase(rng, 3, 5, 4, 2, 1.5)
    out = case.run()[0].data
    perm = np.array([2, 0, 1])
    permuted = {n: Tensor(case.tensors[n].data[perm]) for n in MOE_ARGS[:6]}
    out_p = case.run(**permuted)[0].data
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-12)


def test_moe_forward_decoupling_from_modulation_scale():
    """Routing reads RMS(h) c and the timestep term only: scaling ff_scale
    moves the output but not one selection or gate."""
    rng = np.random.default_rng(10)
    case = MoECase(rng, 1, 8, 4, 2, 2.0)
    out1, dec1, _ = case.run()
    out2, dec2, _ = case.run(ff_scale=Tensor(10.0 * case.tensors["ff_scale"].data))
    np.testing.assert_array_equal(dec1[0].top_indices, dec2[0].top_indices)
    np.testing.assert_array_equal(dec1[0].gates, dec2[0].gates)
    assert not np.allclose(out1.data, out2.data)


def test_moe_forward_gradients_vs_fd():
    """Every input of the node, at partial capacity (4 of 5 tokens)."""
    rng = np.random.default_rng(11)
    case = MoECase(rng, 1, 5, 3, 2, 1.5)
    weight = Tensor(rng.normal(size=(1, 5, 3)))
    for name in MOE_ARGS:
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(case.run(**{name: p})[0], weight)),
                         case.tensors[name], h=1e-5)
        assert rep.max_rel_err <= 1e-5, (name, rep.max_rel_err)


def test_moe_forward_router_weight_receives_grad():
    rng = np.random.default_rng(12)
    case = MoECase(rng, 1, 6, 4, 3, 2.0)
    for n in ("w_r", "x"):
        case.tensors[n].requires_grad = True
    with Tape() as tape:
        out = case.run()[0]
        loss = nt.sum(nt.mul(out, out))
    backward(tape, loss)
    for n in ("w_r", "x"):
        g = case.tensors[n].grad
        assert g is not None and np.any(g != 0.0), n


class DenseCase:
    """dense_ffn_half's inputs: x and r_attn (B, S, d), the three (B, d)
    modulations and SwiGLU weights h wide."""

    def __init__(self, rng, B, S, d, h):
        t = lambda *shape: Tensor(rng.normal(size=shape))
        self.tensors = dict(x=t(B, S, d), r_attn=t(B, S, d), sa_gate=t(B, d),
                            ff_scale=t(B, d), ff_gate=t(B, d), w1=t(h, d), w3=t(h, d),
                            w2=t(d, h))

    def run(self, fn=None, **changes):
        ts = {**self.tensors, **changes}
        return (fn or dense_ffn_half)(*(ts[n] for n in DENSE_ARGS))


def half_case(node: str, seed: int, full: bool = True):
    """A case for the dense or the MoE FFN half; the MoE one at full
    capacity (C = E, every expert takes every token) or partial (C = 1.5:
    each of 4 experts takes 6 of 16 tokens)."""
    rng = np.random.default_rng(seed)
    if node == "dense":
        return DenseCase(rng, 2, 7, 6, 5), DENSE_ARGS, dense_half_chain
    case = MoECase(rng, 2, 16, 6, 4, 4.0 if full else 1.5, h=5)
    return case, MOE_ARGS, lambda *a: moe_half_chain(*a)[0]


def first(out):
    return out[0] if isinstance(out, tuple) else out


HALF_CASES = [("dense", None), ("moe", True), ("moe", False)]
HALF_IDS = ["dense", "moe_full_capacity", "moe_partial_capacity"]


@pytest.mark.parametrize("seed", [30, 31])
@pytest.mark.parametrize("node,full", HALF_CASES, ids=HALF_IDS)
def test_ffn_half_node_is_bitwise_the_chain(node, full, seed):
    """Value and every input gradient, bitwise, against the chain of nodes
    it folds (tests/oracles.py), under a loss that also reads x, as the
    next block's attention does."""
    case, names, chain = half_case(node, seed, full)
    if node == "moe":
        cap = capacity_for(16, 4, case.C)
        assert (cap == 16) is full
    weight = Tensor(np.random.default_rng(seed + 100).normal(size=case.tensors["x"].shape))
    results = []
    for fn in (None, chain):
        leaves = {n: Tensor(t.data, requires_grad=True) for n, t in case.tensors.items()}
        with Tape() as tape:
            out = first(case.run(fn, **leaves))
            loss = nt.add(nt.sum(nt.mul(out, weight)), nt.sum(nt.mul(leaves["x"], out)))
        backward(tape, loss)
        results.append([out.data.tobytes()] + [leaves[n].grad.tobytes() for n in names])
    assert len(results[1]) == len(names) + 1
    for i, (a, b) in enumerate(zip(*results)):
        assert a == b, (["value"] + list(names))[i]


@pytest.mark.parametrize("node,full", HALF_CASES, ids=HALF_IDS)
def test_ffn_half_node_gradients_vs_fd(node, full):
    case, names, _ = half_case(node, 32, full)
    weight = Tensor(np.random.default_rng(33).normal(size=case.tensors["x"].shape))
    for name in names:
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(first(case.run(**{name: p})),
                                                            weight)),
                         case.tensors[name], h=1e-5)
        assert rep.max_rel_err <= 1e-5, (name, rep.max_rel_err)


def test_moe_forward_routing_is_the_chains():
    """token_flat, the gates and every decision array equal the taped
    chain's, at partial capacity."""
    case = half_case("moe", 34, full=False)[0]
    _, decs, routing = case.run()
    _, decs_c, routing_c = case.run(moe_half_chain)
    assert routing["token_flat"].tobytes() == routing_c["token_flat"].tobytes()
    assert routing["gates"].tobytes() == routing_c["gates"].data.tobytes()
    assert routing["logits"].tobytes() == routing_c["logits"].data.tobytes()
    for a, b in zip(decs, decs_c, strict=True):
        for f in ("top_indices", "affinity", "gates", "logits"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f


def desk_half(node: str, rng):
    """An FFN half at the desk model's block shapes (B 2, S 256, d 128, h
    128; 16 experts taking 128 tokens each), every input requiring grad."""
    if node == "dense":
        case = DenseCase(rng, 2, 256, 128, 128)
    else:
        case = MoECase(rng, 2, 256, 128, 16, 8.0, h=128)
    for t in case.tensors.values():
        t.requires_grad = True
    return case


@pytest.mark.parametrize("node", ["dense", "moe"])
def test_taped_ffn_half_keeps_only_what_its_pullback_reads(node):
    """Besides its output the node keeps both tanh(gate)s, its rows'
    statistics, F and the up-projections, and for MoE token_flat, the gates
    and the router's scores and claim mask: no h, normalised or modulated
    input, and no gradient-sized router array beyond those."""
    rng = np.random.default_rng(35)
    case = desk_half(node, rng)
    B, S, d = case.tensors["x"].shape
    outs = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:   # the tape keeps the node, and so its closure, alive
            outs.append(first(case.run()))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1
    gates = 2 * B * d * 8
    f = B * S * d * 8
    if node == "dense":
        stats = 2 * B * S * 8                            # LayerNorm mean and inverse std
        pairs = 2 * B * S * case.tensors["w1"].shape[0] * 8
        routing = 0
    else:
        E, h = case.tensors["w1"].shape[:2]
        n = B * capacity_for(S, E, case.C)
        stats = B * S * 8                                # inverse RMS
        pairs = 2 * (E * n + B * S) * h * 8              # every routed expert's and the shared
        routing = E * n * 8 * 2 + B * S * E * (8 + 1)    # token_flat, gates; scores, claimed
    kept = held - outs[0].data.nbytes
    assert kept >= f + pairs, kept
    assert kept <= gates + stats + f + pairs + routing + 16 * 1024, (
        kept, gates + stats + f + pairs + routing)


@pytest.mark.parametrize("node", ["dense", "moe"])
def test_ffn_half_without_a_tape_keeps_nothing_and_is_bitwise_the_taped_output(node):
    rng = np.random.default_rng(36)
    case = desk_half(node, rng)
    with Tape() as tape:
        taped = first(case.run())
    assert len(tape.nodes) == 1
    with nt.no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = case.run()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    plain = first(result)
    assert not plain.requires_grad
    assert plain.data.tobytes() == taped.data.tobytes()
    # the output, and for MoE the decisions and routing arrays the caller
    # gets back; nothing for a pullback
    returned = 0
    if node == "moe":
        _, decisions, routing = result
        returned = sum(a.nbytes for a in routing.values() if isinstance(a, np.ndarray))
        returned += sum(a.nbytes for dec in decisions
                        for a in (dec.top_indices, dec.affinity, dec.gates, dec.logits))
    assert held - plain.data.nbytes - returned <= 16 * 1024, (held, returned)
