import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.moe import ExpertBank, grouped_forward, moe_forward, swiglu
from nimg.router import GATE_EPS, route_full
from nimg.tensor import ShapeError, Tape, Tensor, backward
from oracles import grad_check


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


def test_no_grad_grouped_forward_drops_each_experts_activations():
    """Without a tape, no expert's h1 and h3 outlive its own step: the peak
    stays below one routed expert's h1 + h3 above the output plus the
    largest step, the shared expert's (h1, h3, the activation and its
    output over all N rows)."""
    rng = np.random.default_rng(22)
    E, n, N, d, h = 8, 128, 512, 8, 64
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
    shared_step = (3 * N * h + N * d) * 8
    assert peak - out.data.nbytes - shared_step < 2 * n * h * 8, peak


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
    """(forward, inputs, a wrong-shaped upstream gradient) per FFN node. The
    grouped case's blocks put expert 0 on rows 0-3 and expert 1 on rows
    4-7, so a gradient of 4 rows lets expert 0's pullback run (and release
    its pair) before expert 1's row gather raises IndexError; swiglu's
    raises ValueError inside its pullback, after it took the pair."""
    x, _, gates, bank = grouped_case(rng, E=2, n=4, N=9)
    blocks = np.array([[0, 2, 1, 3], [5, 4, 7, 6]])
    grouped = (lambda: grouped_forward(x, blocks, gates, bank),
               (x, gates, *vars(bank).values()), np.ones((4, x.shape[1])))
    w1, w3, w2 = bank.shared_w1, bank.shared_w3, bank.shared_w2
    dense = (lambda: swiglu(x, w1, w3, w2), (x, w1, w3, w2), np.ones((3, x.shape[1])))
    return {"grouped_forward": grouped, "swiglu": dense}


@pytest.mark.parametrize("op", ["grouped_forward", "swiglu"])
def test_pullback_that_raises_part_way_leaves_a_node_that_runs_again(op):
    rng = np.random.default_rng(26)
    forward, inputs, bad_g = raising_cases(rng)[op]
    for t in inputs:
        t.requires_grad = True
    weight = Tensor(rng.standard_normal(inputs[0].shape))
    grads = []
    for fail_first in (False, True):
        drop_grads(inputs)
        with Tape() as tape:
            loss = nt.sum(nt.mul(forward(), weight))
        if fail_first:
            with pytest.raises((IndexError, ValueError)):
                tape.nodes[0].bwd(bad_g)
        backward(tape, loss)
        grads.append([t.grad.tobytes() for t in inputs])
    assert grads[0] == grads[1]


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


def moe_setup(rng, B, S, d, E, C, h=4):
    bank = make_bank(rng, E, h, d)
    w_r = Tensor(rng.normal(size=(2 * d, E)), dtype=np.float64)
    x = Tensor(rng.normal(size=(B, S, d)), dtype=np.float64)
    x_norm = Tensor(rng.normal(size=(B, S, d)), dtype=np.float64)
    x_mod = Tensor(rng.normal(size=(B, S, d)), dtype=np.float64)
    t_emb = Tensor(rng.normal(size=(B, d)), dtype=np.float64)
    return C, bank, w_r, x, x_norm, x_mod, t_emb


def dense_oracle(x_mod, t_emb, x_norm, w_r, C, bank):
    """Per-token bookkeeping oracle: shared + sum of gated selecting experts."""
    B, S, d = x_mod.shape
    with nt.no_grad():
        decs, _ = route_full(x_norm, t_emb, w_r, C)
    out = np.zeros((B, S, d))
    for b in range(B):
        dec = decs[b]
        for s in range(S):
            row = x_mod.data[b, s][None, :]
            acc = swiglu_arrays(row, bank.shared_w1.data, bank.shared_w3.data,
                                bank.shared_w2.data)[0]
            for e in range(w_r.shape[1]):
                hits = np.nonzero(dec.top_indices[e] == s)[0]
                for slot in hits:
                    y = swiglu_arrays(row, bank.w1.data[e], bank.w3.data[e],
                                      bank.w2.data[e])[0]
                    acc = acc + dec.gates[e, slot] * y
            out[b, s] = acc
    return out


def test_moe_forward_zero_experts_gives_shared_only():
    rng = np.random.default_rng(6)
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, 1, 6, 4, 2, 1.0)
    bank.w2.data[:] = 0.0  # routed experts output zero
    out = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)[0]
    shared = swiglu_arrays(x_mod.data.reshape(-1, 4), bank.shared_w1.data,
                           bank.shared_w3.data, bank.shared_w2.data)
    np.testing.assert_array_equal(out.data, shared.reshape(out.shape))


def test_moe_forward_single_expert_full_capacity():
    rng = np.random.default_rng(7)
    d, S = 3, 4
    bank = make_bank(rng, 1, 5, d)
    w_r = Tensor(rng.normal(size=(2 * d, 1)), dtype=np.float64)
    x_mod = Tensor(rng.normal(size=(1, S, d)), dtype=np.float64)
    x_norm = Tensor(rng.normal(size=(1, S, d)), dtype=np.float64)
    t_emb = Tensor(rng.normal(size=(1, d)), dtype=np.float64)
    out = moe_forward(x_norm, x_mod, t_emb, 1.0, bank, w_r)[0]
    flat = x_mod.data.reshape(-1, d)
    shared = swiglu_arrays(flat, bank.shared_w1.data, bank.shared_w3.data,
                           bank.shared_w2.data)
    routed = swiglu_arrays(flat, bank.w1.data[0], bank.w3.data[0],
                           bank.w2.data[0])
    gate = 1.0 / (1.0 + GATE_EPS)  # sole expert, affinity 1
    expect = shared + gate * routed
    np.testing.assert_allclose(out.data.reshape(-1, d), expect, rtol=1e-9)


def test_moe_forward_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for trial in range(8):
        B = int(rng.integers(1, 3))
        S = int(rng.integers(2, 17))
        E = int(rng.integers(1, 5))
        C = float(rng.uniform(0.5, 4.0))
        C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, B, S, 4, E, C)
        out = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)[0]
        oracle = dense_oracle(x_mod, t_emb, x_norm, w_r, C, bank)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-6, atol=1e-9,
                                   err_msg=f"trial {trial}")
        assert np.all(np.isfinite(out.data))


def test_moe_forward_routed_sum_is_add_at_over_token_flat_bitwise():
    rng = np.random.default_rng(14)
    B, S, d, E = 2, 9, 4, 4
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, B, S, d, E, 2.0)
    out, _, routing = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)
    token_flat = routing["token_flat"]
    # with three or more addends a row's sum depends on their order
    assert np.bincount(token_flat).max() >= 3
    x_flat = x_mod.data.reshape(B * S, d)
    rows = x_flat[token_flat].reshape(E, -1, d)
    with nt.no_grad():
        expert_out = np.stack([swiglu(Tensor(rows[e]), Tensor(bank.w1.data[e]),
                                      Tensor(bank.w3.data[e]), Tensor(bank.w2.data[e])).data
                               for e in range(E)])
        shared = swiglu(Tensor(x_flat), bank.shared_w1, bank.shared_w3,
                        bank.shared_w2).data
    routed = np.zeros((B * S, d))
    np.add.at(routed, token_flat, (expert_out * routing["gates"].data).reshape(-1, d))
    assert out.data.tobytes() == (routed + shared).reshape(B, S, d).tobytes()


def test_moe_forward_batch_permutation_equivariance():
    rng = np.random.default_rng(9)
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, 3, 5, 4, 2, 1.5)
    out = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)[0].data
    perm = np.array([2, 0, 1])
    out_p = moe_forward(
        Tensor(x_norm.data[perm], dtype=np.float64),
        Tensor(x_mod.data[perm], dtype=np.float64),
        Tensor(t_emb.data[perm], dtype=np.float64), C, bank, w_r)[0].data
    np.testing.assert_allclose(out_p, out[perm], rtol=1e-12)


def test_moe_forward_decoupling_from_modulation_scale():
    rng = np.random.default_rng(10)
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, 1, 8, 4, 2, 2.0)
    out1, dec1, _ = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)
    x_mod10 = Tensor(10.0 * x_mod.data, dtype=np.float64)
    out2, dec2, _ = moe_forward(x_norm, x_mod10, t_emb, C, bank, w_r)
    np.testing.assert_array_equal(dec1[0].top_indices, dec2[0].top_indices)
    np.testing.assert_array_equal(dec1[0].gates, dec2[0].gates)
    assert not np.allclose(out1.data, out2.data)


def test_moe_forward_gradients_vs_fd():
    rng = np.random.default_rng(11)
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, 1, 5, 3, 2, 1.5)

    def loss_wrt_xmod(p):
        out = moe_forward(x_norm, p, t_emb, C, bank, w_r)[0]
        return nt.sum(nt.mul(out, out))

    rep = grad_check(loss_wrt_xmod, x_mod, h=1e-5)
    assert rep.max_rel_err <= 1e-5, rep.max_rel_err

    def loss_wrt_wr(p):
        out = moe_forward(x_norm, x_mod, t_emb, C, bank, p)[0]
        return nt.sum(nt.mul(out, out))

    rep = grad_check(loss_wrt_wr, w_r, h=1e-5)
    assert rep.max_rel_err <= 1e-5, rep.max_rel_err


def test_moe_forward_router_weight_receives_grad():
    rng = np.random.default_rng(12)
    C, bank, w_r, _, x_norm, x_mod, t_emb = moe_setup(rng, 1, 6, 4, 3, 2.0)
    w_r.requires_grad = True
    x_norm.requires_grad = True
    with Tape() as tape:
        out = moe_forward(x_norm, x_mod, t_emb, C, bank, w_r)[0]
        loss = nt.sum(nt.mul(out, out))
    backward(tape, loss)
    assert w_r.grad is not None and np.any(w_r.grad != 0.0)
    assert x_norm.grad is not None and np.any(x_norm.grad != 0.0)
