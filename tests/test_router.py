import numpy as np
import pytest

from nimg import tensor as nt
from nimg.router import (DENSE, GATE_EPS, ConfigError, StageId, capacity_for,
                         capacity_schedule, route_full, route_pullback)
from nimg.tensor import Tape, Tensor, backward
from oracles import route_chain


def make_inputs(rng, B, S, d):
    return rng.normal(size=(B, S, d)), rng.normal(size=(B, d))


def test_capacity_for_quoted_values():
    assert capacity_for(256, 64, 8.0) == 32
    assert capacity_for(1024, 64, 4.0) == 64
    assert capacity_for(5, 64, 8.0) == 1  # ceil(0.625) = 1


def test_capacity_for_clamps_to_sequence_length():
    assert capacity_for(4, 2, 100.0) == 4


def test_capacity_for_rejects_bad_args():
    with pytest.raises(ConfigError):
        capacity_for(0, 2, 1.0)
    with pytest.raises(ConfigError):
        capacity_for(4, 2, 0.0)


def test_capacity_schedule_anchors():
    assert capacity_schedule(3, StageId.S1024) == 4.0
    assert capacity_schedule(4, StageId.S1024) == 4.0
    assert capacity_schedule(5, StageId.S1024) == 2.0
    assert capacity_schedule(17, StageId.S1024) == 2.0
    assert capacity_schedule(31, StageId.S1024) == 2.0
    assert capacity_schedule(17, StageId.S256) == 8.0
    assert capacity_schedule(17, StageId.S512) == 4.0
    assert capacity_schedule(0, StageId.S256) is DENSE
    assert capacity_schedule(2, StageId.S1024) is DENSE
    with pytest.raises(ConfigError):
        capacity_schedule(32, StageId.S256)
    with pytest.raises(ConfigError):
        capacity_schedule(-1, StageId.S256)


def test_uniform_logits_tie_break_by_index():
    B, S, d, E = 1, 6, 4, 2
    w_r = np.zeros((2 * d, E))
    rng = np.random.default_rng(0)
    x_norm, t_emb = make_inputs(rng, B, S, d)
    (dec,), _ = route_full(x_norm, t_emb, w_r, 1.0)
    cap = capacity_for(S, E, 1.0)
    for e in range(E):
        np.testing.assert_array_equal(np.sort(dec.top_indices[e]), np.arange(cap))
    np.testing.assert_allclose(dec.affinity, 1.0 / E, atol=1e-12)


def test_full_capacity_every_token_selected_and_gates_sum_to_one():
    B, S, d, E, C = 1, 4, 4, 2, 2.0  # capacity = ceil(2*4/2) = 4 = S
    rng = np.random.default_rng(1)
    w_r = rng.normal(size=(2 * d, E))
    x_norm, t_emb = make_inputs(rng, B, S, d)
    (dec,), _ = route_full(x_norm, t_emb, w_r, C)
    assert dec.capacity == S
    for e in range(E):
        np.testing.assert_array_equal(np.sort(dec.top_indices[e]), np.arange(S))
    # Each token picked by both experts; its raw softmax row sums to 1, so
    # normalized gates sum to 1/(1+eps)-ish.
    per_token = np.zeros(S)
    np.add.at(per_token, dec.top_indices.reshape(-1), dec.gates.reshape(-1))
    np.testing.assert_allclose(per_token, 1.0, atol=1e-5)


def test_exact_utilization_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        B = int(rng.integers(1, 3))
        S = int(rng.integers(2, 33))
        E = int(rng.integers(1, 9))
        C = float(rng.uniform(0.5, 8.0))
        d = int(rng.integers(2, 9))
        w_r = rng.normal(size=(2 * d, E))
        x_norm, t_emb = make_inputs(rng, B, S, d)
        cap = capacity_for(S, E, C)
        decisions, _ = route_full(x_norm, t_emb, w_r, C)
        for dec in decisions:
            assert dec.top_indices.shape == (E, cap)
            for e in range(E):
                row = dec.top_indices[e]
                assert len(set(row.tolist())) == cap
                assert row.min() >= 0 and row.max() < S


def test_gate_normalization_identity():
    rng = np.random.default_rng(3)
    d, E, S = 6, 4, 10
    w_r = rng.normal(size=(2 * d, E))
    x_norm, t_emb = make_inputs(rng, 1, S, d)
    (dec,), _ = route_full(x_norm, t_emb, w_r, 2.0)
    totals = np.zeros(S)
    np.add.at(totals, dec.top_indices.reshape(-1), dec.affinity.reshape(-1))
    gate_sums = np.zeros(S)
    np.add.at(gate_sums, dec.top_indices.reshape(-1), dec.gates.reshape(-1))
    selected = np.unique(dec.top_indices.reshape(-1))
    expected = totals[selected] / (totals[selected] + GATE_EPS)
    np.testing.assert_allclose(gate_sums[selected], expected, rtol=0, atol=1e-12)


def test_timestep_can_flip_selection():
    # Crafted flip: two tokens whose expert-0 score depends on which OTHER
    # expert the timestep channel suppresses. Token A carries a large
    # expert-1 logit, token B a large expert-2 logit; suppressing expert 1
    # makes A the expert-0 winner, suppressing expert 2 makes it B.
    d, E = 3, 3
    w_r = np.zeros((2 * d, E))
    w_r[:d] = 10.0 * np.eye(3)
    w_r[d:] = -20.0 * np.eye(3)
    x_norm = np.array([[[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]])
    t_a = np.array([[0.0, 1.0, 0.0]])
    t_b = np.array([[0.0, 0.0, 1.0]])
    (dec_a,), _ = route_full(x_norm, t_a, w_r, 1.0)
    (dec_b,), _ = route_full(x_norm, t_b, w_r, 1.0)
    assert dec_a.top_indices[0, 0] == 0
    assert dec_b.top_indices[0, 0] == 1
    assert not np.array_equal(dec_a.top_indices, dec_b.top_indices)


def test_route_deterministic_bitwise():
    rng = np.random.default_rng(11)
    d, E, S = 5, 4, 12
    w_r = rng.normal(size=(2 * d, E))
    x_norm, t_emb = make_inputs(rng, 2, S, d)
    a, _ = route_full(x_norm, t_emb, w_r, 1.5)
    b, _ = route_full(x_norm, t_emb, w_r, 1.5)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.top_indices, db.top_indices)
        np.testing.assert_array_equal(da.gates, db.gates)
        np.testing.assert_array_equal(da.logits, db.logits)
        np.testing.assert_array_equal(da.affinity, db.affinity)


def test_router_weight_shape_validated():
    d, E = 4, 2
    x_norm, t_emb = make_inputs(np.random.default_rng(12), 1, 3, d)
    with pytest.raises(ConfigError):  # (d, E) instead of (2d, E)
        route_full(x_norm, t_emb, np.zeros((d, E)), 1.0)


def test_route_full_gates_are_one_gather_of_dense_totals():
    rng = np.random.default_rng(13)
    B, S, d, E, C = 2, 10, 4, 4, 2.0
    w_r = rng.normal(size=(2 * d, E))
    x_norm, t_emb = make_inputs(rng, B, S, d)
    with Tape() as tape:
        _, routing = route_full(x_norm, t_emb, w_r, C)
    assert tape.nodes == []   # routing runs on arrays, off the tape
    cap = capacity_for(S, E, C)
    gates = routing["gates"]
    assert gates.shape == (E, B * cap, 1)  # one block of slots per expert
    gates = gates.reshape(E * B * cap)
    # per-slot oracle: the slot's score over the scores of every expert
    # that claimed the same token
    scores = np.exp(routing["logits"])
    scores /= scores.sum(axis=-1, keepdims=True)
    scores = scores.reshape(B * S, E)
    token = routing["token_flat"]
    expert = np.repeat(np.arange(E), B * cap)
    for i in range(token.size):
        claimers = expert[token == token[i]]
        expect = scores[token[i], expert[i]] / (scores[token[i], claimers].sum() + GATE_EPS)
        np.testing.assert_allclose(gates[i], expect, rtol=1e-12)
    claimed = np.zeros((B * S, E), bool)
    claimed[token, expert] = True
    assert routing["claimed"].tobytes() == claimed.reshape(B, S, E).tobytes()


@pytest.mark.parametrize("C", [4.0, 1.5], ids=["full_capacity", "partial_capacity"])
@pytest.mark.parametrize("seed", [40, 41])
def test_route_full_and_pullback_are_bitwise_the_taped_chain(seed, C):
    """route_full's arrays, and route_pullback's three gradients of a
    weighted sum of the gates, against route_chain's values and backward."""
    rng = np.random.default_rng(seed)
    B, S, d, E = 2, 12, 5, 4
    x_norm, t_emb = make_inputs(rng, B, S, d)
    w_r = rng.normal(size=(2 * d, E))
    decisions, routing = route_full(x_norm, t_emb, w_r, C)
    weight = rng.normal(size=routing["gates"].shape)
    leaves = [Tensor(a, requires_grad=True) for a in (x_norm, t_emb, w_r)]
    with Tape() as tape:
        decisions_c, routing_c = route_chain(*leaves, C)
        loss = nt.sum(nt.mul(routing_c["gates"], Tensor(weight)))
    backward(tape, loss)
    assert (capacity_for(S, E, C) == S) is (C == 4.0)
    for key in ("gates", "logits"):
        assert routing[key].tobytes() == routing_c[key].data.tobytes(), key
    assert routing["token_flat"].tobytes() == routing_c["token_flat"].tobytes()
    for a, b in zip(decisions, decisions_c, strict=True):
        for f in ("top_indices", "affinity", "gates", "logits"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
    grads = route_pullback(weight, x_norm, t_emb, w_r, routing["scores"], routing["claimed"],
                           routing["token_flat"])
    for g, leaf, name in zip(grads, leaves, ("x_norm", "t_emb", "w_r"), strict=True):
        assert g.tobytes() == leaf.grad.tobytes(), name
