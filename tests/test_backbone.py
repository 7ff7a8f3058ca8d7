import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from nimg import moe
from nimg import tensor as nt
from nimg.backbone import (ATTENTION_TILE, ModelConfig, MoEDiT, fused_gate_res_ln_scale,
                           fused_gated_residual, fused_ln_scale, fused_rms_modulate,
                           joint_attention, qk_norm_rope, rope_tables, trunc_normal)
from nimg.router import StageId
from nimg.tensor import ShapeError, Tape, Tensor, backward
from oracles import grad_check, layernorm, rope_apply_grid, tanh, trunc_normal_loop
from reference_model import attention_loop, reference_forward, rms_norm, rope_loop

PROMPTS = ["red cat under the old tree", "a quiet river"]


def latent(rng, shape=(2, 4, 8, 8)):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def randomise_modulation(model, rng, std=0.3):
    for name, p in model.named_parameters().items():
        if "mod." in name:
            p.data = std * rng.standard_normal(p.shape)


def velocity(model, z, t):
    ctx = model.precompute_text_kv(PROMPTS)
    return model.forward(z, t, ctx, StageId.S256)[0]


def with_and_without_blocks(model, z, t):
    blocks = model.blocks
    with nt.no_grad():
        full = velocity(model, z, t).data
        model.blocks = []
        bare = velocity(model, z, t).data
    model.blocks = blocks
    return full, bare


def test_blocks_are_identities_at_zero_modulation_init():
    rng = np.random.default_rng(0)
    model = MoEDiT(ModelConfig())
    assert [blk.dense for blk in model.blocks] == [True, True, True, False]
    z, t = latent(rng), rng.uniform(0.0, 1.0, 2)
    full, bare = with_and_without_blocks(model, z, t)
    np.testing.assert_array_equal(full, bare)
    randomise_modulation(model, rng)
    full, bare = with_and_without_blocks(model, z, t)
    assert not np.allclose(full, bare)


def test_forward_uses_the_capacity_schedule(monkeypatch):
    model = MoEDiT(ModelConfig(n_layers=6))
    assert [blk.dense for blk in model.blocks] == [True] * 3 + [False] * 3
    seen, route_full = [], moe.route_full

    def spy(x_norm, t_emb, w_r, capacity_factor):
        seen.append(capacity_factor)
        return route_full(x_norm, t_emb, w_r, capacity_factor)

    monkeypatch.setattr(moe, "route_full", spy)
    z = latent(np.random.default_rng(4))
    for stage, want in ((StageId.S1024, [4.0, 4.0, 2.0]), (StageId.S256, [8.0] * 3)):
        seen.clear()
        with nt.no_grad():
            model.forward(z, 0.5, model.precompute_text_kv(PROMPTS), stage)
        assert seen == want, stage


def test_unpatchify_inverts_patchify():
    rng = np.random.default_rng(1)
    model = MoEDiT(ModelConfig())
    z = latent(rng, (3, 4, 8, 6))
    tokens, grid = model.patchify(z)
    assert tokens.shape == (3, 12, 16) and grid == (4, 3)
    back = model.unpatchify(tokens, grid, z.shape)
    assert back.data.tobytes() == z.data.tobytes()


def test_whole_model_directional_fd():
    rng = np.random.default_rng(2)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    params = list(model.named_parameters().values())
    z, t = latent(rng), rng.uniform(0.0, 1.0, 2)
    target = latent(rng)

    def loss_fn():
        diff = nt.sub(velocity(model, z, t), target)
        return nt.mean(nt.mul(diff, diff))

    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    v = [rng.standard_normal(p.shape) for p in params]
    norm = math.sqrt(sum(float((x * x).sum()) for x in v))
    analytic = sum(float((p.grad * x).sum()) for p, x in zip(params, v)) / norm

    eps = 1e-5
    saved = [p.data for p in params]

    def loss_at(step):
        for p, base, x in zip(params, saved, v):
            p.data = base + (step / norm) * x
        with nt.no_grad():
            return loss_fn().item()

    numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    assert abs(numeric - analytic) / max(abs(numeric), abs(analytic)) <= 1e-6


def test_text_kv_computed_once_across_denoising_steps():
    rng = np.random.default_rng(3)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    z, K = latent(rng), 4
    with nt.no_grad():
        ctx = model.precompute_text_kv(PROMPTS)
        for k in range(K):
            vel, _ = model.forward(z, 1.0 - k / K, ctx, StageId.S1024)
            z = Tensor(z.data - vel.data / K, dtype=np.float64)
    assert np.isfinite(z.data).all()
    assert model.text_kv_recompute_count == 1


def test_forward_is_equivariant_under_batch_permutation():
    # bitwise: every op treats batch rows independently, in the same order
    rng = np.random.default_rng(5)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    prompts = ["red cat under the old tree", "a quiet river", "blue boat"]
    z, t = rng.standard_normal((3, 4, 8, 8)), rng.uniform(0.0, 1.0, 3)
    perm = [2, 0, 1]
    with nt.no_grad():
        vel = model.forward(Tensor(z, dtype=np.float64), t,
                            model.precompute_text_kv(prompts), StageId.S256)[0]
        vel_p = model.forward(Tensor(z[perm], dtype=np.float64), t[perm],
                              model.precompute_text_kv([prompts[i] for i in perm]),
                              StageId.S256)[0]
    assert vel_p.data.tobytes() == vel.data[perm].tobytes()


@pytest.mark.parametrize("stage", list(StageId), ids=lambda s: s.name)
@pytest.mark.parametrize("prompts", [PROMPTS, ["", "  "]], ids=["padded", "all_empty"])
@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(n_layers=6, n_experts=8)],
                         ids=["default", "six_layers_eight_experts"])
def test_forward_matches_reference_model(cfg, prompts, stage):
    # The default config routes at full capacity at every stage; the second
    # one makes experts choose (capacity 8 or 4 of 16 tokens) at S512/S1024.
    rng = np.random.default_rng(16)
    model = MoEDiT(cfg)
    randomise_modulation(model, rng)
    z, t = latent(rng), rng.uniform(0.0, 1.0, 2)
    with nt.no_grad():
        ctx = model.precompute_text_kv(prompts)
        vel = model.forward(z, t, ctx, stage)[0]
    assert ctx.mask.shape == (2, 6 if prompts is PROMPTS else 0)
    np.testing.assert_allclose(vel.data, reference_forward(model, z.data, t, prompts, stage),
                               rtol=1e-12, atol=0)


def test_empty_prompts_under_a_tape_give_zero_text_projection_grads():
    rng = np.random.default_rng(18)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    z, t, target = latent(rng), rng.uniform(0.0, 1.0, 2), latent(rng)
    with Tape() as tape:
        vel = model.forward(z, t, model.precompute_text_kv(["", ""]), StageId.S256)[0]
        diff = nt.sub(vel, target)
        loss = nt.mean(nt.mul(diff, diff))
    backward(tape, loss)
    for name, p in model.named_parameters().items():
        assert p.grad is not None and np.isfinite(p.grad).all(), name
    for blk in model.blocks:
        for w in (blk.wk_txt, blk.wv_txt):
            assert w.grad.shape == w.shape and not w.grad.any()


def test_tensor_timestep_gives_the_plain_array_velocity():
    rng = np.random.default_rng(24)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    z, t = latent(rng), rng.uniform(0.0, 1.0, 2)
    with nt.no_grad():
        for plain in (t, 0.5):
            want = velocity(model, z, plain).data.tobytes()
            assert velocity(model, z, Tensor(plain)).data.tobytes() == want


def test_text_context_does_not_keep_its_model_alive():
    model = MoEDiT(ModelConfig())
    ctx = model.precompute_text_kv(PROMPTS)
    alive = weakref.ref(model)
    del model
    gc.collect()
    assert alive() is None
    with pytest.raises(ShapeError, match="ctx"), nt.no_grad():  # a new model is another one
        MoEDiT(ModelConfig()).forward(latent(np.random.default_rng(25)), 0.5, ctx,
                                      StageId.S256)


def test_zero_d_timestep_is_a_scalar_and_other_shapes_raise():
    rng = np.random.default_rng(6)
    model = MoEDiT(ModelConfig())
    randomise_modulation(model, rng)
    z = latent(rng)
    with nt.no_grad():
        scalar = velocity(model, z, 0.5).data
        assert velocity(model, z, np.array(0.5)).data.tobytes() == scalar.tobytes()
        assert velocity(model, z, 0.25).data.tobytes() != scalar.tobytes()
        with pytest.raises(ShapeError, match="timestep t"):
            velocity(model, z, np.full(3, 0.5))


def over_tokens(m, like):
    """(B, d) modulation broadcast over the tokens of a (B, S, d) tensor."""
    B, _, d = like.shape
    return nt.broadcast_to(nt.reshape(m, (B, 1, d)), like.shape)


def gated_residual(x, g, r):
    return nt.add(x, nt.mul(over_tokens(tanh(g), x), r))


def ln_scale(x, s):
    return nt.mul(layernorm(x), nt.add(over_tokens(s, x), 1.0))


def ln_modulate(x, s, shift):
    return nt.add(ln_scale(x, s), over_tokens(shift, x))


def gate_res_ln_scale(x, g, r, s):
    h = gated_residual(x, g, r)
    return h, ln_scale(h, s)


def rms_modulate_chain(h, s, c):
    """The chain fused_rms_modulate replaces, as the model recorded it."""
    n = nt.mul(nt.rmsnorm(h), c)
    return n, nt.mul(n, nt.add(nt.reshape(s, (s.shape[0], 1, -1)), 1.0))


RMS_C = 1.0 / math.sqrt(4.0)
X, M = (2, 3, 4), (2, 4)
FUSED_OPS = {  # fused op, its composition from tensor ops, input shapes
    "fused_gated_residual": (lambda *a: (fused_gated_residual(*a),),
                             lambda *a: (gated_residual(*a),), (X, M, X)),
    "fused_ln_scale": (lambda *a: (fused_ln_scale(*a),),
                       lambda *a: (ln_modulate(*a),), (X, M, M)),
    "fused_gate_res_ln_scale": (fused_gate_res_ln_scale, gate_res_ln_scale,
                                (X, M, X, M)),
    "fused_rms_modulate": (lambda h, s: fused_rms_modulate(h, s, RMS_C),
                           lambda h, s: rms_modulate_chain(h, s, RMS_C), (X, M)),
}


@pytest.mark.parametrize("name", FUSED_OPS)
def test_fused_modulation_op_matches_composition_and_fd(name):
    fused, composed, shapes = FUSED_OPS[name]
    rng = np.random.default_rng(7)
    args = [Tensor(rng.standard_normal(s)) for s in shapes]
    outs = fused(*args)
    for f, c in zip(outs, composed(*args), strict=True):
        np.testing.assert_allclose(f.data, c.data, rtol=1e-12, atol=1e-14)
    weights = [Tensor(rng.standard_normal(o.shape)) for o in outs]
    for i in range(len(args)):
        def loss(p, i=i):
            total = Tensor(0.0)
            for o, w in zip(fused(*args[:i], p, *args[i + 1:]), weights):
                total = nt.add(total, nt.sum(nt.mul(o, w)))
            return total

        rep = grad_check(loss, args[i], h=1e-5)
        assert rep.max_rel_err <= 1e-6, (name, i, rep.max_rel_err)


def test_fused_rms_modulate_is_bitwise_the_chain():
    """Values and the gradients of h and ff_scale are bitwise the chain's
    when, as in the model, both outputs feed later ops, n's first."""
    rng = np.random.default_rng(26)
    h0, s0 = rng.standard_normal((2, 5, 8)), rng.standard_normal((2, 8))
    w_n, w_m = (Tensor(rng.standard_normal((8, 3))) for _ in range(2))
    results = []
    for op in (fused_rms_modulate, rms_modulate_chain):
        h, s = Tensor(h0, requires_grad=True), Tensor(s0, requires_grad=True)
        with Tape() as tape:
            n, m = op(h, s, RMS_C)
            y_n, y_m = nt.matmul(n, w_n), nt.matmul(m, w_m)
            loss = nt.add(nt.sum(y_n), nt.sum(y_m))
        backward(tape, loss)
        results.append([a.tobytes() for a in (n.data, m.data, h.grad, s.grad)])
    assert results[0] == results[1]


def normed_rotated(x, pos_h, pos_w):
    """Per-head RMS norm, then the pair rotation loop: what joint_attention
    does to its raw image queries and keys."""
    return rope_loop(np.apply_along_axis(rms_norm, -1, x), pos_h, pos_w)


def attention_case(rng, B, S_i, S_t, H_kv, n_rep, d_h):
    """Raw attention inputs, and grid positions for the S_i image tokens."""
    arrays = {"q": rng.standard_normal((B, S_i, H_kv * n_rep, d_h)),
              "k_img": rng.standard_normal((B, S_i, H_kv, d_h)),
              "v_img": rng.standard_normal((B, S_i, H_kv, d_h)),
              "k_txt": rng.standard_normal((B, S_t, H_kv, d_h)),
              "v_txt": rng.standard_normal((B, S_t, H_kv, d_h))}
    return arrays, np.arange(S_i) // 3, np.arange(S_i) % 3


def attention_expected(arrays, mask, pos_h, pos_w):
    """attention_loop on the normed and rotated image queries and keys."""
    a = dict(arrays, q=normed_rotated(arrays["q"], pos_h, pos_w),
             k_img=normed_rotated(arrays["k_img"], pos_h, pos_w))
    return attention_loop(*a.values(), mask)


@pytest.mark.parametrize("with_text", [True, False], ids=["text", "no_text"])
@pytest.mark.parametrize("n_rep", [1, 2, 4])
def test_joint_attention_matches_per_head_loop(n_rep, with_text):
    rng = np.random.default_rng(10)
    arrays, pos_h, pos_w = attention_case(rng, 2, 5, 3 if with_text else 0, 2, n_rep, 4)
    mask = np.array([[True, True, True], [True, False, False]])[:, :arrays["k_txt"].shape[1]]
    rope = rope_tables(pos_h, pos_w, 5, 4)

    def attend(**over):
        ts = {n: over.get(n, Tensor(a)) for n, a in arrays.items()}
        return joint_attention(**ts, text_mask=mask, cos=rope[0], sin=rope[1])

    expect = attention_expected(arrays, mask, pos_h, pos_w)
    np.testing.assert_allclose(attend().data, expect, rtol=1e-12, atol=1e-14)
    w = Tensor(rng.standard_normal(expect.shape))
    # h = 3e-5: the RMS norm leaves raw-q elements with gradients near 1e-5,
    # on which the rounding error of h = 1e-5 differences is 1e-6 relative
    for name in ("q", "k_img", "v_txt" if with_text else "v_img"):
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(attend(**{name: p}), w)),
                         Tensor(arrays[name]), h=3e-5)
        assert rep.max_rel_err <= 1e-6, (name, rep.max_rel_err)


@pytest.mark.parametrize("n_rep", [1, 4])
def test_joint_attention_across_query_tiles_matches_per_head_loop(n_rep):
    """Two full query tiles and a ragged third per sample, padded text.
    Differences cover every text value row, and the query and image key rows
    on either side of each tile boundary: a query row's gradient comes from
    its own tile, and every key row's sums over all tiles."""
    rng = np.random.default_rng(18)
    S_i = 2 * ATTENTION_TILE + 3
    arrays, pos_h, pos_w = attention_case(rng, 2, S_i, 3, 1, n_rep, 4)
    mask = np.array([[True, False, True], [True, True, False]])
    rope = rope_tables(pos_h, pos_w, S_i, 4)

    def attend(**over):
        ts = {n: over.get(n, Tensor(a)) for n, a in arrays.items()}
        return joint_attention(**ts, text_mask=mask, cos=rope[0], sin=rope[1])

    expect = attention_expected(arrays, mask, pos_h, pos_w)
    np.testing.assert_allclose(attend().data, expect, rtol=1e-12, atol=1e-14)
    w = Tensor(rng.standard_normal(expect.shape))
    edges = np.zeros((1, S_i, 1, 1), bool)
    edges[:, [ATTENTION_TILE - 1, ATTENTION_TILE, 2 * ATTENTION_TILE - 1,
              2 * ATTENTION_TILE, S_i - 1]] = True
    for name, where in (("q", edges), ("k_img", edges), ("v_txt", None)):
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(attend(**{name: p}), w)),
                         Tensor(arrays[name]), h=1e-5, where=where)
        assert rep.max_rel_err <= 1e-6, (name, rep.max_rel_err)


def test_rope_apply_grid_matches_pair_rotation_loop():
    rng = np.random.default_rng(11)
    B, H, d_h = 2, 3, 8
    pos_h, pos_w = np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)
    x = rng.standard_normal((B, pos_h.size, H, d_h))
    out = rope_apply_grid(Tensor(x), pos_h, pos_w).data
    expect = rope_loop(x, pos_h, pos_w)
    np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-15)
    pair_norm = lambda a: np.hypot(a[..., 0::2], a[..., 1::2])
    np.testing.assert_allclose(pair_norm(out), pair_norm(x), rtol=1e-12)


# image grid positions (3 x 4 tokens) and text positions (height 0, width = index)
ROPE_POSITIONS = {"grid": (np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)),
                  "text": (np.zeros(12), np.arange(12))}


def rope_of(pos_h, pos_w, d_h=8):
    """The angle tables qk_norm_rope takes, for (S,) positions."""
    return rope_tables(pos_h, pos_w, len(pos_h), d_h)


@pytest.mark.parametrize("where", ROPE_POSITIONS)
def test_qk_norm_rope_is_bitwise_the_composition(where):
    pos_h, pos_w = ROPE_POSITIONS[where]
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, pos_h.size, 3, 8))
    w = Tensor(rng.standard_normal(x.shape))
    results = []
    for op in (lambda t, *p: qk_norm_rope(t, *rope_of(*p)),
               lambda t, *p: rope_apply_grid(nt.rmsnorm(t), *p)):
        leaf = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = op(leaf, pos_h, pos_w)
            loss = nt.sum(nt.mul(out, w))
        backward(tape, loss)
        results.append((out.data.tobytes(), leaf.grad.tobytes()))
    (out, grad), (out_composed, grad_composed) = results
    assert out == out_composed
    assert grad == grad_composed


def test_qk_norm_rope_matches_per_head_norm_and_pair_rotation_loop():
    rng = np.random.default_rng(20)
    pos_h, pos_w = ROPE_POSITIONS["grid"]
    x = rng.standard_normal((2, pos_h.size, 3, 8))
    normed = np.apply_along_axis(rms_norm, -1, x)
    out = qk_norm_rope(Tensor(x), *rope_of(pos_h, pos_w)).data
    np.testing.assert_allclose(out, rope_loop(normed, pos_h, pos_w), rtol=1e-12, atol=1e-15)
    pair_norm = lambda a: np.hypot(a[..., 0::2], a[..., 1::2])
    np.testing.assert_allclose(pair_norm(out), pair_norm(normed), rtol=1e-12)


def test_qk_norm_rope_gradient_vs_fd():
    rng = np.random.default_rng(21)
    pos_h, pos_w = np.repeat(np.arange(2), 3), np.tile(np.arange(3), 2)
    x = Tensor(rng.standard_normal((2, pos_h.size, 2, 8)))
    w = Tensor(rng.standard_normal(x.shape))
    rope = rope_of(pos_h, pos_w)
    rep = grad_check(lambda p: nt.sum(nt.mul(qk_norm_rope(p, *rope), w)), x, h=1e-5)
    assert rep.max_rel_err <= 1e-6, rep.max_rel_err


def test_taped_qk_norm_rope_keeps_only_inverse_rms_and_tables():
    rng = np.random.default_rng(22)
    B, H, d_h = 2, 4, 32
    pos_h, pos_w = np.repeat(np.arange(16), 16), np.tile(np.arange(16), 16)
    S = pos_h.size
    x = Tensor(rng.standard_normal((B, S, H, d_h)), requires_grad=True)
    rope = rope_of(pos_h, pos_w, d_h)   # built once per forward, outside the node
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:   # the tape keeps the node, and so its closure, alive
            out = qk_norm_rope(x, *rope)
        held = tracemalloc.get_traced_memory()[0] - before
        assert len(tape.nodes) == 1
    finally:
        tracemalloc.stop()
    kept = out.data.nbytes + B * S * H * 8   # output and inv; the tables are the caller's
    assert held <= kept + 16 * 1024, (held, kept)


def test_forward_records_qk_norm_rope_for_text_keys_only():
    """Text keys get their own qk_norm_rope node, once per prompt set; the
    image queries and keys are normed and rotated inside joint_attention,
    and the MoE router-input norm inside fused_rms_modulate, so no rmsnorm
    node is left."""
    rng = np.random.default_rng(23)
    model = MoEDiT(ModelConfig())
    with Tape() as text_tape:
        ctx = model.precompute_text_kv(PROMPTS)
    with Tape() as tape:
        model.forward(latent(rng), rng.uniform(0.0, 1.0, 2), ctx, StageId.S256)
    text_ops = [n.op for n in text_tape.nodes]
    ops = [n.op for n in tape.nodes]
    assert text_ops.count("qk_norm_rope") == len(model.blocks)
    assert "qk_norm_rope" not in ops
    assert not {"rotate_pairs", "rmsnorm"} & set(text_ops + ops)
    assert ops.count("fused_rms_modulate") == sum(not blk.dense for blk in model.blocks)
    made_by = {id(o): n.op for n in text_tape.nodes + tape.nodes for o in n.outputs}
    for node in (n for n in tape.nodes if n.op == "joint_attention"):
        q, k_img, _, k_txt, _ = node.inputs
        assert [made_by[id(t)] for t in (q, k_img, k_txt)] == ["reshape", "reshape",
                                                              "qk_norm_rope"]


def test_no_taped_forward_records_a_broadcast_or_concat():
    """The router adds its per-sample timestep term to the token logits by
    broadcasting, and the timestep features are data, so no op materialises
    a broadcast or joins tensors."""
    rng = np.random.default_rng(12)
    model = MoEDiT(ModelConfig(n_layers=6))
    with Tape() as text_tape:
        ctx = model.precompute_text_kv(PROMPTS)
    with Tape() as tape:
        model.forward(latent(rng), rng.uniform(0.0, 1.0, 2), ctx, StageId.S256)
    ops = [n.op for n in text_tape.nodes + tape.nodes]
    assert "broadcast_to" not in ops and "concat" not in ops
    # one SwiGLU path: a routed-and-shared expert node per MoE layer, and
    # swiglu nodes only for the dense FFNs
    assert ops.count("grouped_forward") == sum(not blk.dense for blk in model.blocks) == 3
    assert ops.count("swiglu") == sum(blk.dense for blk in model.blocks) == 3


DESK = ModelConfig(n_layers=8, d_model=128, n_q_heads=4, n_kv_heads=1, head_dim=32,
                   n_experts=16, expert_hidden=128)


def test_desk_training_step_records_261_nodes():
    """The train_desk step (text K/V, forward and MSE loss on one tape) at
    the desk model; the node count does not depend on the latent size."""
    rng = np.random.default_rng(28)
    model = MoEDiT(DESK)
    z, target = latent(rng), latent(rng)
    with Tape() as tape:
        ctx = model.precompute_text_kv(["red cat under the old tree by a river"] * 2)
        diff = nt.sub(model.forward(z, rng.uniform(0.0, 1.0, 2), ctx, StageId.S256)[0],
                      target)
        nt.mean(nt.mul(diff, diff))
    ops = [n.op for n in tape.nodes]
    n_moe = sum(not blk.dense for blk in model.blocks)
    assert len(ops) == 261
    assert ops.count("fused_ln_scale") == len(model.blocks) + 1    # every block, final layer
    assert ops.count("fused_rms_modulate") == ops.count("grouped_forward") == n_moe == 5
    assert ops.count("qk_norm_rope") == ops.count("joint_attention") == len(model.blocks)


def test_forward_records_one_fused_attention_node_per_block():
    rng = np.random.default_rng(13)
    model = MoEDiT(ModelConfig())
    with Tape() as tape:
        velocity(model, latent(rng), rng.uniform(0.0, 1.0, 2))
    attention = [n for n in tape.nodes if n.op == "joint_attention"]
    assert len(attention) == len(model.blocks)
    # the routers' softmaxes are the only ones left
    n_moe = sum(not blk.dense for blk in model.blocks)
    assert sum(n.op == "softmax" for n in tape.nodes) == n_moe
    for node in attention:
        assert len(node.inputs) == 5  # q, image K/V, text K/V
        for kv in node.inputs[1:]:
            consumers = [m.op for m in tape.nodes if any(i is kv for i in m.inputs)]
            assert consumers == ["joint_attention"]


def test_forward_records_one_grouped_forward_node_per_moe_layer():
    """The routed FFN is one node: no combine scatter and no (E, B*cap, d)
    expert-row array on the tape."""
    rng = np.random.default_rng(18)
    model = MoEDiT(ModelConfig())
    with Tape() as tape:
        velocity(model, latent(rng), rng.uniform(0.0, 1.0, 2))
    grouped = [n for n in tape.nodes if n.op == "grouped_forward"]
    assert len(grouped) == sum(not blk.dense for blk in model.blocks)
    assert not any(n.op == "scatter_add_rows" for n in tape.nodes)
    d = model.cfg.d_model
    expert_rows = {node.inputs[1].shape[:2] + (d,) for node in grouped}  # gates (E, B*cap, 1)
    assert not any(o.shape in expert_rows for n in tape.nodes for o in n.outputs)


def attention_inputs(rng):
    """q, k/v img, k/v txt, a text mask padding sample 1 and the image rope
    tables; 2 queries per kv head."""
    q = Tensor(rng.standard_normal((2, 5, 4, 4)), requires_grad=True)
    kv = [Tensor(rng.standard_normal((2, S, 2, 4)), requires_grad=True)
          for S in (5, 5, 4, 4)]
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    return q, *kv, mask, *rope_tables(np.arange(5) // 2, np.arange(5) % 2, 5, 4)


def test_padded_text_positions_get_zero_kv_gradient():
    rng = np.random.default_rng(14)
    q, k_img, v_img, k_txt, v_txt, mask, cos, sin = attention_inputs(rng)
    with Tape() as tape:
        out = joint_attention(q, k_img, v_img, k_txt, v_txt, mask, cos, sin)
        loss = nt.sum(nt.mul(out, Tensor(rng.standard_normal(out.shape))))
    backward(tape, loss)
    for t in (k_txt, v_txt):
        assert not t.grad[~mask].any()  # exactly zero, not merely small
        assert t.grad[mask].all()
    for t in (q, k_img, v_img):
        assert t.grad.all()


def test_joint_attention_no_grad_is_bitwise_the_taped_output():
    rng = np.random.default_rng(15)
    args = attention_inputs(rng)
    with Tape() as tape:
        taped = joint_attention(*args)
    assert [n.op for n in tape.nodes] == ["joint_attention"]
    with nt.no_grad():
        plain = joint_attention(*args)
    assert not plain.requires_grad
    assert plain.data.tobytes() == taped.data.tobytes()


def held_by_tape(record):
    """Bytes still allocated after record() ran under a fresh tape (which
    keeps each node, and so its closure, alive), and the tape."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            record()
        return tracemalloc.get_traced_memory()[0] - before, tape
    finally:
        tracemalloc.stop()


def test_taped_joint_attention_keeps_no_score_sized_array():
    """Nor any (B, S_i, H, d_h) head array: only the output, each score
    row's max and sum and the inverse RMS of every query and key head."""
    rng = np.random.default_rng(16)
    B, S_i, S_t, H_kv, n_rep, d_h = 1, 256, 16, 1, 2, 32
    q = Tensor(rng.standard_normal((B, S_i, H_kv * n_rep, d_h)), requires_grad=True)
    kv = [Tensor(rng.standard_normal((B, S, H_kv, d_h)), requires_grad=True)
          for S in (S_i, S_i, S_t, S_t)]
    mask = np.arange(S_t)[None, :] < 12
    rope = rope_tables(np.arange(S_i) // 16, np.arange(S_i) % 16, S_i, d_h)  # the caller's
    outs = []
    held, tape = held_by_tape(lambda: outs.append(joint_attention(q, *kv, mask, *rope)))
    assert len(tape.nodes) == 1
    row_stats = 2 * B * H_kv * n_rep * S_i * 8   # each row's max and sum
    inv_rms = B * S_i * (H_kv * n_rep + H_kv) * 8
    kept = held - outs[0].data.nbytes
    assert kept < S_i * (S_i + S_t) * 8   # less than one head's P
    assert kept < kv[0].data.nbytes       # less than the smallest head array
    assert kept <= row_stats + inv_rms + 16 * 1024, kept


@pytest.mark.parametrize("name", ["fused_ln_scale", "fused_gate_res_ln_scale",
                                  "fused_rms_modulate"])
def test_taped_norm_nodes_keep_only_row_statistics(name):
    """No normalising node keeps a (B, S, d) array beyond its outputs: each
    keeps its rows' statistics, (B, S, 1) arrays, and recomputes the rest."""
    fused, _, shapes = FUSED_OPS[name]
    B, S, d = 2, 256, 64
    rng = np.random.default_rng(29)
    args = [Tensor(rng.standard_normal((B, S, d) if s == X else (B, d)), requires_grad=True)
            for s in shapes]
    outs = []
    held, tape = held_by_tape(lambda: outs.extend(fused(*args)))
    assert len(tape.nodes) == 1
    kept = held - sum(o.data.nbytes for o in outs)
    assert kept < B * S * d * 8
    assert kept <= 2 * B * S * 8 + 16 * 1024, kept   # mean and inverse std (LN), or inverse RMS


def test_second_backward_doubles_every_grad_bitwise():
    """Pullbacks recompute from what their node keeps and never write into
    it, so a second backward over one tape adds the first pass's gradients
    again, bit for bit. Every fused node of the model is on the tape."""
    rng = np.random.default_rng(17)
    q, k_img, v_img, k_txt, v_txt, mask, cos, sin = attention_inputs(rng)
    param = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    bank = moe.ExpertBank(param(2, 6, 16), param(2, 6, 16), param(2, 16, 6),  # 2 experts, h = 6
                          param(6, 16), param(6, 16), param(16, 6))
    dense = param(6, 16), param(6, 16), param(16, 6)
    gates = param(2, 3, 1)
    mods = [param(2, 16) for _ in range(6)]
    weigh = lambda y: nt.sum(nt.mul(y, Tensor(rng.standard_normal(y.shape))))
    with Tape() as tape:
        att = joint_attention(q, k_img, v_img, k_txt, v_txt, mask, cos, sin)   # (2, 5, 16)
        a_in = fused_ln_scale(att, mods[0], mods[1])
        h, m = fused_gate_res_ln_scale(att, mods[2], a_in, mods[3])
        x = fused_gated_residual(h, mods[4], m)
        n, x_mod = fused_rms_modulate(x, mods[5], 0.5)
        ffn = moe.swiglu(nt.reshape(m, (10, 16)), *dense)
        grouped = moe.grouped_forward(nt.reshape(x_mod, (10, 16)), [[0, 3, 7], [3, 9, 1]],
                                      gates, bank)
        roped = qk_norm_rope(q, cos, sin)                              # q also feeds attention
        loss = nt.add(nt.add(nt.add(weigh(n), weigh(ffn)), weigh(grouped)), weigh(roped))
    params = (bank.w1, bank.w3, bank.w2, bank.shared_w1, bank.shared_w3, bank.shared_w2)
    tensors = [q, k_img, v_img, k_txt, v_txt, *params, *dense, gates, *mods,
               *(o for node in tape.nodes for o in node.outputs)]
    backward(tape, loss)
    first = [t.grad.copy() for t in tensors]
    backward(tape, loss)
    for t, g in zip(tensors, first):
        assert t.grad.tobytes() == (2.0 * g).tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2), (1,), (7,), (5, 3), (16, 128, 128)],
                         ids=str)
def test_trunc_normal_is_the_whole_mask_loop_bitwise(shape):
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = trunc_normal(rng, shape), trunc_normal_loop(ref, shape)
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()
        assert rng.standard_normal() == ref.standard_normal()   # the same draws were made
        assert np.all(np.abs(got) <= 2.0 * 0.02)
