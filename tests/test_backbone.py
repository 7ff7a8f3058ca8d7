import gc
import inspect
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from nimg import moe
from nimg import tensor as nt
from nimg.backbone import (ATTENTION_TILE, ModelConfig, MoEDiT, fused_gate_res_ln_scale,
                           fused_gated_residual, fused_ln_scale, joint_attention, qk_norm_rope,
                           rope_tables, trunc_normal)
from nimg.router import StageId
from nimg.tensor import ShapeError, Tape, Tensor, backward
from oracles import (assert_lanes_free, fused_rms_modulate, grad_check, layernorm,
                     rope_apply_grid, tanh, trunc_normal_loop)
from reference_model import (attention_loop, layer_norm, reference_forward, rms_norm,
                             rope_loop)

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


def expert_token_sets(aux) -> list[np.ndarray]:
    """Each MoE layer's selection: every expert's sorted token set, per sample."""
    return [np.sort(np.stack([dec.top_indices for dec in decisions]), axis=-1)
            for _, decisions in aux["decisions"]]


def per_tensor_directional_fd(cfg: ModelConfig, stage: StageId, seed: int,
                              step: float = 1e-3, halvings: int = 12) -> dict[str, float]:
    """For each parameter tensor p alone: the relative error between p.grad · v
    and a 4-point central difference of the MSE loss along a random unit
    direction v in p. The stencil's step starts at `step` and is halved
    until every expert selects the same tokens at all four points as at the
    base point, so the difference never crosses a routing decision."""
    rng = np.random.default_rng(seed)
    model = MoEDiT(cfg)
    randomise_modulation(model, rng)
    params = model.named_parameters()
    z, t, target = latent(rng), rng.uniform(0.0, 1.0, 2), latent(rng)

    def run():
        vel, aux = model.forward(z, t, model.precompute_text_kv(PROMPTS), stage)
        diff = nt.sub(vel, target)
        return nt.mean(nt.mul(diff, diff)), expert_token_sets(aux)

    with Tape() as tape:
        loss, base_sets = run()
    backward(tape, loss)
    errors = {}
    for name, p in params.items():
        v = rng.standard_normal(p.shape)
        v /= np.linalg.norm(v)
        analytic = float((p.grad * v).sum())
        base, h = p.data, step
        for _ in range(halvings):
            values = []
            for k in (-2.0, -1.0, 1.0, 2.0):
                p.data = base + (k * h) * v
                with nt.no_grad():
                    value, sets = run()
                values.append(value.item())
                if any(a.tobytes() != b.tobytes() for a, b in zip(sets, base_sets)):
                    break
            else:
                break
            h /= 2.0
        else:
            raise AssertionError(f"{name}: selection moved at every step down to {h:.1e}")
        p.data = base
        fm2, fm1, fp1, fp2 = values
        numeric = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
        errors[name] = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
    return errors


#: Relative-error bounds of per_tensor_directional_fd. Clean runs over seeds
#: 0-11 at S512 and S1024 gave at most 1.3e-4 on the router gates (whose
#: directional derivatives are the smallest) and 3.1e-5 on every other tensor.
FD_TOL_ROUTER, FD_TOL = 1e-3, 2e-4


@pytest.mark.parametrize("stage", [StageId.S512, StageId.S1024], ids=lambda s: s.name)
def test_per_tensor_directional_fd_with_expert_choice(stage):
    """Whole-model gradients where routing is not trivial: 6 layers and 8
    experts over 16 tokens, so each expert takes 8 (S512) or 8, 8 and 4
    (S1024) of them, and the selection and the cross-expert gate normaliser
    get a gradient check. Each parameter tensor is checked alone."""
    errors = per_tensor_directional_fd(ModelConfig(n_layers=6, n_experts=8), stage, seed=0)
    assert len(errors) == 88
    bad = {n: e for n, e in errors.items()
           if e > (FD_TOL_ROUTER if n.endswith("router.gate") else FD_TOL)}
    assert not bad, bad


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
    does to its image queries and keys."""
    return rope_loop(np.apply_along_axis(rms_norm, -1, x), pos_h, pos_w)


ATTENTION_ARGS = ("x", "scale", "shift", "wq", "wk", "wv", "wo", "k_txt", "v_txt")


def attention_case(rng, B, S_i, S_t, H_kv, n_rep, d_h, d=6):
    """joint_attention's tensor inputs as arrays, and grid positions for the
    S_i image tokens. d is not H_q * d_h, so wq and wo are not square."""
    H_q = H_kv * n_rep
    shapes = {"x": (B, S_i, d), "scale": (B, d), "shift": (B, d), "wq": (d, H_q * d_h),
              "wk": (d, H_kv * d_h), "wv": (d, H_kv * d_h), "wo": (H_q * d_h, d),
              "k_txt": (B, S_t, H_kv, d_h), "v_txt": (B, S_t, H_kv, d_h)}
    arrays = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
    return arrays, np.arange(S_i) // 3, np.arange(S_i) % 3


def attention_expected(arrays, mask, pos_h, pos_w):
    """The attention branch by numpy loops: LN modulate, the projections,
    attention_loop on the normed and rotated image queries and keys, W_o."""
    x, k_txt = arrays["x"], arrays["k_txt"]
    B, S_i, _ = x.shape
    d_h = k_txt.shape[3]
    a = np.apply_along_axis(layer_norm, -1, x) * (1.0 + arrays["scale"][:, None])
    a += arrays["shift"][:, None]
    q, k, v = ((a @ arrays[w]).reshape(B, S_i, -1, d_h) for w in ("wq", "wk", "wv"))
    o = attention_loop(normed_rotated(q, pos_h, pos_w), normed_rotated(k, pos_h, pos_w), v,
                       k_txt, arrays["v_txt"], mask)
    return o @ arrays["wo"]


def heads_loop(q, k_img, v_img, k_txt, v_txt, mask, pos_h, pos_w):
    """attention_loop on the tape, from tensor ops: the rmsnorm and RoPE
    composition on the image queries and keys, then per sample and query
    head a scaled, masked softmax over image then text keys."""
    B, S_i, H_q, d_h = q.shape
    H_kv = k_img.shape[2]
    qn, kn = (rope_apply_grid(nt.rmsnorm(t), pos_h, pos_w) for t in (q, k_img))
    k, v = nt.concat([kn, k_txt], axis=1), nt.concat([v_img, v_txt], axis=1)
    valid = np.concatenate([np.ones((B, S_i), bool), mask], axis=1)
    S_kv = valid.shape[1]
    rows = []
    for b, (qb, kb, vb) in enumerate(zip(*(nt.split(t, B) for t in (qn, k, v)))):
        qs = nt.split(qb, H_q, axis=2)
        ks, vs = nt.split(kb, H_kv, axis=2), nt.split(vb, H_kv, axis=2)
        bias = Tensor(np.where(valid[b], 0.0, -np.inf))
        outs = []
        for h in range(H_q):
            j = h // (H_q // H_kv)
            kt = nt.transpose(nt.reshape(ks[j], (S_kv, d_h)), (1, 0))
            s = nt.mul(nt.matmul(nt.reshape(qs[h], (S_i, d_h)), kt), 1.0 / math.sqrt(d_h))
            p = nt.softmax(nt.add(s, bias))
            outs.append(nt.matmul(p, nt.reshape(vs[j], (S_kv, d_h))))
        rows.append(nt.reshape(nt.concat(outs, axis=1), (1, S_i, H_q * d_h)))
    return nt.concat(rows, axis=0)


def attention_composed(x, scale, shift, wq, wk, wv, wo, k_txt, v_txt, mask, pos_h, pos_w):
    """The chain joint_attention folds, from tensor ops: ln_modulate, the
    Q/K/V matmuls and reshapes, heads_loop, the W_o matmul."""
    B, S_i, _ = x.shape
    d_h = k_txt.shape[3]
    a = ln_modulate(x, scale, shift)
    q, k, v = (nt.reshape(nt.matmul(a, w), (B, S_i, w.shape[1] // d_h, d_h))
               for w in (wq, wk, wv))
    return nt.matmul(heads_loop(q, k, v, k_txt, v_txt, mask, pos_h, pos_w), wo)


def weighted_grads(fn, arrays, w):
    """fn's output on leaves made from arrays, and each leaf's gradient of
    sum(output * w)."""
    leaves = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
    with Tape() as tape:
        out = fn(**leaves)
        loss = nt.sum(nt.mul(out, w))
    backward(tape, loss)
    return out.data, {n: t.grad for n, t in leaves.items()}


def check_attention_against_oracles(arrays, mask, pos_h, pos_w, rng):
    """joint_attention's values against the numpy loops and the composition,
    and its nine input gradients against the composition's, at rtol 1e-12.
    Returns the node as a function of its tensors, and an output weight."""
    rope = rope_tables(pos_h, pos_w, arrays["k_txt"].shape[3])

    def attend(**ts):
        return joint_attention(**ts, text_mask=mask, cos=rope[0], sin=rope[1])

    def composed(**ts):
        return attention_composed(**ts, mask=mask, pos_h=pos_h, pos_w=pos_w)

    expect = attention_expected(arrays, mask, pos_h, pos_w)
    w = Tensor(rng.standard_normal(expect.shape))
    (out, grads), (out_c, grads_c) = (weighted_grads(f, arrays, w) for f in (attend, composed))
    np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(out_c, expect, rtol=1e-12, atol=1e-14)
    assert list(grads) == list(ATTENTION_ARGS)
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_c[name], rtol=1e-12, atol=1e-14, err_msg=name)
    return attend, w


@pytest.mark.parametrize("with_text", [True, False], ids=["text", "no_text"])
@pytest.mark.parametrize("n_rep", [1, 2, 4])
def test_joint_attention_matches_per_head_loop(n_rep, with_text):
    rng = np.random.default_rng(10)
    arrays, pos_h, pos_w = attention_case(rng, 2, 5, 3 if with_text else 0, 2, n_rep, 4)
    mask = np.array([[True, True, True], [True, False, False]])[:, :arrays["k_txt"].shape[1]]
    attend, w = check_attention_against_oracles(arrays, mask, pos_h, pos_w, rng)
    tensors = {n: Tensor(a) for n, a in arrays.items()}
    for name in ATTENTION_ARGS:
        if tensors[name].size == 0:
            continue
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(attend(**{**tensors, name: p}), w)),
                         tensors[name], h=1e-5)
        assert rep.max_rel_err <= 1e-6, (name, rep.max_rel_err)


@pytest.mark.parametrize("n_rep", [1, 4])
def test_joint_attention_across_query_tiles_matches_per_head_loop(n_rep):
    """Two full query tiles and a ragged third per sample, padded text.
    Differences cover every text value row, and the image token rows on
    either side of each tile boundary: a token's query gradient comes from
    its own tile, and its key and value gradients sum over all tiles."""
    rng = np.random.default_rng(18)
    S_i = 2 * ATTENTION_TILE + 3
    arrays, pos_h, pos_w = attention_case(rng, 2, S_i, 3, 1, n_rep, 4)
    mask = np.array([[True, False, True], [True, True, False]])
    attend, w = check_attention_against_oracles(arrays, mask, pos_h, pos_w, rng)
    tensors = {n: Tensor(a) for n, a in arrays.items()}
    edges = np.zeros((1, S_i, 1), bool)
    edges[:, [ATTENTION_TILE - 1, ATTENTION_TILE, 2 * ATTENTION_TILE - 1,
              2 * ATTENTION_TILE, S_i - 1]] = True
    for name, where in (("x", edges), ("v_txt", None)):
        rep = grad_check(lambda p, name=name: nt.sum(nt.mul(attend(**{**tensors, name: p}), w)),
                         tensors[name], h=1e-5, where=where)
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
    return rope_tables(pos_h, pos_w, d_h)


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


def test_taped_qk_norm_rope_keeps_nothing_beyond_its_output():
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
    # the tables are the caller's; inv, (B, S, H, 1), would be 16 KB here
    assert held - out.data.nbytes <= 4 * 1024, held - out.data.nbytes


def test_forward_records_qk_norm_rope_for_text_keys_only():
    """Text keys get their own qk_norm_rope node, once per prompt set; the
    image queries and keys are normed and rotated inside joint_attention,
    and the MoE router-input norm inside moe_forward, so no rmsnorm node is
    left."""
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
    assert ops.count("moe_forward") == sum(not blk.dense for blk in model.blocks)
    made_by = {id(o): n.op for n in text_tape.nodes + tape.nodes for o in n.outputs}
    attention = [n for n in tape.nodes if n.op == "joint_attention"]
    assert len(attention) == len(model.blocks)
    for node in attention:   # no image head is an input: x, scale, shift, 4 weights, text K/V
        assert [t.ndim for t in node.inputs] == [3, 2, 2, 2, 2, 2, 2, 4, 4]
        assert made_by[id(node.inputs[7])] == "qk_norm_rope"


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
    # one FFN-half node per block: moe_forward for the MoE layers and
    # dense_ffn_half for the dense ones
    assert ops.count("moe_forward") == sum(not blk.dense for blk in model.blocks) == 3
    assert ops.count("dense_ffn_half") == sum(blk.dense for blk in model.blocks) == 3


DESK = ModelConfig(n_layers=8, d_model=128, n_q_heads=4, n_kv_heads=1, head_dim=32,
                   n_experts=16, expert_hidden=128)


def test_desk_training_step_records_100_nodes():
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
    assert len(ops) == 100
    assert ops.count("fused_ln_scale") == 1    # the final layer; blocks modulate in joint_attention
    assert ops.count("moe_forward") == n_moe == 5
    assert ops.count("dense_ffn_half") == len(model.blocks) - n_moe
    assert ops.count("qk_norm_rope") == ops.count("joint_attention") == len(model.blocks)


def ffn_up_projection_bytes(node, capacity: int) -> int:
    """Bytes of the h1 and h3 an FFN-half node keeps after its forward: one
    pair of (rows, h) arrays per routed expert, each of B * capacity rows,
    and one for the shared expert, or one pair for a dense block."""
    x = node.inputs[0]
    B, S, _ = x.shape
    if node.op == "dense_ffn_half":
        return 2 * B * S * node.inputs[5].shape[0] * 8
    w_r, w1, shared_w1 = node.inputs[6], node.inputs[7], node.inputs[10]
    return 2 * (w_r.shape[1] * B * capacity * w1.shape[1] + B * S * shared_w1.shape[0]) * 8


def test_training_step_releases_every_ffn_up_projection():
    """After backward, with every .grad dropped, the tape holds less than
    after the forward by exactly the FFN-half nodes' up-projections (within
    8 KiB): each node released its h1 and h3 once its pullback had run."""
    rng = np.random.default_rng(40)
    model = MoEDiT(ModelConfig())
    shape = (2, 4, 16, 16)
    z, target = latent(rng, shape), latent(rng, shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            ctx = model.precompute_text_kv(PROMPTS)
            vel, aux = model.forward(z, rng.uniform(0.0, 1.0, 2), ctx, StageId.S256)
            diff = nt.sub(vel, target)
            loss = nt.mean(nt.mul(diff, diff))
        after_forward = tracemalloc.get_traced_memory()[0] - before
        backward(tape, loss)
        for t in {id(t): t for node in tape.nodes for t in node.inputs + node.outputs}.values():
            t.grad = None
        after_backward = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ffn = [node for node in tape.nodes if node.op in ("dense_ffn_half", "moe_forward")]
    assert [node.op == "moe_forward" for node in ffn] == [not blk.dense for blk in model.blocks]
    capacities = iter(decisions[0].capacity for _, decisions in aux["decisions"])
    released = sum(ffn_up_projection_bytes(node, next(capacities) if node.op == "moe_forward"
                                           else 0) for node in ffn)
    assert abs(after_forward - after_backward - released) <= 8 * 1024, (
        after_forward, after_backward, released)


def test_forward_records_one_fused_attention_node_per_block():
    """Each block's attention branch, adaLN modulate to W_o, is one node. Of
    its 12 arguments, the 9 tensors are its inputs: the residual stream, the
    block's shift and scale, its four projections and its text K/V. The
    node is the only reader of all but the residual stream."""
    rng = np.random.default_rng(13)
    model = MoEDiT(ModelConfig())
    with Tape() as tape:
        ctx = model.precompute_text_kv(PROMPTS)
        model.forward(latent(rng), rng.uniform(0.0, 1.0, 2), ctx, StageId.S256)
    assert len(inspect.signature(joint_attention).parameters) == 12
    attention = [n for n in tape.nodes if n.op == "joint_attention"]
    assert len(attention) == len(model.blocks)
    # the routers softmax inside moe_forward, off the tape
    assert not any(n.op == "softmax" for n in tape.nodes)
    made_by = {id(o): n.op for n in tape.nodes for o in n.outputs}
    half = {True: "dense_ffn_half", False: "moe_forward"}
    for blk, node in zip(model.blocks, attention):
        x, scale, shift, *rest = node.inputs
        assert made_by[id(x)] == ("add" if blk.layer == 0
                                  else half[model.blocks[blk.layer - 1].dense])
        assert made_by[id(scale)] == made_by[id(shift)] == "split"
        owned = [blk.wq, blk.wk, blk.wv, blk.wo, ctx.k_txt[blk.layer], ctx.v_txt[blk.layer]]
        assert len(rest) == len(owned) and all(t is o for t, o in zip(rest, owned))
        for t in node.inputs[1:]:
            consumers = [m.op for m in tape.nodes if any(i is t for i in m.inputs)]
            assert consumers == ["joint_attention"]


def test_forward_records_one_ffn_half_node_per_block():
    """Each block records exactly the modulation matmul, add and split,
    joint_attention and one FFN-half node, whose output is the next
    residual stream. Inside a block only r_attn and x' are (B, S, d) node
    outputs: no h, normalised or modulated input, expert output, router
    array or (E, B*cap, d) expert rows is on the tape."""
    rng = np.random.default_rng(18)
    model = MoEDiT(ModelConfig(n_layers=6, n_experts=8))
    z = latent(rng)
    with Tape() as text_tape:
        ctx = model.precompute_text_kv(PROMPTS)
    with Tape() as tape:
        model.forward(z, rng.uniform(0.0, 1.0, 2), ctx, StageId.S1024)
    ops = [n.op for n in tape.nodes]
    first = ops.index("joint_attention") - 3
    per_block = [ops[first + 5 * i:first + 5 * (i + 1)] for i in range(len(model.blocks))]
    for blk, block_ops in zip(model.blocks, per_block):
        half = "dense_ffn_half" if blk.dense else "moe_forward"
        assert block_ops == ["matmul", "add", "split", "joint_attention", half], blk.layer
    block_nodes = tape.nodes[first:first + 5 * len(model.blocks)]
    x_shape = block_nodes[3].outputs[0].shape
    big = [n.op for n in block_nodes for o in n.outputs if o.ndim == 3]
    assert big == ["joint_attention", "dense_ffn_half"] * 3 + ["joint_attention", "moe_forward"] * 3
    assert all(o.shape == x_shape for n in block_nodes for o in n.outputs if o.ndim == 3)
    for i in range(4, len(block_nodes), 5):   # x and r_attn of each FFN half
        attention, half = block_nodes[i - 1], block_nodes[i]
        assert half.inputs[0] is attention.inputs[0]
        assert half.inputs[1] is attention.outputs[0]


def attention_inputs(rng):
    """joint_attention's nine tensors, all requiring grad, then a text mask
    padding sample 1 and the image rope tables: d = 16, 4 query heads over
    2 kv heads of width 4, 5 image and 4 text tokens."""
    p = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    return (p(2, 5, 16), p(2, 16), p(2, 16), p(16, 16), p(16, 8), p(16, 8), p(16, 16),
            p(2, 4, 2, 4), p(2, 4, 2, 4), mask,
            *rope_tables(np.arange(5) // 2, np.arange(5) % 2, 4))


def test_padded_text_positions_get_zero_kv_gradient():
    rng = np.random.default_rng(14)
    args = attention_inputs(rng)
    tensors, (k_txt, v_txt), mask = args[:7], args[7:9], args[9]
    with Tape() as tape:
        out = joint_attention(*args)
        loss = nt.sum(nt.mul(out, Tensor(rng.standard_normal(out.shape))))
    backward(tape, loss)
    for t in (k_txt, v_txt):
        assert not t.grad[~mask].any()  # exactly zero, not merely small
        assert t.grad[mask].all()
    for t in tensors:
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


def test_joint_attention_pullback_that_raises_leaves_a_node_that_runs_again(monkeypatch):
    """A gradient one image row short fails the pullback inside each
    sample's task. On 1, 2 and 3 lanes the ValueError reaches the caller,
    no lane is left busy, and the next backward is bitwise a fresh one's."""
    for lanes in (1, 2, 3):
        monkeypatch.setattr(nt, "LANES", lanes)
        rng = np.random.default_rng(19)
        args = attention_inputs(rng)
        tensors = args[:9]
        weight = Tensor(rng.standard_normal(args[0].shape))
        grads = []
        for fail_first in (False, True):
            for t in tensors:
                t.grad = None
            with Tape() as tape:
                loss = nt.sum(nt.mul(joint_attention(*args), weight))
            if fail_first:
                B, S_i, d = args[0].shape
                with pytest.raises(ValueError) as raised:
                    tape.nodes[0].bwd(np.ones((B, S_i - 1, d)))
                assert raised.type is ValueError, lanes
                assert_lanes_free()
            backward(tape, loss)
            grads.append([t.grad.tobytes() for t in tensors])
        assert grads[0] == grads[1], lanes



def attention_args(rng, B, S_i, S_t, H_kv, n_rep, d_h, d):
    """joint_attention's arguments: attention_case's arrays as tensors that
    require grad, a text mask that pads the last text token of every odd
    sample, and the image rope tables."""
    arrays, pos_h, pos_w = attention_case(rng, B, S_i, S_t, H_kv, n_rep, d_h, d)
    mask = np.arange(S_t)[None, :] < S_t - np.arange(B)[:, None] % 2
    return (*(Tensor(arrays[n], requires_grad=True) for n in ATTENTION_ARGS), mask,
            *rope_tables(pos_h, pos_w, d_h))


@pytest.mark.parametrize("B, S_t", [(1, 4), (3, 4), (2, 0), (3, 0)])
def test_joint_attention_is_bitwise_the_same_on_one_two_and_three_lanes(monkeypatch, B, S_t):
    """Each sample's whole branch is one task: one sample, an odd count of
    samples on two lanes, and no text. The value, all nine input gradients
    and the gradients after a second backward (exactly twice the first:
    the pullback reruns bitwise from the kept statistics) match one
    lane's. Two query tiles per sample."""
    S_i = ATTENTION_TILE + 6
    runs = {}
    interval = sys.getswitchinterval()
    for lanes in (1, 2, 3):
        monkeypatch.setattr(nt, "LANES", lanes)
        rng = np.random.default_rng(30)
        args = attention_args(rng, B, S_i, S_t, H_kv=2, n_rep=2, d_h=4, d=16)
        tensors = args[:9]
        weight = Tensor(rng.standard_normal((B, S_i, 16)))
        if lanes == 3:    # more lanes than CPUs, switching often: the stress case
            sys.setswitchinterval(1e-5)
        try:
            with Tape() as tape:
                out = joint_attention(*args)
                loss = nt.sum(nt.mul(out, weight))
            backward(tape, loss)
            once = [t.grad.copy() for t in tensors]
            backward(tape, loss)
        finally:
            sys.setswitchinterval(interval)
        for t, g in zip(tensors, once):
            assert t.grad.tobytes() == (2.0 * g).tobytes()
        assert [t.grad.shape for t in tensors] == [t.shape for t in tensors]
        runs[lanes] = (out.data.tobytes(), [g.tobytes() for g in once])
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_no_grad_joint_attention_holds_one_sample_at_a_time():
    """On one lane at B = 4, a no-grad call's peak above its output stays
    below two samples' working set (a, q, k, v, the rotated heads and one
    tile's scores): each sample's task drops its arrays before the next
    sample's starts, where a whole-batch forward would hold all four
    samples' q, k and v at once."""
    B, S_i, S_t, d, H_q, H_kv, d_h = 4, 256, 8, 64, 4, 1, 16
    args = attention_args(np.random.default_rng(32), B, S_i, S_t, H_kv, H_q // H_kv, d_h, d)
    with nt.no_grad(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "LANES", 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = joint_attention(*args)
            peak = tracemalloc.get_traced_memory()[1] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
    S_kv, T = S_i + S_t, min(ATTENTION_TILE, S_i)
    sample = 8 * (S_i * d + 2 * S_i * H_q * d_h + 2 * S_i * H_kv * d_h
                  + 2 * S_kv * H_kv * d_h + H_q * T * S_kv)
    assert peak < 2 * sample, (peak, sample)

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


def test_taped_joint_attention_keeps_nothing_beyond_its_output():
    """Besides its output, the node keeps no array: no (B, S_i, d) array
    such as the modulated input, no head array (q, k, v, their rotations,
    O), no score array and no row statistic (a LayerNorm inverse std, an
    inverse RMS, a score row's max or sum)."""
    rng = np.random.default_rng(16)
    B, S_i, S_t, H_kv, n_rep, d_h, d = 1, 256, 16, 1, 2, 32, 64
    H_q = H_kv * n_rep
    p = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    args = (p(B, S_i, d), p(B, d), p(B, d), p(d, H_q * d_h), p(d, H_kv * d_h),
            p(d, H_kv * d_h), p(H_q * d_h, d), p(B, S_t, H_kv, d_h), p(B, S_t, H_kv, d_h))
    mask = np.arange(S_t)[None, :] < 12
    rope = rope_tables(np.arange(S_i) // 16, np.arange(S_i) % 16, d_h)  # the caller's
    with nt.no_grad():   # starts the lane pool, whose threads live for the process
        joint_attention(*args, mask, *rope)
    outs = []
    held, tape = held_by_tape(lambda: outs.append(joint_attention(*args, mask, *rope)))
    assert len(tape.nodes) == 1
    kept = held - outs[0].data.nbytes
    # the closures and their small bookkeeping, ~4 KB; the smallest row
    # statistics here, a LayerNorm inverse std or an image key head's
    # inverse RMS, are 2 KB each, and all of them together 18 KB
    assert kept <= 6 * 1024, kept


@pytest.mark.parametrize("name", ["fused_ln_scale", "fused_gate_res_ln_scale",
                                  "fused_rms_modulate"])
def test_taped_norm_nodes_keep_nothing_beyond_their_outputs(name):
    """No normalising node keeps a (B, S, d) array or a row statistic beyond
    its outputs: each recomputes its rows' statistics in its pullback. The
    test-only fused_rms_modulate oracle is allowed its inverse RMS."""
    fused, _, shapes = FUSED_OPS[name]
    B, S, d = 2, 256, 64
    rng = np.random.default_rng(29)
    args = [Tensor(rng.standard_normal((B, S, d) if s == X else (B, d)), requires_grad=True)
            for s in shapes]
    outs = []
    held, tape = held_by_tape(lambda: outs.extend(fused(*args)))
    assert len(tape.nodes) == 1
    kept = held - sum(o.data.nbytes for o in outs)
    allowance = B * S * 8 if name == "fused_rms_modulate" else 0   # its inverse RMS
    assert kept < allowance + B * S * 8, kept   # less than one more (B, S, 1) statistic


def test_second_backward_doubles_every_grad_bitwise():
    """Pullbacks recompute from what their node keeps and never write into
    it, and the FFN-half nodes recompute the up-projections their first
    pass released, so a second backward over one tape adds the first pass's
    gradients again, bit for bit. Every fused node of the model is on the
    tape, the MoE half at partial capacity (3 of 5 tokens per expert)."""
    rng = np.random.default_rng(17)
    args = attention_inputs(rng)
    x_in, cos, sin = args[0], *args[-2:]
    param = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    bank = moe.ExpertBank(param(2, 6, 16), param(2, 6, 16), param(2, 16, 6),  # 2 experts, h = 6
                          param(6, 16), param(6, 16), param(16, 6))
    dense = param(6, 16), param(6, 16), param(16, 6)
    t_emb, w_r = param(2, 16), param(32, 2)
    mods = [param(2, 16) for _ in range(8)]
    weigh = lambda y: nt.sum(nt.mul(y, Tensor(rng.standard_normal(y.shape))))
    with Tape() as tape:
        att = joint_attention(*args)                                   # (2, 5, 16)
        a_in = fused_ln_scale(att, mods[0], mods[1])
        x = moe.dense_ffn_half(att, a_in, *mods[2:5], *dense)
        y, decisions, _ = moe.moe_forward(x, att, *mods[5:8], t_emb, w_r, bank, 1.0, 0.5)
        roped = qk_norm_rope(nt.reshape(x_in, (2, 5, 4, 4)), cos, sin)  # x_in also feeds attention
        loss = nt.add(nt.add(weigh(y), weigh(x)), weigh(roped))
    assert decisions[0].capacity == 3
    params = (bank.w1, bank.w3, bank.w2, bank.shared_w1, bank.shared_w3, bank.shared_w2)
    tensors = [*args[:9], *params, *dense, t_emb, w_r, *mods,
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
