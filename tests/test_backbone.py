import math

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.backbone import (ModelConfig, MoEDiT, fused_gate_res_ln_scale,
                           fused_gated_residual, fused_ln_scale)
from nimg.router import StageId
from nimg.tensor import ShapeError, Tape, Tensor, backward, grad_check

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
    return nt.add(x, nt.mul(over_tokens(nt.tanh(g), x), r))


def ln_scale(x, s):
    return nt.mul(nt.layernorm(x), nt.add(over_tokens(s, x), 1.0))


def gate_res_ln_scale(x, g, r, s):
    h = gated_residual(x, g, r)
    return h, ln_scale(h, s)


X, M = (2, 3, 4), (2, 4)
FUSED_OPS = {  # fused op, its composition from tensor ops, input shapes
    "fused_gated_residual": (lambda *a: (fused_gated_residual(*a),),
                             lambda *a: (gated_residual(*a),), (X, M, X)),
    "fused_ln_scale": (lambda *a: (fused_ln_scale(*a),),
                       lambda *a: (ln_scale(*a),), (X, M)),
    "fused_gate_res_ln_scale": (fused_gate_res_ln_scale, gate_res_ln_scale,
                                (X, M, X, M)),
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
