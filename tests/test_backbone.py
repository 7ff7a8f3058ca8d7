import math

import numpy as np

from nimg import tensor as nt
from nimg.backbone import ModelConfig, MoEDiT
from nimg.router import StageId
from nimg.tensor import Tape, Tensor, backward

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


def test_float32_model_computes_in_float32():
    rng = np.random.default_rng(4)
    model = MoEDiT(ModelConfig(dtype="float32"))
    z = Tensor(rng.standard_normal((2, 4, 8, 8)), dtype=np.float32)
    with Tape() as tape:
        vel = velocity(model, z, rng.uniform(0.0, 1.0, 2))
    wide = [n.op for n in tape.nodes for o in n.outputs if o.dtype != np.float32]
    assert tape.nodes and not wide, wide
    assert vel.dtype == np.float32


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
