import threading
import tracemalloc

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.backbone import (ModelConfig, MoEDiT, fused_gated_residual, fused_ln_scale,
                           joint_attention, qk_norm_rope, rope_tables, sinusoidal_features)
from nimg.moe import ExpertBank, dense_ffn_half, grouped_forward, moe_forward, swiglu
from nimg.router import ConfigError, StageId, capacity_for, capacity_schedule, route_full
from nimg.tensor import (DomainError, NonScalarLoss, ShapeError, Tape, Tensor,
                         UnsupportedOp, backward)
from oracles import grad_check, layernorm, tanh


def test_matmul_identity():
    I = Tensor(np.eye(2, dtype=np.float64))
    v = Tensor(np.array([[3.0], [4.0]], dtype=np.float64))
    out = nt.matmul(I, v)
    np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    A = Tensor(np.random.default_rng(0).normal(size=(5, 5)), dtype=np.float64)
    I5 = Tensor(np.eye(5, dtype=np.float64))
    np.testing.assert_array_equal(nt.matmul(A, I5).data, A.data)
    np.testing.assert_array_equal(nt.matmul(I5, A).data, A.data)


def test_silu_zero():
    assert nt.silu(Tensor(0.0)).item() == 0.0


def test_softmax_uniform_and_shift_invariance():
    out = nt.softmax(Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.25, atol=1e-7)

    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 5))
    s0 = nt.softmax(Tensor(x, dtype=np.float64)).data
    s1 = nt.softmax(Tensor(x + 3.7, dtype=np.float64)).data
    np.testing.assert_allclose(s0.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(s0, s1, atol=1e-6)


def test_shape_errors():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        nt.add(a, b)
    with pytest.raises(ShapeError):
        nt.matmul(a, Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        nt.reshape(a, (4, -1))
    with pytest.raises(ShapeError):
        nt.concat([a, Tensor(np.zeros((2, 2)))], axis=0)
    with pytest.raises(ShapeError):
        nt.concat([a, a], axis=2)
    with pytest.raises(ShapeError):
        nt.split(a, 2, axis=1)
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):  # modulation must be (B, d)
        fused_gated_residual(x, x, x)
    with pytest.raises(UnsupportedOp):
        Tensor(np.zeros(2), dtype=np.float32)


def forward_on(z_shape, prompts=("a cat", "a dog"), t=0.5, ctx_layers=None,
               n_layers=4, stage=StageId.S256):
    """MoEDiT.forward of an n_layers model on a zero latent; prompts=None
    passes ctx=None, and ctx_layers takes ctx from a model with that many
    layers."""
    model = MoEDiT(ModelConfig(n_layers=n_layers))
    ctx_model = model if ctx_layers is None else MoEDiT(ModelConfig(n_layers=ctx_layers))
    with nt.no_grad():
        ctx = None if prompts is None else ctx_model.precompute_text_kv(list(prompts))
        model.forward(Tensor(np.zeros(z_shape)), t, ctx, stage)


def rope_on(pos_h, pos_w):
    """qk_norm_rope of zero (2, 4, 1, 8) heads with the tables of these
    positions: S = 4 tokens."""
    return qk_norm_rope(Tensor(np.zeros((2, 4, 1, 8))), *rope_tables(pos_h, pos_w, 4, 8))


def forward_with_foreign_context():
    """A d_model=64 model given the text context of a ModelConfig() model:
    both have 4 layers and one kv head of width 8, so the K/V shapes match."""
    model = MoEDiT(ModelConfig(d_model=64, n_q_heads=8))
    with nt.no_grad():
        ctx = MoEDiT(ModelConfig()).precompute_text_kv(["a cat", "a dog"])
        model.forward(Tensor(np.zeros((2, 4, 8, 8))), 0.5, ctx, StageId.S256)


def backward_without_tape():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape():
        loss = nt.sum(x)
    backward(None, loss)


def backward_off_tape():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape():
        loss = nt.sum(nt.mul(x, x))
    backward(Tape(), loss)


def text_kv_of(prompts):
    with nt.no_grad():
        return MoEDiT(ModelConfig()).precompute_text_kv(prompts)


def attend(x=(2, 5, 16), scale=(2, 16), shift=(2, 16), wq=(16, 16), wk=(16, 8), wv=None,
           wo=(16, 16), k_txt=(2, 3, 2, 4), v_txt=(2, 3, 2, 4), mask=(2, 3), rope_tokens=None,
           d_h=4):
    """joint_attention on zero tensors of the given shapes: by default d = 16,
    4 query and 2 kv heads of width d_h = 4. None omits an input; wv=None
    takes wk's shape. The (S, 1, d_h) rope tables are for x's tokens, or for
    rope_tokens tokens."""
    z = lambda shape: None if shape is None else Tensor(np.zeros(shape))
    S = x[1] if rope_tokens is None else rope_tokens
    tables = np.ones((S, 1, d_h)), np.ones((S, 1, d_h))
    return joint_attention(z(x), z(scale), z(shift), z(wq), z(wk), z(wv or wk), z(wo),
                           z(k_txt), z(v_txt), None if mask is None else np.ones(mask, bool),
                           *tables)


def modulate_on(x=(2, 3, 4), scale=(2, 4), shift=(2, 4)):
    """fused_ln_scale on zero tensors of the given shapes."""
    return fused_ln_scale(*(Tensor(np.zeros(s)) for s in (x, scale, shift)))


def route_on(shape):
    """route_full on a zero state of the given shape, d = 4, E = 4."""
    return route_full(np.zeros(shape), np.zeros((2, 4)), np.zeros((8, 4)), 2.0)


def grouped_on(x=(6, 4), blocks=((0, 1), (2, 3)), gates=(2, 2, 1)):
    """grouped_forward on zeros: E = 2, d = 4, h = 8."""
    z = lambda *s: Tensor(np.zeros(s))
    bank = ExpertBank(z(2, 8, 4), z(2, 8, 4), z(2, 4, 8), z(8, 4), z(8, 4), z(4, 8))
    return grouped_forward(z(*x), np.array(blocks), z(*gates), bank)


def half_on(node, x=(2, 3, 4), r_attn=None, sa_gate=(2, 4), ff_scale=(2, 4),
            ff_gate=(2, 4), t_emb=(2, 4), w1=(8, 4)):
    """dense_ffn_half or moe_forward on zeros of the given shapes (r_attn
    like x unless given): d = 4, h = 8, E = 4 experts for moe_forward."""
    z = lambda s: Tensor(np.zeros(s))
    mods = (z(x), z(r_attn or x), z(sa_gate), z(ff_scale), z(ff_gate))
    if node == "dense":
        return dense_ffn_half(*mods, z(w1), z(w1), z(w1[::-1]))
    bank = ExpertBank(z((4, 8, 4)), z((4, 8, 4)), z((4, 4, 8)), z((8, 4)), z((8, 4)), z((4, 8)))
    return moe_forward(*mods, z(t_emb), z((8, 4)), bank, 2.0, 0.5)[0]


M23 = Tensor(np.zeros((2, 3)))
V3 = Tensor(np.zeros(3))
BAD_INPUTS = {  # case: (call, error type, message pattern)
    "gather_rows_fractional_index":
        (lambda: nt.gather_rows(M23, [0.5]), ShapeError, "integers"),
    "scatter_add_rows_fractional_index":
        (lambda: nt.scatter_add_rows(Tensor(np.ones((1, 3))), [0.5], 2),
         ShapeError, "integers"),
    "gather_rows_0d_source":
        (lambda: nt.gather_rows(Tensor(1.0), [0]), ShapeError, "row axis"),
    "scatter_add_rows_0d_values":
        (lambda: nt.scatter_add_rows(Tensor(1.0), [0], 2), ShapeError, "value row"),
    "gather_rows_repeat_in_block":
        (lambda: nt.gather_rows(M23, [[0, 1], [1, 1]]), ShapeError, "repeats"),
    "scatter_add_rows_repeat_in_block":
        (lambda: nt.scatter_add_rows(M23, [1, 1], 2), ShapeError, "repeats"),
    "gather_rows_3d_index":
        (lambda: nt.gather_rows(M23, np.zeros((1, 1, 1), np.int64)), ShapeError, "2-d"),
    "scatter_add_rows_3d_index":
        (lambda: nt.scatter_add_rows(Tensor(np.zeros((1, 1, 1, 3))),
                                     np.zeros((1, 1, 1), np.int64), 2), ShapeError, "2-d"),
    "matmul_vector_left":
        (lambda: nt.matmul(V3, Tensor(np.zeros((3, 4)))), ShapeError, "rank"),
    "matmul_vector_right": (lambda: nt.matmul(M23, V3), ShapeError, "rank"),
    "matmul_batched_times_vector":
        (lambda: nt.matmul(Tensor(np.zeros((2, 2, 3))), V3), ShapeError, "rank"),
    "matmul_vector_vector": (lambda: nt.matmul(V3, V3), ShapeError, "rank"),
    "matmul_batch_axes":
        (lambda: nt.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5)))),
         ShapeError, None),
    "transpose_axis_out_of_range":
        (lambda: nt.transpose(M23, (0, 2)), ShapeError, None),
    "transpose_repeated_axis": (lambda: nt.transpose(M23, (0, 0)), ShapeError, None),
    "sum_axis_out_of_range": (lambda: nt.sum(M23, axis=2), ShapeError, None),
    "mean_axis_out_of_range": (lambda: nt.mean(M23, axis=2), ShapeError, None),
    "softmax_axis_out_of_range": (lambda: nt.softmax(M23, axis=2), ShapeError, None),
    "tensor_from_string": (lambda: Tensor("abc"), UnsupportedOp, None),
    "tensor_from_none": (lambda: Tensor(None), UnsupportedOp, None),
    "tensor_from_list_with_none": (lambda: Tensor([1.0, None]), UnsupportedOp, None),
    "attention_k_txt_without_v_txt":
        (lambda: attend(v_txt=None), ShapeError, "k_txt and v_txt"),
    "attention_v_txt_without_k_txt":
        (lambda: attend(k_txt=None, mask=None), ShapeError, "k_txt and v_txt"),
    "attention_text_kv_shapes_differ":
        (lambda: attend(v_txt=(2, 2, 2, 4)), ShapeError, "v_txt"),
    "attention_k_txt_head_dim": (lambda: attend(k_txt=(2, 3, 2, 8)), ShapeError, "k_txt"),
    "attention_mask_3x3": (lambda: attend(mask=(3, 3)), ShapeError, "text_mask"),
    "attention_mask_2x4": (lambda: attend(mask=(2, 4)), ShapeError, "text_mask"),
    "attention_mask_without_text":
        (lambda: attend(k_txt=None, v_txt=None), ShapeError, "text_mask"),
    "attention_kv_batch":   # image tokens of 3 samples, text K/V of 2
        (lambda: attend(x=(3, 5, 16), scale=(3, 16), shift=(3, 16)), ShapeError, "k_txt"),
    "attention_kv_length": (lambda: attend(wk=(12, 8)), ShapeError, "attention wk"),
    "attention_kv_head_dim": (lambda: attend(wk=(16, 10)), ShapeError, "attention wk"),
    "attention_v_img_shape": (lambda: attend(wv=(16, 4)), ShapeError, "attention wv"),
    "attention_3d_q": (lambda: attend(x=(10, 16)), ShapeError, "attention x"),
    "attention_no_keys":
        (lambda: attend(x=(2, 0, 16), k_txt=(2, 0, 2, 4), v_txt=(2, 0, 2, 4), mask=(2, 0)),
         ShapeError, "no keys"),
    "attention_wq_rows": (lambda: attend(wq=(8, 16)), ShapeError, "attention wq"),
    "attention_wq_columns_not_whole_heads":
        (lambda: attend(wq=(16, 18)), ShapeError, "attention wq"),
    "attention_wo_columns": (lambda: attend(wo=(16, 8)), ShapeError, "attention wo"),
    "attention_wo_rows_not_wq_columns":
        (lambda: attend(wo=(12, 16)), ShapeError, "attention wo"),
    "attention_query_heads_not_a_multiple_of_kv_heads":
        (lambda: attend(wk=(16, 12), k_txt=(2, 3, 3, 4), v_txt=(2, 3, 3, 4)),
         ConfigError, "kv heads"),
    "attention_zero_kv_heads": (lambda: attend(wk=(16, 0)), ConfigError, "kv heads"),
    "attention_scale_per_token":
        (lambda: attend(scale=(2, 5, 16)), ShapeError, "modulation shape"),
    "attention_shift_batch": (lambda: attend(shift=(3, 16)), ShapeError, "modulation shape"),
    "attention_rope_tables_odd_head_dim": (lambda: attend(d_h=3), ShapeError, "rope tables"),
    "rmsnorm_0d": (lambda: nt.rmsnorm(Tensor(1.0)), ShapeError, "0-d"),
    "swiglu_0d_x": (lambda: swiglu(Tensor(1.0), M23, M23, M23), ShapeError, "swiglu"),
    "route_full_2d_state": (lambda: route_on((6, 4)), ShapeError, "router state"),
    "route_full_4d_state": (lambda: route_on((2, 3, 1, 4)), ShapeError, "router state"),
    "moe_forward_2d_state": (lambda: half_on("moe", x=(6, 4)), ShapeError, "residual stream"),
    "moe_forward_4d_state":
        (lambda: half_on("moe", x=(2, 3, 1, 4)), ShapeError, "residual stream"),
    "forward_3d_latent": (lambda: forward_on((2, 8, 8)), ShapeError, "z_t"),
    "forward_channel_count": (lambda: forward_on((2, 3, 8, 8)), ShapeError, "z_t"),
    "forward_prompt_count":
        (lambda: forward_on((2, 4, 8, 8), prompts=("one prompt",)), ShapeError, "ctx"),
    "forward_without_text_context":
        (lambda: forward_on((2, 4, 8, 8), prompts=None), ShapeError, "ctx"),
    "forward_stage_not_a_stage_id":
        (lambda: forward_on((2, 4, 8, 8), n_layers=3, stage="bogus"), ConfigError, "stage"),
    "forward_nan_timestep":
        (lambda: forward_on((2, 4, 8, 8), t=float("nan")), DomainError, "timestep"),
    "sinusoidal_2d_timestep":
        (lambda: sinusoidal_features(Tensor(np.zeros((2, 1))), 8), ShapeError, "timestep"),
    "rope_3d_heads":
        (lambda: qk_norm_rope(Tensor(np.zeros((2, 4, 8))), np.zeros(4), np.zeros(4)),
         ShapeError, "rope"),
    "rope_positions_of_different_lengths":
        (lambda: rope_on(np.zeros(4), np.zeros(3)), ShapeError, "pos_w"),
    "rope_positions_not_one_per_token":
        (lambda: rope_on(np.zeros(3), np.zeros(3)), ShapeError, "positions"),
    "rope_2d_positions":
        (lambda: rope_on(np.zeros((4, 1)), np.zeros((4, 1))), ShapeError, "positions"),
    "config_zero_kv_heads": (lambda: ModelConfig(n_kv_heads=0), ConfigError, "n_kv_heads"),
    "config_zero_patch": (lambda: ModelConfig(patch=0), ConfigError, "patch"),
    "config_negative_layers": (lambda: ModelConfig(n_layers=-1), ConfigError, "n_layers"),
    "config_negative_d_model":
        (lambda: ModelConfig(d_model=-32, n_q_heads=-4), ConfigError, "d_model"),
    "config_zero_q_heads": (lambda: ModelConfig(n_q_heads=0), ConfigError, "n_q_heads"),
    "config_zero_head_dim": (lambda: ModelConfig(head_dim=0), ConfigError, "head_dim"),
    "config_zero_experts": (lambda: ModelConfig(n_experts=0), ConfigError, "n_experts"),
    "config_zero_expert_hidden":
        (lambda: ModelConfig(expert_hidden=0), ConfigError, "expert_hidden"),
    "config_zero_latent_channels":
        (lambda: ModelConfig(latent_channels=0), ConfigError, "latent_channels"),
    "config_negative_seed": (lambda: ModelConfig(seed=-1), ConfigError, "seed"),
    "forward_context_from_shallower_model":
        (lambda: forward_on((2, 4, 8, 8), ctx_layers=2), ShapeError, "ctx"),
    "forward_context_from_deeper_model":
        (lambda: forward_on((2, 4, 8, 8), ctx_layers=6), ShapeError, "ctx"),
    "grouped_forward_1d_x": (lambda: grouped_on(x=(6,)), ShapeError, "grouped_forward"),
    "grouped_forward_3d_x": (lambda: grouped_on(x=(1, 6, 4)), ShapeError, "grouped_forward"),
    "grouped_forward_gates_shape":
        (lambda: grouped_on(gates=(2, 2)), ShapeError, "gates"),
    "grouped_forward_repeat_in_block":
        (lambda: grouped_on(blocks=((0, 1), (3, 3))), ShapeError, "repeats"),
    "forward_timestep_requires_grad":
        (lambda: forward_on((2, 4, 8, 8), t=Tensor([0.3, 0.6], requires_grad=True)),
         UnsupportedOp, "requires grad"),
    "forward_string_timestep":
        (lambda: forward_on((2, 4, 8, 8), t="0.5"), UnsupportedOp, "timestep"),
    "capacity_for_nan_factor":
        (lambda: capacity_for(16, 4, float("nan")), ConfigError, "capacity"),
    "tensor_from_complex":
        (lambda: Tensor(np.array([1 + 2j])), UnsupportedOp, "complex"),
    "backward_without_tape": (backward_without_tape, ShapeError, "Tape"),
    "forward_context_from_another_model":
        (forward_with_foreign_context, ShapeError, "ctx"),
    "text_kv_none_prompt": (lambda: text_kv_of([None]), ShapeError, "prompts"),
    "text_kv_bare_string": (lambda: text_kv_of("a cat"), ShapeError, "prompts"),
    "backward_loss_from_another_tape": (backward_off_tape, ShapeError, "produced"),
    "forward_ragged_timestep":
        (lambda: forward_on((2, 4, 8, 8), t=[[0.1], [0.2, 0.3]]), UnsupportedOp, "ragged"),
    "forward_empty_batch": (lambda: forward_on((0, 4, 8, 8)), ShapeError, "z_t"),
    "forward_empty_latent": (lambda: forward_on((2, 4, 0, 0)), ShapeError, "z_t"),
    "fused_ln_scale_shift_not_b_d":
        (lambda: modulate_on(shift=(2, 3)), ShapeError, "modulation shape"),
    "fused_ln_scale_shift_per_token":
        (lambda: modulate_on(shift=(2, 3, 4)), ShapeError, "modulation shape"),
    "fused_rms_modulate_2d_h":   # the MoE norm's scale given per token, as h is
        (lambda: half_on("moe", ff_scale=(2, 3, 4)), ShapeError, "modulation shape"),
    "fused_rms_modulate_scale_not_b_d":
        (lambda: half_on("moe", ff_scale=(3, 4)), ShapeError, "modulation shape"),
    "moe_forward_r_attn_shape":
        (lambda: half_on("moe", r_attn=(2, 4, 4)), ShapeError, "residual shape"),
    "dense_ffn_half_r_attn_shape":
        (lambda: half_on("dense", r_attn=(2, 3, 5)), ShapeError, "residual shape"),
    "dense_ffn_half_2d_x":
        (lambda: half_on("dense", x=(6, 4)), ShapeError, "residual stream"),
    "moe_forward_sa_gate_not_b_d":
        (lambda: half_on("moe", sa_gate=(2, 5)), ShapeError, "modulation shape"),
    "moe_forward_ff_gate_per_token":
        (lambda: half_on("moe", ff_gate=(2, 3, 4)), ShapeError, "modulation shape"),
    "dense_ffn_half_sa_gate_batch":
        (lambda: half_on("dense", sa_gate=(3, 4)), ShapeError, "modulation shape"),
    "dense_ffn_half_ff_scale_not_b_d":
        (lambda: half_on("dense", ff_scale=(4,)), ShapeError, "modulation shape"),
    "dense_ffn_half_ff_gate_not_b_d":
        (lambda: half_on("dense", ff_gate=(2, 8)), ShapeError, "modulation shape"),
    "dense_ffn_half_weight_width":
        (lambda: half_on("dense", w1=(8, 5)), ShapeError, "dense_ffn_half"),
    "moe_forward_t_emb_batch":
        (lambda: half_on("moe", t_emb=(3, 4)), ShapeError, "t_emb"),
    "route_full_t_emb_width": (lambda: route_full(np.zeros((2, 3, 4)), np.zeros((2, 5)),
                                                  np.zeros((8, 4)), 2.0), ShapeError, "t_emb"),
    "attention_rope_tables_for_other_tokens":
        (lambda: attend(rope_tokens=4), ShapeError, "rope tables"),
    "capacity_schedule_no_layers":
        (lambda: capacity_schedule(0, StageId.S256, 0), ConfigError, "layer"),
    "capacity_schedule_layer_past_the_last":
        (lambda: capacity_schedule(32, StageId.S256), ConfigError, "layer"),
    "capacity_schedule_fractional_layer":
        (lambda: capacity_schedule(5.5, StageId.S256), ConfigError, "layer"),
    "capacity_for_fractional_length":
        (lambda: capacity_for(16.5, 4, 1.0), ConfigError, "capacity"),
    "capacity_for_string_length":
        (lambda: capacity_for("16", 4, 1.0), ConfigError, "capacity"),
    "scatter_add_rows_fractional_row_count":
        (lambda: nt.scatter_add_rows(M23, [0, 1], 2.5), ShapeError, "row count"),
    "mean_of_no_elements": (lambda: nt.mean(Tensor(np.ones(0))), ShapeError, "zero elements"),
    "sinusoidal_negative_dim":
        (lambda: sinusoidal_features(0.5, -2), ConfigError, "feature dim"),
    "text_kv_prompts_not_a_sequence": (lambda: text_kv_of(3), ShapeError, "prompts"),
    "text_kv_prompts_generator":
        (lambda: text_kv_of(p for p in ("a cat", "a dog")), ShapeError, "prompts"),
    "split_fractional_axis": (lambda: nt.split(M23, 2, axis=0.5), ShapeError, "split"),
    "split_fractional_count": (lambda: nt.split(V3, 1.5), ShapeError, "split"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_inputs_raise_nimg_errors(case):
    call, error, pattern = BAD_INPUTS[case]
    with pytest.raises(error, match=pattern) as info:
        call()
    assert type(info.value) is error


def test_integer_and_empty_row_indices_still_work():
    a = Tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(nt.gather_rows(a, np.array([2, 0], np.int32)).data,
                                  [[4.0, 5.0], [0.0, 1.0]])
    assert nt.gather_rows(a, []).shape == (0, 2)
    assert nt.scatter_add_rows(Tensor(np.zeros((0, 2))), [], 3).shape == (3, 2)


def test_scalars_sums_and_means_are_0d():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    for t in (Tensor(1.0), Tensor(np.float32(2.0)), nt.sum(x), nt.mean(x)):
        assert t.shape == () and t.ndim == 0 and t.size == 1
    assert nt.mean(x).item() == 2.5


def test_inputs_are_stored_as_float64():
    for data in (np.ones(3, dtype=np.float32), np.arange(3), [1, 2, 3], 2):
        assert Tensor(data).dtype == np.float64
    np.testing.assert_array_equal(Tensor(np.float32([0.1, -2.5])).data,
                                  np.float32([0.1, -2.5]).astype(np.float64))
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = nt.sum(nt.matmul(x, x))
    backward(tape, loss)
    assert x.grad.dtype == np.float64


def test_backward_sum_gives_ones():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = nt.sum(x)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = nt.sum(nt.mul(x, x))
    backward(tape, loss)
    np.testing.assert_allclose(x.grad, [4.0, -2.0])


def test_backward_accumulates_without_reset():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = nt.sum(x)
    backward(tape, loss)
    backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = nt.mul(x, 2.0)
    with pytest.raises(NonScalarLoss):
        backward(tape, y)


def test_grad_check_constant():
    rep = grad_check(lambda p: nt.sum(nt.mul(p, 0.0)), Tensor(np.ones(4)), h=1e-4)
    assert np.allclose(rep.analytic, 0.0)
    assert np.max(np.abs(rep.numeric)) <= 1e-8


def mean_last_axis(t):
    return nt.mean(t, axis=-1)


UNARY_OPS = [tanh, nt.silu, nt.softmax, layernorm, nt.rmsnorm, mean_last_axis]


def fd_ok(rep, rtol, atol=1e-9):
    # A tiny absolute floor covers elements whose true gradient sits below
    # the finite-difference noise floor; any real pullback bug is orders of
    # magnitude above it.
    a, n = rep.analytic.ravel(), rep.numeric.ravel()
    rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
    return bool(np.all((rel <= rtol) | (np.abs(a - n) <= atol)))


@pytest.mark.parametrize("op", UNARY_OPS, ids=lambda f: f.__name__)
def test_unary_op_gradients_100_points(op):
    rng = np.random.default_rng(42)
    for i in range(100):
        x = Tensor(rng.normal(size=(2, 4)))

        def fn(p):
            y = op(p)
            w = Tensor(np.linspace(0.5, 1.5, y.size).reshape(y.shape),
                       dtype=np.float64)
            return nt.sum(nt.mul(y, w))

        rep = grad_check(fn, x, h=2e-5)
        assert fd_ok(rep, rtol=1e-6), (i, rep.max_rel_err)


def test_binary_and_shape_op_gradients():
    rng = np.random.default_rng(3)
    b = Tensor(rng.normal(size=(3, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(4, 2)), dtype=np.float64)

    def fn(p):
        y = nt.matmul(nt.div(nt.mul(p, b), 1.7), w)
        y = nt.concat([y, nt.mul(y, -1.0)], axis=1)
        y = nt.transpose(y, (1, 0))
        y = nt.reshape(y, (2, 6))
        lo, mid, hi = nt.split(y, 3, axis=1)
        y = nt.add(nt.mul(lo, 2.0), nt.mul(mid, hi))
        return nt.mean(nt.mul(y, y))

    for seed in range(20):
        p = Tensor(np.random.default_rng(seed).normal(size=(3, 4)))
        rep = grad_check(fn, p, h=1e-5)
        assert rep.max_rel_err <= 1e-6, (seed, rep.max_rel_err)


ELEMENTWISE_OPS = {"add": (nt.add, np.add), "sub": (nt.sub, np.subtract),
                   "mul": (nt.mul, np.multiply), "div": (nt.div, np.divide)}
BROADCAST_PAIRS = [((2, 3, 4), (4,)), ((2, 3, 4), (2, 1, 4)),
                   ((3, 1), (4,)), ((2, 3, 4), (1,))]


@pytest.mark.parametrize("shapes", BROADCAST_PAIRS, ids=str)
@pytest.mark.parametrize("op", ELEMENTWISE_OPS)
def test_elementwise_ops_broadcast_like_numpy(op, shapes):
    taped, ref = ELEMENTWISE_OPS[op]
    rng = np.random.default_rng(13)
    a = rng.normal(size=shapes[0])
    # |b| in [0.5, 2] keeps the divisor away from 0
    b = rng.uniform(0.5, 2.0, size=shapes[1]) * rng.choice([-1.0, 1.0], size=shapes[1])
    np.testing.assert_array_equal(taped(Tensor(a), Tensor(b)).data, ref(a, b))
    w = Tensor(rng.normal(size=np.broadcast_shapes(*shapes)))
    losses = ((lambda p: nt.sum(nt.mul(taped(p, Tensor(b)), w)), a),
              (lambda p: nt.sum(nt.mul(taped(Tensor(a), p), w)), b))
    for operand, (fn, point) in enumerate(losses):
        rep = grad_check(fn, Tensor(point), h=1e-5)
        assert rep.max_rel_err <= 1e-6, (operand, rep.max_rel_err)


@pytest.mark.parametrize("op", ELEMENTWISE_OPS)
def test_elementwise_pullbacks_skip_constant_operands(op):
    taped, _ = ELEMENTWISE_OPS[op]
    x = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    g = np.ones((2, 3))
    for args, grads_formed in (((x, Tensor(np.full(3, 4.0))), [True, False]),
                               ((4.0, x), [False, True]),
                               ((x, x), [True, True])):
        with Tape() as tape:
            taped(*args)
        grads = tape.nodes[0].bwd(g)
        assert [gi is not None for gi in grads] == grads_formed, args


def test_gather_scatter_gradients():
    # row 2 is gathered by both blocks, and both blocks add into rows 0 and 1
    gather_idx = np.array([[0, 2], [2, 1]])
    scatter_idx = np.array([[1, 0], [0, 1]])

    def fn(p):
        g = nt.gather_rows(p, gather_idx)                    # (2, 2, 2)
        s = nt.scatter_add_rows(g, scatter_idx, 2)
        return nt.sum(nt.mul(s, s))

    rep = grad_check(fn, Tensor(np.random.default_rng(5).normal(size=(3, 2))))
    assert rep.max_rel_err <= 1e-6


def test_broadcast_to_gradient():
    def fn(p):
        wide = nt.broadcast_to(nt.reshape(p, (2, 1, 3)), (2, 4, 3))
        return nt.sum(nt.mul(wide, wide))

    rep = grad_check(fn, Tensor(np.random.default_rng(6).normal(size=(2, 3))))
    assert rep.max_rel_err <= 1e-6


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(2), requires_grad=True)
    with Tape() as tape:
        with nt.no_grad():
            y = nt.mul(x, 2.0)
    assert tape.nodes == []
    assert not y.requires_grad


def test_leaf_grads_of_add_do_not_share_memory():
    # add hands one upstream array to both operands; leaves must not alias it
    a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        loss = nt.sum(nt.add(a, b))
    backward(tape, loss)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0, 0] = 7.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


LEAF_GRAPHS = {  # two (2, 3) leaves to a (3, 2) output
    "reshape": lambda a, b: nt.mul(nt.reshape(a, (3, 2)), nt.reshape(b, (3, 2))),
    "add": lambda a, b: nt.reshape(nt.mul(nt.add(a, b), b), (3, 2)),
    "add_and_reshape": lambda a, b: nt.add(nt.reshape(nt.add(a, b), (3, 2)),
                                           nt.reshape(a, (3, 2))),
}


@pytest.mark.parametrize("graph", LEAF_GRAPHS)
def test_each_leaf_grad_can_be_edited_alone(graph):
    # reshape pullbacks return views and add hands one array to both
    # operands, so these leaves' gradient arrays are shared or views
    rng = np.random.default_rng(20)
    a, b = (Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        loss = nt.sum(nt.mul(LEAF_GRAPHS[graph](a, b), Tensor(rng.normal(size=(3, 2)))))
    backward(tape, loss)
    tensors = [a, b, *(o for n in tape.nodes for o in n.outputs)]
    for leaf in (a, b):
        before = [t.grad.copy() for t in tensors]
        leaf.grad += 1.0
        for t, g in zip(tensors, before):
            np.testing.assert_array_equal(t.grad, g + 1.0 if t is leaf else g)


def test_no_parameter_grad_shares_memory_with_another_grad():
    model = MoEDiT(ModelConfig())
    with Tape() as tape:
        ctx = model.precompute_text_kv(["a cat", "a dog"])
        vel, _ = model.forward(Tensor(np.random.default_rng(21).normal(size=(2, 4, 8, 8))),
                               [0.3, 0.7], ctx, StageId.S256)
        loss = nt.sum(nt.mul(vel, vel))
    backward(tape, loss)
    params = list(model.named_parameters().values())
    intermediate = [o.grad for n in tape.nodes for o in n.outputs if o.grad is not None]
    assert all(p.grad is not None for p in params)
    for i, p in enumerate(params):
        for g in [q.grad for q in params[i + 1:]] + intermediate:
            assert not np.shares_memory(p.grad, g)


def test_backward_adopts_a_fresh_leaf_grad_without_copying_it():
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(4, 256)))
    w = Tensor(rng.normal(size=(256, 1024)), requires_grad=True)   # 2 MiB
    with Tape() as tape:
        loss = nt.sum(nt.matmul(x, w))
    tracemalloc.start()
    try:
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(w.grad, np.broadcast_to(x.data.sum(axis=0)[:, None], w.shape))
    assert peak < 2 * w.data.nbytes, peak   # the pullback's dW, and no copy of it


def test_intermediate_fan_in_through_aliasing_pullbacks():
    rng = np.random.default_rng(7)
    g = Tensor(rng.normal(size=(2, 4)), dtype=np.float64)
    r = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def fn(p):
        q = nt.mul(p, w)
        y = tanh(p)  # three consumers; each pullback hands y an alias of its g
        flat = nt.reshape(y, (6, 4))
        gated = fused_gated_residual(y, g, r)
        doubled = nt.add(y, y)
        # doubled and q receive one shared array, which q's pullback reads
        # only after y's contributions have been summed
        s = nt.add(nt.add(doubled, q), nt.reshape(nt.mul(flat, flat), (2, 3, 4)))
        return nt.sum(nt.mul(s, gated))

    for seed in range(5):
        p = Tensor(np.random.default_rng(seed).normal(size=(2, 3, 4)))
        rep = grad_check(fn, p, h=1e-5)
        assert rep.max_rel_err <= 1e-6, (seed, rep.max_rel_err)


_BLOCK_RNG = np.random.default_rng(8)
SCATTER_INDICES = {  # block indices into 5 rows, no row twice within a block
    # expert-choice shaped: 10 experts each pick 4 distinct rows, so rows
    # repeat across blocks
    "random_with_duplicates": np.stack([_BLOCK_RNG.permutation(5)[:4] for _ in range(10)]),
    "all_same": np.full((12, 1), 3),   # the same row in every block
    "single_block": _BLOCK_RNG.permutation(5)[:4],
    "empty": np.zeros(0, dtype=np.int64),
}


@pytest.mark.parametrize("kind", SCATTER_INDICES)
def test_scatter_add_rows_and_gather_pullback_match_add_at(kind):
    idx = SCATTER_INDICES[kind]
    rng = np.random.default_rng(9)
    rows = rng.normal(size=idx.shape + (3,))
    ref = np.zeros((5, 3))
    np.add.at(ref, idx.ravel(), rows.reshape(-1, 3))

    out = nt.scatter_add_rows(Tensor(rows, dtype=np.float64), idx, 5)
    assert out.data.tobytes() == ref.tobytes()

    src = Tensor(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        gathered = nt.gather_rows(src, idx)
    assert gathered.data.tobytes() == src.data[idx].tobytes()
    (pulled,) = tape.nodes[-1].bwd(rows)
    assert pulled.tobytes() == ref.tobytes()


def test_grads_mark_exactly_the_nodes_whose_pullback_ran():
    # a layer tracer counts the nodes backward visited by out.grad is not None
    x = Tensor(np.random.default_rng(10).normal(size=(4, 3)), requires_grad=True,
               dtype=np.float64)
    with Tape() as tape:
        lo, hi = nt.split(x, 2, axis=0)
        nt.silu(hi)  # recorded but never reaches the loss
        y = nt.add(nt.reshape(lo, (3, 2)), 1.0)
        loss = nt.sum(nt.mul(y, y))
    ran = set()

    def counted(node, bwd):
        def wrapped(*grads):
            ran.add(id(node))
            return bwd(*grads)
        return wrapped

    for node in tape.nodes:
        node.bwd = counted(node, node.bwd)
    backward(tape, loss)
    carry = {id(n) for n in tape.nodes if any(o.grad is not None for o in n.outputs)}
    assert carry == ran
    assert len(ran) == len(tape.nodes) - 1


def test_tape_state_is_per_thread():
    barrier = threading.Barrier(2, timeout=10)
    tapes, errors = {}, []

    def worker(name, in_no_grad):
        try:
            x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
            with Tape() as tape:
                barrier.wait()  # both tapes are active from here on
                if in_no_grad:
                    with nt.no_grad():
                        barrier.wait()
                        nt.mul(x, 2.0)
                        barrier.wait()
                else:
                    barrier.wait()  # the other thread is inside no_grad now
                    nt.mul(x, 3.0)
                    barrier.wait()
                nt.add(x, 1.0)
            tapes[name] = (tape, x)
        except Exception as e:  # surfaced below; a thread cannot fail the test
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(n, n == "quiet"))
               for n in ("quiet", "loud")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert nt.active_tape() is None
    for name, ops in (("quiet", ["add"]), ("loud", ["mul", "add"])):
        tape, x = tapes[name]
        assert [n.op for n in tape.nodes] == ops
        assert all(n.inputs[0] is x for n in tape.nodes)
