import threading

import numpy as np
import pytest

from nimg import tensor as nt
from nimg.backbone import fused_gated_residual
from nimg.tensor import (NonScalarLoss, ShapeError, Tape, Tensor,
                         UnsupportedOp, backward, grad_check)


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


UNARY_OPS = [nt.exp, nt.tanh, nt.sigmoid, nt.silu, nt.softmax, nt.layernorm,
             nt.rmsnorm, lambda t: nt.logsumexp(t, axis=-1), nt.sin, nt.cos,
             nt.neg, mean_last_axis]


def fd_ok(rep, rtol, atol=1e-9):
    # A tiny absolute floor covers elements whose true gradient sits below
    # the finite-difference noise floor; any real pullback bug is orders of
    # magnitude above it.
    a, n = rep.analytic.ravel(), rep.numeric.ravel()
    rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
    return bool(np.all((rel <= rtol) | (np.abs(a - n) <= atol)))


@pytest.mark.parametrize("op", UNARY_OPS, ids=lambda f: getattr(f, "__name__", "lse"))
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
        y = nt.concat([y, nt.neg(y)], axis=1)
        y = nt.transpose(y, (1, 0))
        y = nt.reshape(y, (2, 6))
        lo, mid, hi = nt.split(y, 3, axis=1)
        y = nt.add(nt.mul(lo, 2.0), nt.mul(mid, hi))
        return nt.mean(nt.mul(y, y))

    for seed in range(20):
        p = Tensor(np.random.default_rng(seed).normal(size=(3, 4)))
        rep = grad_check(fn, p, h=1e-5)
        assert rep.max_rel_err <= 1e-6, (seed, rep.max_rel_err)


def test_gather_scatter_gradients():
    idx = np.array([0, 2, 2, 1])

    def fn(p):
        g = nt.gather_rows(p, idx)
        s = nt.scatter_add_rows(g, np.array([1, 0, 0, 1]), 2)
        return nt.sum(nt.mul(s, s))

    rep = grad_check(fn, Tensor(np.random.default_rng(5).normal(size=(3, 2))))
    assert rep.max_rel_err <= 1e-6


def test_broadcast_to_gradient():
    def fn(p):
        wide = nt.broadcast_to(nt.reshape(p, (2, 1, 3)), (2, 4, 3))
        return nt.sum(nt.mul(wide, wide))

    rep = grad_check(fn, Tensor(np.random.default_rng(6).normal(size=(2, 3))))
    assert rep.max_rel_err <= 1e-6


def test_add_auxiliary_value_and_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    aux_src = Tensor(np.array([3.0]), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        main = nt.sum(x)
        aux = nt.mul(nt.sum(nt.mul(aux_src, aux_src)), 0.5)
        out = nt.add_auxiliary(main, aux)
    assert out.item() == main.item()  # aux absent from the forward value
    backward(tape, out)
    np.testing.assert_allclose(x.grad, [1.0, 1.0])
    np.testing.assert_allclose(aux_src.grad, [3.0])  # d(0.5*a^2)/da


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


def test_intermediate_fan_in_through_aliasing_pullbacks():
    rng = np.random.default_rng(7)
    g = Tensor(rng.normal(size=(2, 4)), dtype=np.float64)
    r = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)
    w = Tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64)

    def fn(p):
        q = nt.mul(p, w)
        y = nt.tanh(p)  # three consumers; each pullback hands y an alias of its g
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


SCATTER_INDICES = {
    "random_with_duplicates": np.random.default_rng(8).integers(0, 5, 40),
    "all_same": np.full(12, 3),
    "empty": np.zeros(0, dtype=np.int64),
}


@pytest.mark.parametrize("kind", SCATTER_INDICES)
def test_scatter_add_rows_and_gather_pullback_match_add_at(kind):
    idx = SCATTER_INDICES[kind]
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(idx.size, 3))
    ref = np.zeros((5, 3))
    np.add.at(ref, idx, rows)

    out = nt.scatter_add_rows(Tensor(rows, dtype=np.float64), idx, 5)
    assert out.data.tobytes() == ref.tobytes()

    src = Tensor(rng.normal(size=(5, 3)), requires_grad=True, dtype=np.float64)
    with Tape() as tape:
        nt.gather_rows(src, idx)
    (pulled,) = tape.nodes[-1].bwd(rows)
    assert pulled.tobytes() == ref.tobytes()


def test_grads_mark_exactly_the_nodes_whose_pullback_ran():
    # a layer tracer counts the nodes backward visited by out.grad is not None
    x = Tensor(np.random.default_rng(10).normal(size=(4, 3)), requires_grad=True,
               dtype=np.float64)
    with Tape() as tape:
        lo, hi = nt.split(x, 2, axis=0)
        nt.exp(hi)  # recorded but never reaches the loss
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
