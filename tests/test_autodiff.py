import dataclasses
import math
import weakref

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro.checks import check_grads
from geopro.errors import ConfigError, ContractError, DimensionError, NumericError, StateError


def test_matmul_identity():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
    out = ad.matmul(a, eye)
    assert np.array_equal(out.data, a.data)


def test_softmax_symmetry():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5


def test_shape_mismatch_names_both_shapes():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((4, 5)))
    with pytest.raises(DimensionError) as exc:
        ad.add(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    with pytest.raises(DimensionError):
        ad.matmul(a, ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.Tensor(np.zeros((2, 5, 3))), b)


def test_checked_mode_flags_nonfinite():
    ad.set_debug_checks(True)
    try:
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError):
                ad.sqrt(ad.Tensor([-1.0]))
    finally:
        ad.set_debug_checks(False)


def test_backward_sum_of_squares():
    x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.square(x))
        tape.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-15)


def test_backward_sigmoid_slope():
    w = ad.Tensor(0.0, requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sigmoid(w)
        tape.backward(loss)
    assert abs(w.grad[()] - 0.25) < 1e-15


def test_backward_requires_scalar_loss():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.square(x)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_double_backward_is_an_error():
    x = ad.Tensor([1.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.square(x))
        tape.backward(loss)
        with pytest.raises(StateError):
            tape.backward(loss)


def test_unreachable_tensor_gets_zero_grad():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    y = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.square(x))
        ad.square(y)  # recorded but not feeding the loss
        tape.backward(loss)
    assert np.array_equal(y.grad, [0.0])


def test_tensor_used_twice_gets_both_gradients():
    x = ad.Tensor([1.0, -2.0, 0.5], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)  # a leaf used twice by one op
        loss = ad.add(ad.tsum(ad.mul(y, 3.0)), ad.tsum(ad.mul(y, y)))  # y used three times
        tape.backward(loss)
    # dL/dy = 3 + 2y and dy/dx = 2x
    expected = (3.0 + 2.0 * x.data ** 2) * 2.0 * x.data
    assert np.allclose(x.grad, expected, rtol=1e-15, atol=0)


def test_backward_releases_intermediates():
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(300, 40)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(40, 300)), requires_grad=True)
    with ad.Tape() as tape:
        big = ad.matmul(x, w)
        loss = ad.tsum(ad.square(big))
        tape.backward(loss)
    assert big.grad is None and loss.grad is None
    assert len(tape) == 0
    alive = weakref.ref(big.data)
    del big
    assert alive() is None  # only the caller held it once backward was done


def test_leaf_gradients_are_exact_and_independent():
    rng = np.random.default_rng(6)
    a = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    m = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(ad.matmul(ad.add(a, b), m), w))
        tape.backward(loss)
    assert np.allclose(a.grad, w @ m.data.T, rtol=1e-15, atol=1e-15)
    assert np.array_equal(a.grad, b.grad)
    assert np.allclose(m.grad, (a.data + b.data).T @ w, rtol=1e-15, atol=1e-15)
    # add hands both operands the same upstream array; each leaf must own its copy
    a.grad[0, 0] += 1.0
    assert not np.array_equal(a.grad, b.grad)


def test_sigmoid_and_silu_exact_and_quiet_on_wide_range():
    x = np.linspace(-1000.0, 1000.0, 200001)
    with np.errstate(all="raise"):
        a = ad.Tensor(x, requires_grad=True)
        with ad.Tape() as tape:
            s = ad.sigmoid(a)
            y = ad.silu(a)
            tape.backward(ad.add(ad.tsum(s), ad.tsum(y)))
    # the two-branch formula in extended precision
    xl = x.astype(np.longdouble)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(xl))
    exact = np.where(xl >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert np.max(np.abs(s.data - exact)) <= 1e-15
    assert np.max(np.abs(y.data - xl * exact) / np.maximum(1.0, np.abs(xl))) <= 1e-15
    tiny = np.finfo(np.float64).tiny
    for out in (s.data, y.data, a.grad):
        assert np.all(np.isfinite(out))
        assert not np.any((out != 0.0) & (np.abs(out) < tiny))


def test_mlp_gradients_match_finite_differences():
    # random 2-layer MLP, the stated independent oracle
    rng = np.random.default_rng(11)
    w1 = ad.Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    b1 = ad.Tensor(rng.normal(size=(7,)), requires_grad=True)
    w2 = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    b2 = ad.Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = ad.Tensor(rng.normal(size=(4, 5)))
    params = [w1, b1, w2, b2]

    def loss():
        h = ad.silu(ad.add(ad.matmul(x, w1), b1))
        out = ad.add(ad.matmul(h, w2), b2)
        return ad.tsum(ad.square(out))

    assert check_grads(loss, params) < 1e-4


def _op_cases(rng):
    """One loss builder per supported op, all on tensors of <= 64 elements."""
    a = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    col = ad.Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    pos = ad.Tensor(rng.uniform(0.5, 2.0, size=(3, 5)), requires_grad=True)
    m1 = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    m2 = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bm1 = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    bm2 = ad.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 6)))
    num = ad.Tensor(rng.normal(size=(3, 5)))
    idx = np.array([0, 2, 2, 3, 1])

    cases = {
        "add": ([a, b], lambda: ad.tsum(ad.mul(ad.add(a, b), w))),
        "add_broadcast": ([a, col], lambda: ad.tsum(ad.mul(ad.add(a, col), w))),
        "sub": ([a, b], lambda: ad.tsum(ad.mul(ad.sub(a, b), w))),
        "mul": ([a, b], lambda: ad.tsum(ad.mul(ad.mul(a, b), w))),
        "div": ([pos], lambda: ad.tsum(ad.div(num, pos))),
        "neg": ([a], lambda: ad.tsum(ad.mul(ad.neg(a), w))),
        "matmul2d": ([m1, m2], lambda: ad.tsum(ad.square(ad.matmul(m1, m2)))),
        "matmul3d": ([bm1, bm2], lambda: ad.tsum(ad.square(ad.matmul(bm1, bm2)))),
        "matmul_rows": ([bm1, m2], lambda: ad.tsum(ad.square(ad.matmul(bm1, m2)))),
        "sum_all": ([a], lambda: ad.tsum(a)),
        "sum_axis": ([a], lambda: ad.tsum(ad.square(ad.tsum(a, axis=0)))),
        "sum_vector": ([a], lambda: ad.square(ad.tsum(ad.reshape(a, (24,)), axis=-1))),
        "sum_keepdims": ([a], lambda: ad.tsum(ad.mul(a, ad.tsum(a, axis=1, keepdims=True)))),
        "mean_all": ([a], lambda: ad.tmean(ad.square(a))),
        "mean_axis": ([a], lambda: ad.tsum(ad.square(ad.tmean(a, axis=1)))),
        "concat": ([a, b], lambda: ad.tsum(ad.square(ad.concat([a, b], axis=0)))),
        "reshape": ([a], lambda: ad.tsum(ad.square(ad.reshape(a, (2, 12))))),
        "transpose": ([bm1], lambda: ad.tsum(ad.square(ad.transpose(bm1, (1, 0, 2))))),
        "gather_rows": ([a], lambda: ad.tsum(ad.square(ad.gather_rows(a, idx)))),
        "index_add_rows": ([a], lambda: ad.tsum(ad.square(
            ad.index_add_rows(a, np.array([0, 1, 0, 1]), 2)))),
        "sigmoid": ([a], lambda: ad.tsum(ad.mul(ad.sigmoid(a), w))),
        "silu": ([a], lambda: ad.tsum(ad.mul(ad.silu(a), w))),
        "sqrt": ([pos], lambda: ad.tsum(ad.square(ad.sqrt(pos)))),
        "square": ([a], lambda: ad.tsum(ad.mul(ad.square(a), w))),
        "softmax": ([a], lambda: ad.tsum(ad.mul(ad.softmax(a), w))),
        "log_softmax": ([a], lambda: ad.tsum(ad.mul(ad.log_softmax(a), w))),
    }
    return cases


def test_every_op_matches_finite_differences():
    rng = np.random.default_rng(7)
    for name, (params, build) in _op_cases(rng).items():
        err = check_grads(build, params)
        assert err < 1e-4, f"op {name}: relative error {err:.3e}"


def test_backward_linearity():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(6,)), requires_grad=True)
    ca, cb = 1.7, -0.6

    def grad_of(build):
        with ad.Tape() as tape:
            tape.backward(build())
        return x.grad.copy()

    f = lambda: ad.tsum(ad.square(x))
    g = lambda: ad.tsum(ad.silu(x))
    combined = lambda: ad.add(ad.mul(f(), ca), ad.mul(g(), cb))
    lhs = grad_of(combined)
    rhs = ca * grad_of(f) + cb * grad_of(g)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_forward_and_grads_are_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = ad.Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        with ad.Tape() as tape:
            out = ad.tsum(ad.square(ad.silu(ad.matmul(x, w))))
            tape.backward(out)
        return out.item(), x.grad.copy(), w.grad.copy()

    v1, gx1, gw1 = run()
    v2, gx2, gw2 = run()
    assert v1 == v2
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# Adam and the learning-rate schedule


@dataclasses.dataclass
class _Leaf:
    w: ad.Tensor
    size: int


@dataclasses.dataclass
class _Tree:
    head: ad.Tensor
    layers: list
    blocks: list
    tail: _Leaf


def test_named_tensors_walks_fields_in_order_and_names_list_items():
    t = [ad.Tensor(np.zeros(k + 1)) for k in range(5)]
    tree = _Tree(head=t[0], layers=[_Leaf(t[1], 1), _Leaf(t[2], 2)], blocks=[t[3]],
                 tail=_Leaf(t[4], 3))
    named = list(ad.named_tensors(tree, "net"))
    assert [n for n, _ in named] == [
        "net.head", "net.layer0.w", "net.layer1.w", "net.block0", "net.tail.w",
    ]
    assert all(got is want for (_, got), want in zip(named, t))
    assert next(ad.named_tensors(tree))[0] == "head"
    assert list(ad.named_tensors(_Leaf(t[0], 1), "leaf")) == [("leaf.w", t[0])]


def test_adam_first_step_moves_by_lr():
    p = ad.Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    state = ad.AdamState([p], eps=1e-12)
    ad.adam_step(state, lr=0.01)
    # first step: m_hat = g, sqrt(v_hat) = |g|, so the update is ~lr
    assert abs(p.data[0] - (1.0 - 0.01)) < 1e-10
    assert state.step_count == 1
    assert np.array_equal(p.grad, [0.0])


def test_adam_zero_grad_keeps_params():
    p = ad.Tensor([2.5, -1.0], requires_grad=True)
    p.grad = np.zeros(2)
    state = ad.AdamState([p])
    ad.adam_step(state, lr=0.1)
    assert np.array_equal(p.data, [2.5, -1.0])
    assert state.step_count == 1


def test_adam_matches_scalar_recurrence():
    # independent hand-rolled recurrence on a scalar parameter
    g, lr, b1, b2, eps = 0.3, 0.05, 0.9, 0.999, 1e-8
    ref_p, m, v = 1.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_p -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

    p = ad.Tensor([1.0], requires_grad=True)
    state = ad.AdamState([p], beta1=b1, beta2=b2, eps=eps)
    for _ in range(2):
        p.grad = np.array([g])
        ad.adam_step(state, lr=lr)
    assert abs(p.data[0] - ref_p) < 1e-12


def test_adam_missing_grad_is_state_error():
    p = ad.Tensor([1.0], requires_grad=True)
    state = ad.AdamState([p])
    with pytest.raises(StateError):
        ad.adam_step(state, lr=0.1)


def test_lr_schedule_endpoints_and_midpoint():
    assert ad.lr_at_step(4000, 4000, 100_000, 1e-7) == pytest.approx(1e-7)
    assert ad.lr_at_step(0, 4000, 100_000, 1e-7) == 0.0
    warmup, total, base = 4000, 100_000, 1e-7
    mid = (warmup + total) // 2
    assert ad.lr_at_step(mid, warmup, total, base) == pytest.approx(base / 2)
    assert ad.lr_at_step(total, warmup, total, base) == 0.0


def test_lr_schedule_rejects_bad_config():
    with pytest.raises(ConfigError):
        ad.lr_at_step(0, 100, 100, 1e-7)
    with pytest.raises(ConfigError):
        ad.lr_at_step(0, 0, 100, 1e-7)
