import dataclasses
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from geopro import autodiff as ad
from geopro import pipeline as pl
from geopro import pool
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


def test_backward_peak_stays_near_one_copy_of_the_parameters():
    # A leaf takes its first gradient contribution as its array, so the
    # backward pass of a wide layer holds about one gradient per parameter
    # and no zero-filled array beside it.
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(4, 2000)))
    w = ad.Tensor(rng.normal(size=(2000, 500)), requires_grad=True)
    b = ad.Tensor(np.zeros(500), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.add(ad.matmul(x, w), b))
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert np.allclose(w.grad, x.data.sum(axis=0)[:, None], rtol=1e-12, atol=1e-12)
    assert np.array_equal(b.grad, np.full(500, 4.0))
    assert peak < 2.5 * (w.data.nbytes + b.data.nbytes)


@pytest.mark.parametrize("indices", [[3, 0, 5, 1], [[2, 4], [0, 1]], [1, 3, 1, 1, 0], []])
def test_gather_rows_gradient_matches_scatter_add(indices):
    # distinct indices are written by assignment, repeated ones scatter-added
    rng = np.random.default_rng(9)
    a = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = np.asarray(indices, dtype=np.intp)
    probe = rng.normal(size=idx.shape + (3,))
    with ad.Tape() as tape:
        tape.backward(ad.tsum(ad.mul(ad.gather_rows(a, idx), probe)))
    want = np.zeros((6, 3))
    np.add.at(want, idx, probe)
    assert np.array_equal(a.grad, want)


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
        "split": ([a], lambda: ad.add(*(ad.tsum(ad.mul(ad.square(piece), k + 1.0))
                                        for k, piece in enumerate(ad.split(a, [2, 4], -1))))),
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


def test_split_inverts_concat_bit_for_bit():
    rng = np.random.default_rng(11)
    parts = [rng.normal(size=(2, k, 3)) for k in (1, 0, 4)]
    joined = ad.concat(parts, axis=1)
    pieces = ad.split(joined, [1, 0, 4], axis=1)
    assert [p.data.tobytes() for p in pieces] == [p.tobytes() for p in parts]
    assert ad.concat(pieces, axis=1).data.tobytes() == joined.data.tobytes()


def test_split_rejects_sizes_that_do_not_add_up():
    a = ad.Tensor(np.zeros((3, 5)))
    for sizes in ([2, 2], [3, 3], [6, -1]):
        with pytest.raises(DimensionError):
            ad.split(a, sizes, axis=1)


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


def test_adam_first_step_moves_by_lr(monkeypatch):
    monkeypatch.setattr(ad, "ADAM_EPS", 1e-12)
    p = ad.Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    state = ad.AdamState([p])
    ad.adam_step(state, lr=0.01)
    # first step: m_hat = g, sqrt(v_hat) = |g|, so the update is ~lr
    assert abs(p.data[0] - (1.0 - 0.01)) < 1e-10
    assert state.step_count == 1
    assert p.grad is None


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
    state = ad.AdamState([p])
    for _ in range(2):
        p.grad = np.array([g])
        ad.adam_step(state, lr=lr)
    assert abs(p.data[0] - ref_p) < 1e-12


def test_fresh_adam_moments_are_exact_zeros():
    params = [ad.Tensor(np.ones(shape), requires_grad=True) for shape in [(1,), (7,), (13, 5)]]
    state = ad.AdamState(params)
    for m, v, p in zip(state.m, state.v, params):
        assert m.shape == v.shape == p.shape and m.dtype == v.dtype == np.float64
        assert not np.any(np.signbit(m)) and not np.any(np.signbit(v))
        assert np.array_equal(m, np.zeros(p.shape)) and np.array_equal(v, np.zeros(p.shape))
    # each moment is views of one flat buffer, in parameter order
    for moment in (state.m, state.v):
        flat = moment[0].base
        assert flat.shape == (state.size,) == (1 + 7 + 65,)
        assert all(a.base is flat for a in moment)
        assert [a.ctypes.data - flat.ctypes.data for a in moment] == [0, 8, 64]
    assert not np.shares_memory(state.m[0].base, state.v[0].base)


# (shape, layout of the data, layout of the gradient), where a layout is
# "C", "F" for Fortran order, "T" for a transposed view of another array or
# "S" for a strided slice of one.  (300, 250) is three pieces; the
# non-contiguous (180, 200) is more than a piece, and is walked whole.
_ADAM_CASES = [((1,), "C", "C"), ((7,), "C", "C"), ((13, 5), "F", "C"),
               ((300, 250), "C", "C"), ((180, 200), "T", "C"), ((20, 9), "C", "F"),
               ((6, 11), "S", "S")]


def _laid_out(a, layout):
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "T":
        return a.T.copy().T
    if layout == "S":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    return a.copy()


def test_adam_step_has_the_bits_of_the_out_of_place_update(monkeypatch):
    _check_adam_bits()
    # the parts run on the pool, and the first part ends inside (300, 250)
    monkeypatch.setattr(ad, "_ADAM_POOL_VALUES", 1000)
    _check_adam_bits()


def _check_adam_bits():
    rng = np.random.default_rng(12)
    shapes = [shape for shape, _, _ in _ADAM_CASES]
    start = [rng.normal(size=shape) for shape in shapes]
    params = [ad.Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
    for p, value, (_, layout, _) in zip(params, start, _ADAM_CASES):
        p.data = _laid_out(value, layout)
    assert [p.data.flags.c_contiguous for p in params] == [
        layout == "C" for _, layout, _ in _ADAM_CASES]
    state = ad.AdamState(params)
    ref_p = [p.copy() for p in start]
    ref_m = [np.zeros(shape) for shape in shapes]
    ref_v = [np.zeros(shape) for shape in shapes]
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    for t, lr in zip((1, 2, 3), (1e-2, 3e-3, 1e-3)):
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
        for p, g, (_, _, layout) in zip(params, grads, _ADAM_CASES):
            p.grad = _laid_out(g, layout)
        ad.adam_step(state, lr)
        for i, g in enumerate(grads):
            ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
            ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
            m_hat = ref_m[i] / (1.0 - b1 ** t)
            v_hat = ref_v[i] / (1.0 - b2 ** t)
            ref_p[i] -= lr * m_hat / (np.sqrt(v_hat) + ad.ADAM_EPS)
        for i, p in enumerate(params):
            assert p.data.tobytes() == ref_p[i].tobytes()
            assert state.m[i].tobytes() == ref_m[i].tobytes()
            assert state.v[i].tobytes() == ref_v[i].tobytes()
            assert p.grad is None


@pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
def test_adam_refuses_a_learning_rate_that_is_not_finite_and_nonnegative(lr):
    # with a zero gradient, nan·0 and inf·0 would write NaN into the parameter
    p = ad.Tensor([2.5, -1.0], requires_grad=True)
    state = ad.AdamState([p])
    p.grad = np.array([0.0, 0.5])
    with pytest.raises(ContractError, match="learning rate"):
        ad.adam_step(state, lr)
    assert np.array_equal(p.data, [2.5, -1.0]) and state.step_count == 0
    assert not state.m[0].any() and not state.v[0].any()


def test_a_small_adam_state_never_touches_the_pool(monkeypatch):
    class RefusingPool:
        def submit(self, *args, **kwargs):
            raise AssertionError("a small Adam state reached the pool")

    monkeypatch.setattr(pool, "_pool", RefusingPool())
    p = ad.Tensor(np.ones((300, 250)), requires_grad=True)
    state = ad.AdamState([p])
    p.grad = np.ones(p.shape)
    ad.adam_step(state, 0.1)
    monkeypatch.setattr(ad, "_ADAM_POOL_VALUES", 1000)
    p.grad = np.ones(p.shape)
    with pytest.raises(AssertionError, match="small Adam state"):
        ad.adam_step(state, 0.1)


def test_floating_point_error_in_a_pooled_adam_part_reaches_the_caller(monkeypatch):
    if pool.part_pool() is None:
        pytest.skip("no OpenBLAS thread setter: the parts always run inline")
    monkeypatch.setattr(ad, "_ADAM_POOL_VALUES", 1000)
    threads = set()
    adam_part = ad._adam_part

    def recording_part(*args):
        threads.add(threading.current_thread())
        adam_part(*args)

    monkeypatch.setattr(ad, "_adam_part", recording_part)
    params = [ad.Tensor(np.zeros(2000), requires_grad=True) for _ in range(2)]
    state = ad.AdamState(params)
    params[0].grad = np.ones(2000)
    params[1].grad = np.full(2000, 1e200)  # g² overflows in the second part
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        ad.adam_step(state, 0.1)
    assert len(threads) >= 1 and threading.current_thread() not in threads


@pytest.mark.parametrize("pooled", [False, True])
def test_adam_step_peak_stays_under_two_pieces_per_part(monkeypatch, pooled):
    # a temporary of the largest parameter's size would be 4.5 MB here
    if pooled:
        monkeypatch.setattr(ad, "_ADAM_POOL_VALUES", 1000)
    parts = 2 if pooled and pool.part_pool() is not None else 1
    params = [ad.Tensor(np.ones((800, 700)), requires_grad=True),
              ad.Tensor(np.ones(5000), requires_grad=True)]
    state = ad.AdamState(params)
    assert state.m[0].base.nbytes >= 4 * 2 ** 20
    for p in params:
        p.grad = np.full(p.shape, 0.5)
    tracemalloc.start()
    try:
        ad.adam_step(state, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(params[0].data < 1.0) and np.all(params[1].data < 1.0)
    assert peak < 2 * parts * ad._ADAM_PIECE * 8


def test_the_two_parts_of_the_paper_model_adam_state_differ_by_at_most_a_piece():
    params = [t for _, t in pl.build_model(pl.TrainingConfig()).named_parameters()]
    for p in params:
        p.grad = np.zeros(p.shape)
    state = ad.AdamState(params)
    assert state.size > ad._ADAM_POOL_VALUES
    sizes = [sum(m.size for m, _, _, _ in part) for part in pool.deal(ad._pieces(state))]
    assert len(sizes) == 2 and sum(sizes) == state.size
    assert abs(sizes[0] - sizes[1]) <= ad._ADAM_PIECE


def test_adam_missing_grad_is_state_error():
    p = ad.Tensor([1.0], requires_grad=True)
    state = ad.AdamState([p])
    with pytest.raises(StateError):
        ad.adam_step(state, lr=0.1)


def test_adam_second_step_without_backward_is_state_error():
    p = ad.Tensor([0.5], requires_grad=True)
    state = ad.AdamState([p])
    with ad.Tape() as tape:
        tape.backward(ad.tsum(ad.square(p)))
    ad.adam_step(state, lr=0.1)
    moved = p.data.copy()
    with pytest.raises(StateError):
        ad.adam_step(state, lr=0.1)
    assert np.array_equal(p.data, moved) and state.step_count == 1


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
