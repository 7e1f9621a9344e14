import numpy as np
import pytest

from planb.autodiff import (
    ContractError,
    DimensionError,
    DomainError,
    Graph,
    finite_difference_check,
)


def test_softmax_symmetry():
    g = Graph()
    s = g.softmax(g.leaf([0.0, 0.0]))
    assert np.allclose(g.value(s), [0.5, 0.5])


def test_matmul_identity():
    g = Graph()
    out = g.matmul(g.leaf(np.eye(2)), g.leaf([[3.0], [4.0]]))
    assert np.allclose(g.value(out), [[3.0], [4.0]])


def test_pairwise_l2_hand_values():
    g = Graph()
    rows = g.leaf([[1.0, 0.0], [0.0, 1.0]])
    d = g.pairwise_l2(rows, rows)
    expected = np.array([[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 0.0]])
    assert np.allclose(g.value(d), expected)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = Graph()
        x = g.leaf(rng.normal(size=(4, 7)) * 10.0)
        s = g.value(g.softmax(x))
        assert np.all(s > 0)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_backward_sum_gives_ones():
    g = Graph()
    x = g.param(np.arange(6.0).reshape(2, 3))
    g.backward(g.sum(x))
    assert np.array_equal(g.grad(x), np.ones((2, 3)))


def test_backward_sum_of_squares():
    g = Graph()
    x = g.param([3.0])
    g.backward(g.sum(g.square(x)))
    assert np.allclose(g.grad(x), [6.0])


def test_backward_is_deterministic():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=4)

    def run():
        g = Graph()
        wp = g.param(w)
        out = g.tanh(g.matmul(wp, g.leaf(x)))
        g.backward(g.mean(g.square(out)))
        return g.grad(wp)

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_backward_rejects_nonscalar_loss():
    g = Graph()
    x = g.param([1.0, 2.0])
    with pytest.raises(ContractError):
        g.backward(g.square(x))


def test_shape_mismatch_raises():
    g = Graph()
    a, b = g.leaf([1.0, 2.0]), g.leaf([1.0, 2.0, 3.0])
    with pytest.raises(DimensionError):
        g.add(a, b)
    with pytest.raises(DimensionError):
        g.matmul(g.leaf(np.eye(2)), g.leaf(np.ones(3)))


def test_domain_errors():
    g = Graph()
    with pytest.raises(DomainError):
        g.log(g.leaf([1.0, 0.0]))
    with pytest.raises(DomainError):
        g.sqrt(g.leaf([-1.0]))
    with pytest.raises(DomainError):
        g.leaf([np.nan])


def test_gather_row_vector_and_matrix():
    g = Graph()
    m = g.leaf([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(g.value(g.gather_row(m, 1)), [3.0, 4.0])
    v = g.leaf([5.0, 6.0, 7.0])
    assert float(g.value(g.gather_row(v, 2))) == 7.0
    with pytest.raises(DimensionError):
        g.gather_row(v, 3)


def test_recompute_tracks_new_leaf_values():
    g = Graph()
    x = g.param([1.0, 2.0])
    y = g.sum(g.square(x))
    assert float(g.value(y)) == 5.0
    g.set_value(x, [3.0, 4.0])
    g.recompute()
    assert float(g.value(y)) == 25.0


# -- finite differences -----------------------------------------------------

FD_TOL = 1e-4


def test_fd_linear_function_is_exact():
    rng = np.random.default_rng(2)
    err = finite_difference_check(
        lambda g, ids: g.sum(ids[0]), [rng.normal(size=(3, 2))], eps=1e-3
    )
    assert err <= 1e-10


def _unary_builder(op):
    def build(g, ids):
        return g.mean(g.square(getattr(g, op)(ids[0])))

    return build


@pytest.mark.parametrize("op", ["sigmoid", "tanh", "exp", "softmax", "square"])
def test_fd_unary_ops(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=rng.integers(2, 6))
        worst = max(worst, finite_difference_check(_unary_builder(op), [x]))
    assert worst <= FD_TOL


@pytest.mark.parametrize("op", ["log", "sqrt"])
def test_fd_positive_domain_ops(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.5, 3.0, size=rng.integers(2, 6))
        worst = max(worst, finite_difference_check(_unary_builder(op), [x]))
    assert worst <= FD_TOL


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_fd_binary_elementwise(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(2, 5)),)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        worst = max(
            worst,
            finite_difference_check(
                lambda g, ids: g.mean(g.square(getattr(g, op)(ids[0], ids[1]))), [a, b]
            ),
        )
    assert worst <= FD_TOL


def test_fd_matmul_and_gather_and_concat_and_scale():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=4)

        def build(g, ids):
            h = g.matmul(ids[0], ids[1])
            row = g.gather_row(ids[0], 1)
            joined = g.concat([h, row, g.scale(ids[1], 0.5)])
            return g.mean(g.square(joined))

        worst = max(worst, finite_difference_check(build, [w, x]))
    assert worst <= FD_TOL


def test_fd_pairwise_l2():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 2))
        worst = max(
            worst,
            finite_difference_check(
                lambda g, ids: g.mean(g.pairwise_l2(ids[0], ids[1])), [a, b]
            ),
        )
    assert worst <= FD_TOL


def test_fd_cross_entropy_composite():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=4)

        def build(g, ids):
            logits = g.matmul(ids[0], g.leaf(x))
            probs = g.softmax(logits)
            return g.scale(g.log(g.gather_row(probs, 1)), -1.0)

        worst = max(worst, finite_difference_check(build, [w]))
    assert worst <= FD_TOL


def test_fd_rejects_bad_eps():
    with pytest.raises(ContractError):
        finite_difference_check(lambda g, ids: g.sum(ids[0]), [np.ones(2)], eps=0.5)
