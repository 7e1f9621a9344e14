"""Fused tape ops: finite differences, and agreement with the unfused compositions."""

import numpy as np
import pytest

from planb import choicetable as ct
from planb import nn
from planb.autodiff import ContractError, DimensionError, Graph, finite_difference_check
from planb.crnn import DecodedThread

import unfused

FD_TOL = 1e-4
DIFF_TOL = 1e-10  # fused vs unfused, relative to the larger array's scale


def assert_agree(fused, reference, what, scale=0.0):
    """Agreement relative to the reference's largest entry, or ``scale`` if larger."""
    fused, reference = np.asarray(fused), np.asarray(reference)
    assert fused.shape == reference.shape, what
    scale = max(float(np.max(np.abs(reference), initial=0.0)), scale, 1e-300)
    err = float(np.max(np.abs(fused - reference), initial=0.0)) / scale
    assert err <= DIFF_TOL, f"{what}: relative difference {err:.3e}"


def value_and_grads(build, arrays, seed=0):
    """Value of ``build`` and its gradient (of a random projection, if not a scalar)."""
    g = Graph()
    ids = [g.param(a) for a in arrays]
    out = build(g, ids)
    if g.value(out).size == 1:
        g.backward(out)
    else:
        weights = np.random.default_rng(seed).normal(size=g.value(out).shape)
        g.backward(g.sum(g.mul(out, g.leaf(weights))))
    return g.value(out), [g.grad(i) for i in ids]


def check_differential(fused_build, reference_build, arrays, what,
                       value_scale=0.0, grad_scale=0.0):
    value, grads = value_and_grads(fused_build, arrays)
    ref_value, ref_grads = value_and_grads(reference_build, arrays)
    assert_agree(value, ref_value, f"{what} value", value_scale)
    for n, (a, b) in enumerate(zip(grads, ref_grads)):
        assert_agree(a, b, f"{what} gradient of input {n}", grad_scale)


def gru_arrays(rng, input_dim, hidden):
    p = nn.init_gru(rng, input_dim, hidden)
    p.b_z, p.b_r, p.b_h = (rng.normal(size=hidden) * 0.1 for _ in range(3))
    return [rng.normal(size=input_dim), rng.uniform(-1, 1, size=hidden),
            *nn.flatten(p).values()]


def gru_params(ids):
    return nn.GruParams(*ids[2:])


# -- finite differences --------------------------------------------------------


def test_fd_gru():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        arrays = gru_arrays(rng, 3, 4)

        def build(g, ids):
            h1 = nn.gru_step(g, gru_params(ids), ids[0], ids[1])
            h2 = nn.gru_step(g, gru_params(ids), ids[0], h1)  # weights shared over steps
            return g.mean(g.square(h2))

        worst = max(worst, finite_difference_check(build, arrays))
    assert worst <= FD_TOL


def test_fd_affine_with_shared_and_derived_weights():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        w, x, b = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=3)

        def build(g, ids):
            w_id, x_id, b_id = ids
            y = g.affine(w_id, x_id, b_id)
            y2 = g.affine(g.scale(w_id, 0.5), x_id, b_id)  # a weight that is not a leaf
            return g.add(g.mean(g.square(g.add(y, y2))), g.sum(g.square(w_id)))

        worst = max(worst, finite_difference_check(build, [w, x, b]))
    assert worst <= FD_TOL


def test_fd_cross_entropy():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        logits = rng.normal(size=5) * 3.0
        target = int(rng.integers(5))
        worst = max(worst, finite_difference_check(
            lambda g, ids: g.cross_entropy(ids[0], target), [logits]))
    assert worst <= FD_TOL


def test_fd_slice_and_stack():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        a, b = rng.normal(size=6), rng.normal(size=6)

        def build(g, ids):
            rows = g.stack([g.slice(ids[0], 1, 4), g.slice(ids[1], 0, 3), g.slice(ids[0], 3, 6)])
            top = g.slice(g.softmax(rows), 0, 2)  # rows of a matrix
            return g.sum(g.pairwise_l2(top, top))

        worst = max(worst, finite_difference_check(build, [a, b]))
    assert worst <= FD_TOL


# -- differential tests against the unfused compositions --------------------------


@pytest.mark.parametrize("input_dim", [48, 64])
def test_gru_matches_unfused_at_hidden_64(input_dim):
    rng = np.random.default_rng(input_dim)
    arrays = gru_arrays(rng, input_dim, 64)

    def steps(step):
        def build(g, ids):
            h = ids[1]
            for _ in range(3):
                h = step(g, gru_params(ids), ids[0], h)
            return h
        return build

    check_differential(steps(nn.gru_step), steps(unfused.gru_step), arrays, "gru")


def test_affine_and_head_slice_match_unfused():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=(11, 64)), rng.normal(size=64), rng.normal(size=11)]

    def head(linear, cut):
        return lambda g, ids: cut(g, linear(g, nn.LinearParams(ids[0], ids[2]), ids[1]), 10)

    check_differential(head(nn.linear, lambda g, a, n: g.slice(a, 0, n)),
                       head(unfused.linear, unfused.head_slice), arrays, "head")


@pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
def test_cross_entropy_matches_unfused(scale):
    rng = np.random.default_rng(int(scale))
    logits = rng.normal(size=11) * scale
    for target in range(11):
        # Both forms subtract numbers of the logits' size (the loss) or of size
        # 1 (the target's gradient, softmax - 1), so a confident target's
        # near-zero loss and gradient are only that exact in either.
        check_differential(lambda g, ids: nn.cross_entropy(g, ids[0], target),
                           lambda g, ids: unfused.cross_entropy(g, ids[0], target),
                           [logits], f"cross entropy, target {target}",
                           value_scale=float(np.max(np.abs(logits))), grad_scale=1.0)


def test_time_loss_matches_unfused():
    rng = np.random.default_rng(6)
    raws = [rng.normal(size=n) for n in (2, 4, 5, 3)]
    gt = rng.dirichlet(np.ones(4))

    def build(loss):
        return lambda g, ids: loss(g, [g.softmax(i) for i in ids], gt)

    check_differential(build(nn.time_loss), build(unfused.time_loss), raws, "time loss")


def _threads(g, ids, lengths):
    """Threads whose step logits are rows of the given matrices, cut to ``lengths``."""
    threads = []
    for tid, n in zip(ids, lengths):
        rows = [g.gather_row(tid, m) for m in range(g.value(tid).shape[0])]
        threads.append(DecodedThread(
            graph=g, action_logit_ids=rows, actions=[0] * n,
            raw_duration_ids=[g.leaf(np.asarray(0.0))] * n, rel_durations_id=None,
            upper_logit_ids=[], terminated=True))
    return threads


@pytest.mark.parametrize("k", [1, 2, 10])
def test_similarity_penalty_matches_unfused(k):
    rng = np.random.default_rng(k)
    logits = [rng.normal(size=(4, 11)) * 2.0 for _ in range(k)]
    # unequal lengths: later positions have fewer live threads
    lengths = [4 - (ti % 4) for ti in range(k)]
    if k > 1:
        logits[1] = logits[0].copy()  # a collapsed pair: zero distance
        lengths[1] = lengths[0]

    def fused(g, ids):
        return ct.similarity_penalty(g, ct.ChoiceTable(_threads(g, ids, lengths)), 0.1)

    def reference(g, ids):
        return unfused.similarity_penalty(g, _threads(g, ids, lengths), 0.1)

    check_differential(fused, reference, logits, f"penalty K={k}")


def test_similarity_penalty_node_count_is_per_step():
    g = Graph()
    ids = [g.param(np.random.default_rng(t).normal(size=(3, 11))) for t in range(10)]
    threads = _threads(g, ids, [3] * 10)
    before = len(g)
    ct.similarity_penalty(g, ct.ChoiceTable(threads), 0.1)
    assert len(g) - before == 4 * 3 + 3  # stack, softmax, distances, sum per step


# -- contracts ---------------------------------------------------------------------


def test_gru_recompute_refreshes_cached_gates():
    rng = np.random.default_rng(7)
    arrays = gru_arrays(rng, 5, 6)
    moved = [a + 0.3 * rng.normal(size=a.shape) for a in arrays]

    def build(values):
        g = Graph()
        ids = [g.param(v) for v in values]
        return g, ids, g.sum(g.square(nn.gru_step(g, gru_params(ids), ids[0], ids[1])))

    g, ids, out = build(arrays)
    for i, v in zip(ids, moved):
        g.set_value(i, v)
    g.recompute()
    g.backward(out)
    fresh, fresh_ids, fresh_out = build(moved)
    fresh.backward(fresh_out)
    assert g.value(out) == fresh.value(fresh_out)
    for i, j in zip(ids, fresh_ids):
        assert np.array_equal(g.grad(i), fresh.grad(j))


def test_fused_op_shape_errors():
    g = Graph()
    with pytest.raises(DimensionError):
        g.affine(g.leaf(np.ones((2, 3))), g.leaf(np.ones(2)), g.leaf(np.ones(2)))
    with pytest.raises(DimensionError):
        g.slice(g.leaf(np.ones(3)), 2, 5)
    with pytest.raises(DimensionError):
        g.stack([g.leaf(np.ones(3)), g.leaf(np.ones(2))])
    with pytest.raises(ContractError):
        g.stack([])
    with pytest.raises(DimensionError):
        g.cross_entropy(g.leaf(np.ones((2, 2))), 0)
    x, h = g.leaf(np.ones(3)), g.leaf(np.ones(4))
    weights = [g.leaf(np.ones(s)) for s in [(4, 3), (4, 4), (4,)] * 2 + [(4, 3), (4, 3), (4,)]]
    with pytest.raises(DimensionError):
        g.gru(x, h, *weights)
