import numpy as np
import pytest

from planb.autodiff import ContractError, Graph, finite_difference_check
from planb import choicetable as ct
from planb.crnn import DecodedThread


def make_thread(g, logit_rows, n_action_steps=None):
    rows = [np.asarray(r, dtype=float) for r in logit_rows]
    ids = [g.leaf(r) for r in rows]
    n = len(rows) if n_action_steps is None else n_action_steps
    return DecodedThread(graph=g, action_logit_ids=ids,
                         actions=[int(np.argmax(r)) for r in rows[:n]],
                         raw_duration_ids=[g.leaf(np.asarray(0.0))] * n,
                         rel_durations_id=None, upper_logit_ids=[], terminated=True)


def test_similarity_penalty_hand_value():
    g = Graph()
    big = 50.0
    t1 = make_thread(g, [[big, 0.0]])
    t2 = make_thread(g, [[0.0, big]])
    table = ct.ChoiceTable(threads=[t1, t2])
    sim = ct.similarity_penalty(g, table, lam=0.1)
    expected = -(1.0 / 4.0) * 0.1 * (2.0 * np.sqrt(2.0))
    assert np.isclose(float(g.value(sim)), expected, atol=1e-6)


def test_similarity_penalty_identical_threads_zero():
    g = Graph()
    rows = [[1.0, 2.0, 0.5], [0.2, 0.1, 3.0]]
    table = ct.ChoiceTable(threads=[make_thread(g, rows), make_thread(g, rows)])
    assert np.isclose(float(g.value(ct.similarity_penalty(g, table, 0.1))), 0.0)


def test_similarity_penalty_single_thread_and_negative_lambda():
    g = Graph()
    table = ct.ChoiceTable(threads=[make_thread(g, [[1.0, 0.0]])])
    assert float(g.value(ct.similarity_penalty(g, table, 0.5))) == 0.0
    with pytest.raises(ContractError):
        ct.similarity_penalty(g, ct.ChoiceTable(threads=[]), -0.1)


def test_similarity_penalty_nonpositive_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = Graph()
        threads = [make_thread(g, rng.normal(size=(3, 4)) * 3) for _ in range(3)]
        sim = float(g.value(ct.similarity_penalty(g, ct.ChoiceTable(threads), 0.1)))
        assert sim <= 1e-12


def test_similarity_penalty_aligns_unequal_lengths():
    g = Graph()
    t1 = make_thread(g, [[5.0, 0.0], [5.0, 0.0]])  # two action steps
    t2 = make_thread(g, [[0.0, 5.0]])  # one action step
    sim = float(g.value(ct.similarity_penalty(g, ct.ChoiceTable([t1, t2]), 0.1)))
    # only position 0 is shared; distance there ~ sqrt(2)
    assert np.isclose(sim, -2.0 * 0.1 / 4.0 * np.sqrt(2.0), atol=1e-3)


def test_similarity_penalty_gradients():
    rng = np.random.default_rng(1)
    rows1 = rng.normal(size=(2, 3))
    rows2 = rng.normal(size=(2, 3))

    def build(g, ids):
        def mk(idlist):
            return DecodedThread(graph=g, action_logit_ids=idlist,
                                 actions=[0] * len(idlist),
                                 raw_duration_ids=[g.leaf(np.asarray(0.0))] * len(idlist),
                                 rel_durations_id=None, upper_logit_ids=[], terminated=True)
        t1 = mk([g.gather_row(ids[0], 0), g.gather_row(ids[0], 1)])
        t2 = mk([g.gather_row(ids[1], 0), g.gather_row(ids[1], 1)])
        return ct.similarity_penalty(g, ct.ChoiceTable([t1, t2]), 0.1)

    assert finite_difference_check(build, [rows1, rows2]) <= 1e-4


def test_rln_mask_extremes_and_determinism():
    all_ones = ct.sample_rln_mask(3, 5, 1.0, rng_seed=0)
    assert np.array_equal(all_ones.entries, np.ones((3, 5)))
    all_zeros = ct.sample_rln_mask(3, 5, 0.0, rng_seed=0)
    assert np.array_equal(all_zeros.entries, np.zeros((3, 5)))
    a = ct.sample_rln_mask(4, 7, 0.6, rng_seed=99)
    b = ct.sample_rln_mask(4, 7, 0.6, rng_seed=99)
    assert np.array_equal(a.entries, b.entries)
    assert set(np.unique(a.entries)) <= {0.0, 1.0}
    with pytest.raises(ContractError):
        ct.sample_rln_mask(2, 2, 1.5, rng_seed=0)


def test_rln_mask_monte_carlo_mean():
    mask = ct.sample_rln_mask(100, 1000, 0.9, rng_seed=7)
    assert abs(mask.entries.mean() - 0.9) < 0.01


def _uniform_table(g, k, steps, width):
    return ct.ChoiceTable([make_thread(g, [np.zeros(width)] * steps) for _ in range(k)])


def test_masked_action_loss_all_ones_equals_mean():
    g = Graph()
    table = _uniform_table(g, 2, 3, 4)
    mask = ct.RlnMask(entries=np.ones((2, 4)), phi=1.0)
    loss = ct.masked_action_loss(g, table, [0, 1], mask, eos=3)
    # every per-position CE is log(4); padded length is max(3, 3) = 3
    assert np.isclose(float(g.value(loss)), np.log(4.0))


def test_masked_action_loss_all_zeros_is_zero():
    g = Graph()
    table = _uniform_table(g, 2, 3, 4)
    mask = ct.RlnMask(entries=np.zeros((2, 4)), phi=0.0)
    loss = ct.masked_action_loss(g, table, [0, 1], mask, eos=3)
    assert float(g.value(loss)) == 0.0


def test_masked_action_loss_single_entry_drop():
    g = Graph()
    table = _uniform_table(g, 2, 2, 3)  # entries all log(3), 2 threads x 2 positions
    full = ct.RlnMask(entries=np.ones((2, 2)), phi=1.0)
    dropped = ct.RlnMask(entries=np.array([[1.0, 0.0], [1.0, 1.0]]), phi=1.0)
    l_full = float(g.value(ct.masked_action_loss(g, table, [0], full, eos=2)))
    l_drop = float(g.value(ct.masked_action_loss(g, table, [0], dropped, eos=2)))
    assert np.isclose(l_full - l_drop, np.log(3.0) / 4.0)


def test_masked_action_loss_mask_too_small():
    g = Graph()
    table = _uniform_table(g, 2, 3, 4)
    with pytest.raises(ContractError):
        ct.masked_action_loss(g, table, [0, 1], ct.RlnMask(np.ones((1, 4)), 1.0), eos=3)


def test_masked_loss_expectation_matches_phi():
    g = Graph()
    rng = np.random.default_rng(3)
    table = ct.ChoiceTable([make_thread(g, rng.normal(size=(3, 4))) for _ in range(2)])
    unmasked = float(g.value(ct.masked_action_loss(
        g, table, [0, 1], ct.RlnMask(np.ones((2, 3)), 1.0), eos=3)))
    phi = 0.9
    # expectation over mask draws, via the per-entry loss values
    lists = [ct.thread_action_loss(g, t.action_logit_ids, [0, 1], 3)
             for t in table.threads]
    values = np.array([[float(g.value(n)) for n in row] for row in lists])
    total = 0.0
    draws = 10_000
    mask_rng = np.random.default_rng(4)
    for _ in range(draws):
        m = (mask_rng.random(values.shape) < phi)
        total += (values * m).sum() / values.size
    assert abs(total / draws - phi * unmasked) <= 0.02 * max(1.0, abs(phi * unmasked))


def test_total_loss_sums_components():
    g = Graph()
    parts = [g.leaf(np.asarray(v)) for v in (1.0, 2.0, 3.0, -0.5)]
    assert np.isclose(float(g.value(ct.total_loss(g, *parts))), 5.5)
    zeros = [g.leaf(np.asarray(0.0)) for _ in range(4)]
    assert float(g.value(ct.total_loss(g, *zeros))) == 0.0


def test_total_loss_gradient_is_sum_of_component_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)

    def build(g, ids):
        a = g.sum(g.square(ids[0]))
        b = g.mean(g.mul(ids[0], ids[0]))
        c = g.sum(g.scale(ids[0], 0.3))
        d = g.scale(g.sum(ids[0]), -0.1)
        return ct.total_loss(g, a, b, c, d)

    assert finite_difference_check(build, [x]) <= 1e-4


def test_thread_log_prob_hand_values():
    g = Graph()
    t = make_thread(g, [[0.0, 0.0], [0.0, 0.0]])  # two steps, max prob 0.5 each
    assert np.isclose(ct.thread_log_prob(t), np.log(0.25))
    confident = make_thread(g, [[300.0, 0.0]])
    assert abs(ct.thread_log_prob(confident)) < 1e-9


def test_thread_log_prob_nonpositive_and_empty():
    rng = np.random.default_rng(6)
    g = Graph()
    for _ in range(20):
        t = make_thread(g, rng.normal(size=(3, 4)) * 4)
        assert ct.thread_log_prob(t) <= 1e-12
    empty = make_thread(g, [np.array([0.0, 0.0, 5.0])], n_action_steps=0)
    empty.actions = []
    assert ct.thread_log_prob(empty) == float("-inf")


def test_rank_threads_orders_by_log_prob():
    g = Graph()
    threads = []
    for target in (-1.0, -0.5, -2.0):
        # single step; class 0 holds probability exp(target), rest spread thin
        p = np.exp(target)
        logits = np.log(np.array([p] + [(1 - p) / 9] * 9))
        threads.append(make_thread(g, [logits]))
    ranked = ct.rank_threads(ct.ChoiceTable(threads))
    assert ranked.thread_order == [1, 0, 2]
    assert ranked.log_probs == sorted(ranked.log_probs, reverse=True)


def test_rank_threads_stable_ties_and_permutation():
    g = Graph()
    threads = [make_thread(g, [[1.0, 0.0]]) for _ in range(4)]
    ranked = ct.rank_threads(ct.ChoiceTable(threads))
    assert ranked.thread_order == [0, 1, 2, 3]
    rng = np.random.default_rng(8)
    for _ in range(20):
        threads = [make_thread(g, rng.normal(size=(2, 3))) for _ in range(5)]
        ranked = ct.rank_threads(ct.ChoiceTable(threads))
        assert sorted(ranked.thread_order) == list(range(5))
        assert all(x >= y for x, y in zip(ranked.log_probs, ranked.log_probs[1:]))


def test_format_predictions_layout():
    g = Graph()
    t = make_thread(g, [[9.0, 0.0, 0.0], [0.0, 9.0, 0.0]])
    t.rel_durations_id = g.leaf(np.array([0.25, 0.75]))
    table = ct.ChoiceTable([t])
    out = ct.format_predictions(table, ct.rank_threads(table), ["pour", "stir", "end"])
    line = out.strip().split("\t")
    assert line[0] == "1"
    assert line[2] == "pour:0.250000;stir:0.750000"
