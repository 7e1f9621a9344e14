"""The benchmark's output checks accept hand-computed cases and reject corrupted ones."""

import json
import math
import struct
from pathlib import Path

import pytest

import checks
from checks import CheckFailed


# -- gradients --------------------------------------------------------------------


def _square_sum(x):
    return sum(v * v for v in x)


def test_directional_derivative_matches_hand_gradient():
    # f(x) = sum(x^2) at x = (1, 2) along d = (1, -1): grad . d = 2 - 4 = -2.
    x, d, eps = (1.0, 2.0), (1.0, -1.0), 1e-3
    f_plus = _square_sum([a + eps * b for a, b in zip(x, d)])
    f_minus = _square_sum([a - eps * b for a, b in zip(x, d)])
    grad_norm = math.hypot(2.0, 4.0)
    assert checks.check_directional_derivative(-2.0, f_plus, f_minus, eps, grad_norm) < 1e-9
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(2.0, f_plus, f_minus, eps, grad_norm)  # flipped


def test_directional_derivative_along_a_near_orthogonal_direction():
    # f(x) = sum(x^2) at x = (1, 2), grad (2, 4), along d = (2, -1 + 1e-6): grad . d = 4e-6.
    # Round-off of 1e-10 is tiny next to |grad| but 2.5e-5 of grad . d itself.
    grad_norm = math.hypot(2.0, 4.0)
    numeric = 4e-6 + 1e-10
    assert checks.check_directional_derivative(4e-6, numeric, -numeric, 1.0, grad_norm) < 1e-9
    with pytest.raises(CheckFailed):
        checks.check_directional_derivative(4e-6 + 1e-5, numeric, -numeric, 1.0, grad_norm)


def test_non_finite_values_are_rejected():
    checks.check_finite("loss", [0.5, 1.0])
    with pytest.raises(CheckFailed):
        checks.check_finite("loss", [0.5, math.nan])


# -- oracle -----------------------------------------------------------------------

# a -> b | c; b -> a | c | end; c -> a.  Expected durations a 2, b 3, c 3.
GRAMMAR = {
    "actions": ["a", "b", "c"],
    "startDist": [1.0, 0.0, 0.0],
    "transitions": [[0.0, 0.5, 0.5, 0.0], [0.4, 0.0, 0.3, 0.3], [1.0, 0.0, 0.0, 0.0]],
    "durationRange": [[2, 2], [3, 3], [3, 3]],
    "maxVideoLen": 40,
}


def _oracle():
    """Futures of (a, 1 frame elapsed) over a 5-frame horizon, expanded by hand."""
    def entry(actions, durations, p, ended=False):
        return {"actions": actions, "durations": durations,
                "relDurations": [v / 5 for v in durations], "probability": p, "ended": ended}

    return {
        "horizonFrames": 5, "alpha": 0.3, "beta": 0.5,
        "observedState": {"action": "a", "elapsedFrames": 1},
        "truncationMass": 0.0,
        "entries": [
            entry(["a", "c", "a"], [1.0, 3.0, 1.0], 0.5),
            entry(["a", "b", "a"], [1.0, 3.0, 1.0], 0.2),
            entry(["a", "b", "c"], [1.0, 3.0, 1.0], 0.15),
            entry(["a", "b"], [1.0, 3.0], 0.15, ended=True),
        ],
    }


def test_oracle_matches_hand_expansion():
    assert checks.check_oracle(GRAMMAR, _oracle(), "a", 1, 5) == 4


def test_oracle_probability_off_by_1e6_is_rejected():
    oracle = _oracle()
    oracle["entries"][1]["probability"] += 1e-6
    with pytest.raises(CheckFailed, match="path product"):
        checks.check_oracle(GRAMMAR, oracle, "a", 1, 5)


def test_oracle_lost_mass_and_short_durations_are_rejected():
    oracle = _oracle()
    del oracle["entries"][3]
    with pytest.raises(CheckFailed, match="mass"):
        checks.check_oracle(GRAMMAR, oracle, "a", 1, 5)
    oracle = _oracle()
    oracle["entries"][0]["durations"] = [1.0, 3.0, 0.5]
    with pytest.raises(CheckFailed, match="horizon"):
        checks.check_oracle(GRAMMAR, oracle, "a", 1, 5)


def test_oracle_with_wrong_observed_state_is_rejected():
    with pytest.raises(CheckFailed, match="observed state"):
        checks.check_oracle(GRAMMAR, _oracle(), "a", 2, 5)


def test_observed_state_of_a_split():
    labels = ["a"] * 4 + ["b"] * 6 + ["c"] * 10  # 20 frames: observe 6, predict 10
    assert checks.observed_state(labels, 0.3, 0.5) == ("b", 2, 10)


def test_feature_and_label_files_read_back(tmp_path):
    feats = tmp_path / "v.plnf"
    feats.write_bytes(b"PLNF" + struct.pack("<QQ", 3, 2) + struct.pack("<6d", *range(6)))
    assert checks.feature_frames(feats) == 3
    feats.write_bytes(feats.read_bytes()[:-8])
    with pytest.raises(CheckFailed, match="size"):
        checks.feature_frames(feats)
    labels = tmp_path / "v.txt"
    labels.write_text("a\na\nb\n\n")
    assert checks.label_frames(labels) == ["a", "a", "b"]


# -- evaluation metrics -----------------------------------------------------------


def test_expand_frames_largest_remainder():
    assert checks.expand_frames([3, 4], [0.5, 0.5], 5, 0) == [3, 3, 3, 4, 4]  # tie: earlier
    assert checks.expand_frames([3, 4], [0.2, 0.8], 4, 0) == [3, 4, 4, 4]
    assert checks.expand_frames([], [], 3, 7) == [7, 7, 7]


def test_expand_frames_agrees_with_the_program():
    metrics = pytest.importorskip("planb.metrics")
    cases = [([1, 2, 3], [0.1, 0.3, 0.6], 17), ([5], [1.0], 4), ([2, 1], [0.0, 0.0], 5),
             ([0, 4, 2, 1], [0.26, 0.24, 0.25, 0.25], 11)]
    for actions, rel, horizon in cases:
        assert checks.expand_frames(actions, rel, horizon, 0) == \
            metrics.expand_thread(actions, rel, horizon, 0).tolist()


def _two_thread_video():
    # gt 0 0 1 1; thread 0 says all 0, thread 1 says all 1.
    return [([[0, 0, 0, 0], [1, 1, 1, 1]], [0, 0, 1, 1])]


def test_recomputed_metrics_match_hand_values():
    acc, mpta, f1 = checks.recompute_metrics(_two_thread_video(), 2)
    assert acc == [0.5, 1.0]
    assert mpta == [0.5, 0.5]
    assert f1[0] == 0.5 and f1[1] == pytest.approx(2 / 3, abs=1e-15)
    checks.check_metric_properties(acc, mpta, f1)
    checks.check_metrics_match((acc, mpta, f1), (acc, mpta, f1))
    with pytest.raises(CheckFailed, match="acc@k at k=2"):
        checks.check_metrics_match((acc, mpta, f1), ([0.5, 1.0 - 1e-9], mpta, f1))


def test_non_monotone_accuracy_is_rejected():
    with pytest.raises(CheckFailed, match="decreases"):
        checks.check_metric_properties([0.6, 0.5], [0.6, 0.55], [0.6, 0.52])
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_metric_properties([0.5, 1.5], [0.5, 0.5], [0.5, 0.5])


# -- rankings ---------------------------------------------------------------------


def test_thread_log_prob_by_hand():
    assert checks.thread_log_prob([[0.0, 0.0]], True) == pytest.approx(math.log(0.5))
    both = checks.thread_log_prob([[math.log(3.0), 0.0], [0.0, 0.0]], True)
    assert both == pytest.approx(math.log(0.75) + math.log(0.5))
    assert checks.thread_log_prob([[0.0, 0.0]], False) == -math.inf


def test_ranking_accepts_sorted_and_rejects_permuted():
    own = [math.log(0.5), math.log(0.75), -math.inf]
    order, log_probs = [1, 0, 2], [own[1], own[0], own[2]]
    checks.check_ranking(order, log_probs, own)
    with pytest.raises(CheckFailed):
        checks.check_ranking([0, 1, 2], log_probs, own)  # permuted ranking
    with pytest.raises(CheckFailed, match="increase"):
        checks.check_ranking([0, 1, 2], [own[0], own[1], own[2]], own)
    with pytest.raises(CheckFailed, match="permutation"):
        checks.check_ranking([1, 1, 2], log_probs, own)


# -- the benchmark's declared metrics ---------------------------------------------


def test_per_layer_metrics_are_the_declared_ones():
    import run

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                          .read_text())
    names = set(run.PER_LAYER) | set(run.COUNTERS) | {run.OVERHEAD}
    assert names == {m["name"] for m in declared["per_layer"]}


# -- the timing estimator ------------------------------------------------------------


def test_marked_call_splits_at_hooked_calls_and_restores_them():
    workloads = pytest.importorskip("workloads")
    import types

    mod = types.SimpleNamespace()
    mod.step = lambda name: name
    original = mod.step

    def run():
        return [mod.step(n) for n in ("a", "b", "a")]

    result, units = workloads._marked_call([(mod, "step", lambda a: a[0])], run)
    assert result == ["a", "b", "a"]
    assert [name for name, _ in units] == ["start", "a", "b", "a"]
    assert all(seconds >= 0.0 for _, seconds in units)
    assert mod.step is original
    _, units = workloads._marked_call([(mod, "step", None)], run)
    assert [name for name, _ in units] == ["start", 1, 2, 3]


def test_fastest_units_keep_each_units_minimum():
    workloads = pytest.importorskip("workloads")

    fastest = workloads.FastestUnits("train")
    fastest.add([("start", 5.0), ("a", 3.0), ("b", 2.0), ("a", 1.0)])
    fastest.add([("start", 4.0), ("a", 2.0), ("b", 6.0), ("a", 9.0)])
    assert fastest.times() == [4.0, 1.0, 2.0, 1.0]
    assert fastest.times(skip=1) == [1.0, 2.0, 1.0]
    with pytest.raises(CheckFailed, match="timed units"):
        fastest.add([("start", 4.0), ("b", 2.0), ("a", 1.0), ("a", 1.0)])
