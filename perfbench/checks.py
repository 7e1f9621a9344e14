"""Output checks for the benchmark, computed independently of planb.

Every check raises ``CheckFailed`` with a one-line reason when the program's
output disagrees with an independent computation or a required property.
Nothing here imports planb: the frame expansion, mean-over-class metrics,
thread log probabilities and oracle path products are recomputed from
scratch, so a fault in the program cannot hide in the reference.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

GRAD_REL_TOL = 1e-6  # central difference vs backward directional derivative
METRIC_TOL = 1e-12  # recomputed acc@k / MPTA@k / choice F1 vs the program's
LOG_PROB_TOL = 1e-9  # recomputed thread log probability vs the ranking's
ORACLE_PROB_TOL = 1e-12  # oracle entry probability vs the grammar path product
ORACLE_MASS_TOL = 1e-9  # entries plus truncation mass vs 1; durations vs horizon


class CheckFailed(AssertionError):
    """The program's output failed a benchmark check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- training -------------------------------------------------------------------


def check_directional_derivative(analytic: float, f_plus: float, f_minus: float,
                                 eps: float, grad_norm: float,
                                 rel_tol: float = GRAD_REL_TOL) -> float:
    """Central difference (f(x + eps d) - f(x - eps d)) / 2 eps against grad . d.

    Returns the relative error.  Its scale is the larger derivative and
    ``grad_norm`` (|grad|, the typical size of grad . d for a standard normal
    d): a direction that is nearly orthogonal to the gradient makes grad . d
    tiny, and the error relative to it alone would then measure round-off.
    """
    require(all(math.isfinite(v) for v in (analytic, f_plus, f_minus, grad_norm)),
            "non-finite loss or directional derivative")
    numeric = (f_plus - f_minus) / (2.0 * eps)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), grad_norm, 1e-8)
    require(rel <= rel_tol,
            f"directional derivative {analytic!r} vs central difference {numeric!r} "
            f"(relative error {rel:.3e} > {rel_tol:.0e})")
    return rel


def check_finite(name: str, values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    require(bool(np.all(np.isfinite(arr))), f"{name} has non-finite entries")


# -- ranking ---------------------------------------------------------------------


def thread_log_prob(logit_rows, has_actions: bool) -> float:
    """Sum over steps of log softmax at the greedy (argmax) choice.

    A thread that emitted no action before EOS scores -inf, so it ranks last.
    """
    if not has_actions:
        return float("-inf")
    total = 0.0
    for row in logit_rows:
        row = np.asarray(row, dtype=np.float64)
        top = float(row.max())
        total += top - (top + math.log(float(np.exp(row - top).sum())))
    return total


def check_ranking(order, log_probs, own_log_probs, tol: float = LOG_PROB_TOL) -> None:
    """A ranking is a permutation ordered by the threads' own log probabilities."""
    k = len(own_log_probs)
    require(sorted(order) == list(range(k)), f"ranking {list(order)} is not a permutation of {k}")
    require(len(log_probs) == k, f"{len(log_probs)} log probs for {k} threads")
    for rank, (ti, lp) in enumerate(zip(order, log_probs)):
        require(lp <= 0.0, f"log prob {lp!r} at rank {rank} is positive")
        own = own_log_probs[ti]
        same = (lp == own) or abs(lp - own) <= tol
        require(same, f"rank {rank}: thread {ti} log prob {lp!r}, recomputed {own!r}")
        if rank:
            require(lp <= log_probs[rank - 1], f"log probs increase at rank {rank}")


# -- evaluation metrics -----------------------------------------------------------


def expand_frames(actions, rel_durations, horizon: int, fill_action: int) -> list[int]:
    """Largest-remainder apportionment of a horizon over predicted segments.

    Each segment gets the floor of its quota rel / sum(rel) * horizon; the
    leftover frames go to the largest fractional parts, ties to the earlier
    segment.  An empty prediction fills the horizon with ``fill_action``.
    """
    if not actions:
        return [fill_action] * horizon
    rel = np.asarray(rel_durations, dtype=np.float64)
    total = rel.sum()
    rel = rel / total if total > 0 else np.full(len(actions), 1.0 / len(actions))
    quotas = [float(q) for q in rel * horizon]
    counts = [math.floor(q) for q in quotas]
    leftover = horizon - sum(counts)
    by_remainder = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    frames: list[int] = []
    for action, count in zip(actions, counts):
        frames.extend([int(action)] * count)
    return frames


def _mean_over_classes(hit_count: dict, frame_count: dict) -> float:
    values = [hit_count.get(c, 0) / n for c, n in sorted(frame_count.items())]
    return float(np.mean(values)) if values else 0.0


def recompute_metrics(videos, k_threads: int):
    """acc@k, MPTA@k and choice F1 for k = 1..K from ranked per-video frames.

    ``videos`` holds one (ranked frame rows, ground-truth frames) pair per
    video; frames are pooled over all videos before the mean over classes.
    """
    frame_count: dict[int, int] = {}
    any_hits = [dict() for _ in range(k_threads)]  # k-1 -> class -> frames hit by top-k
    thread_hits = [dict() for _ in range(k_threads)]  # j -> class -> frames hit by thread j
    for rows, gt in videos:
        for t, c in enumerate(gt):
            c = int(c)
            frame_count[c] = frame_count.get(c, 0) + 1
            hit = False
            for j in range(k_threads):
                if rows[j][t] == c:
                    hit = True
                    thread_hits[j][c] = thread_hits[j].get(c, 0) + 1
                if hit:
                    any_hits[j][c] = any_hits[j].get(c, 0) + 1
    acc = [_mean_over_classes(any_hits[k], frame_count) for k in range(k_threads)]
    per_thread = [_mean_over_classes(thread_hits[j], frame_count) for j in range(k_threads)]
    mpta = [float(np.mean(per_thread[:k + 1])) for k in range(k_threads)]
    f1 = [0.0 if m + a == 0 else 2.0 * m * a / (m + a) for m, a in zip(mpta, acc)]
    return acc, mpta, f1


def check_metric_properties(acc, mpta, f1) -> None:
    for name, values in (("acc@k", acc), ("MPTA@k", mpta), ("choice F1", f1)):
        for k, v in enumerate(values, start=1):
            require(0.0 <= v <= 1.0, f"{name} at k={k} is {v!r}, outside [0, 1]")
    for k in range(1, len(acc)):
        require(acc[k] >= acc[k - 1], f"acc@k decreases from k={k} to k={k + 1}")


def check_metrics_match(own, reported, tol: float = METRIC_TOL) -> None:
    for name, mine, theirs in zip(("acc@k", "MPTA@k", "choice F1"), own, reported):
        require(len(mine) == len(theirs), f"{name}: {len(theirs)} values, expected {len(mine)}")
        for k, (a, b) in enumerate(zip(mine, theirs), start=1):
            require(abs(a - b) <= tol, f"{name} at k={k}: program {b!r}, recomputed {a!r}")


# -- oracle ------------------------------------------------------------------------


def observed_state(labels, alpha: float, beta: float) -> tuple[int, int, int]:
    """(ongoing action, its elapsed frames, horizon frames) of a video's split."""
    t = len(labels)
    n_obs = int(math.floor(alpha * t))
    horizon = int(math.floor(beta * t))
    action = labels[n_obs - 1]
    elapsed = 0
    while elapsed < n_obs and labels[n_obs - 1 - elapsed] == action:
        elapsed += 1
    return action, elapsed, horizon


def check_oracle(grammar: dict, oracle: dict, action: str, elapsed: int, horizon: int) -> int:
    """Check one oracle file against its grammar and the video's observed split.

    ``grammar`` and ``oracle`` are the parsed JSON documents.  The grammar must
    have no self-transitions, so every entry is one transition path.  Returns
    the number of entries.
    """
    names = grammar["actions"]
    index = {name: i for i, name in enumerate(names)}
    trans = grammar["transitions"]
    c = len(names)
    require(all(trans[i][i] == 0.0 for i in range(c)), "check needs no self-transitions")
    expected = [(lo + hi) / 2.0 for lo, hi in grammar["durationRange"]]

    state = oracle["observedState"]
    require(state["action"] == action and state["elapsedFrames"] == elapsed,
            f"oracle observed state {state} != ({action!r}, {elapsed})")
    require(oracle["horizonFrames"] == horizon,
            f"oracle horizon {oracle['horizonFrames']} != {horizon}")
    current = index[action]
    remaining = max(expected[current] - elapsed, 0.0)

    mass = oracle["truncationMass"]
    require(0.0 <= mass <= 1.0, f"truncation mass {mass!r} outside [0, 1]")
    seen = set()
    for n, entry in enumerate(oracle["entries"]):
        path = [index[a] for a in entry["actions"]]
        key = (tuple(path), entry["ended"])
        require(key not in seen, f"entry {n} repeats a future")
        seen.add(key)
        steps = path
        if remaining > 0:
            require(bool(path) and path[0] == current,
                    f"entry {n} does not continue the ongoing action")
            steps = path[1:]
        prob = 1.0
        prev = current
        for nxt in steps:
            prob *= trans[prev][nxt]
            prev = nxt
        if entry["ended"]:
            prob *= trans[prev][c]
        require(abs(prob - entry["probability"]) <= ORACLE_PROB_TOL,
                f"entry {n} probability {entry['probability']!r} != path product {prob!r}")
        if not entry["ended"]:
            covered = sum(entry["durations"])
            require(abs(covered - horizon) <= ORACLE_MASS_TOL,
                    f"entry {n} durations sum to {covered!r}, horizon is {horizon}")
        mass += entry["probability"]
    require(abs(mass - 1.0) <= ORACLE_MASS_TOL, f"oracle mass sums to {mass!r}, not 1")
    return len(oracle["entries"])


def label_frames(path) -> list[str]:
    return [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]


def feature_frames(path) -> int:
    """Frame count from a feature file header, checked against the file size."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"PLNF", f"{path}: bad feature magic")
    t, d = struct.unpack_from("<QQ", blob, 4)
    require(len(blob) == 20 + 8 * t * d, f"{path}: size does not match {t} x {d}")
    return t
