"""Synthetic stochastic action grammars.

A grammar is a first-order Markov chain over C actions (plus a terminate
event) with per-action integer duration ranges.  It plays two roles: sampling
label/feature sequences for training, and exhaustively enumerating every
possible continuation of an observed prefix together with its exact
probability -- the oracle that model predictions are judged against.

The oracle works at the symbolic level: durations are taken as the midpoint
of each action's range, and a continuation is complete once its expected
durations cover the requested horizon (or the chain terminates).  Grammars
with self-transitions merge consecutive repeats into one symbolic segment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class GrammarError(ValueError):
    """Malformed grammar specification."""


# Per-class feature embeddings are drawn once from a fixed stream so every
# sample (train or test, any seed) shares the same class geometry.
_CLASS_EMBED_SEED = 714025


@dataclass
class GrammarSpec:
    actions: list[str]
    start_dist: list[float]
    transitions: list[list[float]]  # C x (C+1); last column = terminate
    duration_range: list[tuple[int, int]]  # inclusive (min_frames, max_frames)
    max_video_len: int

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def validate(self) -> "GrammarSpec":
        c = self.num_actions
        if c == 0:
            raise GrammarError("grammar needs at least one action")
        if len(self.start_dist) != c:
            raise GrammarError("startDist length must equal the number of actions")
        if abs(sum(self.start_dist) - 1.0) > 1e-9 or min(self.start_dist) < 0:
            raise GrammarError("startDist must be a probability vector summing to 1")
        if len(self.transitions) != c:
            raise GrammarError("transitions needs one row per action")
        for i, row in enumerate(self.transitions):
            if len(row) != c + 1:
                raise GrammarError(f"transition row {i} must have {c + 1} entries")
            if abs(sum(row) - 1.0) > 1e-9 or min(row) < 0:
                raise GrammarError(f"transition row {i} must sum to 1")
        if len(self.duration_range) != c:
            raise GrammarError("durationRange needs one (min, max) pair per action")
        for i, (lo, hi) in enumerate(self.duration_range):
            if lo < 1 or hi < lo:
                raise GrammarError(f"durationRange[{i}] must satisfy 1 <= min <= max")
        if self.max_video_len < 1:
            raise GrammarError("maxVideoLen must be >= 1")
        return self

    def expected_duration(self, action: int) -> float:
        lo, hi = self.duration_range[action]
        return (lo + hi) / 2.0

    def to_json(self) -> str:
        return json.dumps({
            "actions": self.actions,
            "startDist": list(self.start_dist),
            "transitions": [list(r) for r in self.transitions],
            "durationRange": [list(p) for p in self.duration_range],
            "maxVideoLen": self.max_video_len,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GrammarSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GrammarError(f"grammar is not valid JSON: {exc}") from exc
        try:
            spec = cls(
                actions=list(raw["actions"]),
                start_dist=[float(x) for x in raw["startDist"]],
                transitions=[[float(x) for x in row] for row in raw["transitions"]],
                duration_range=[(int(lo), int(hi)) for lo, hi in raw["durationRange"]],
                max_video_len=int(raw["maxVideoLen"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GrammarError(f"grammar is missing or has malformed fields: {exc}") from exc
        return spec.validate()


@dataclass
class VideoSample:
    frame_labels: np.ndarray  # (T,) int action ids
    features: np.ndarray  # (T, D) float64
    segments: list[tuple[int, int, int]]  # (action, start_frame, length_frames)


def segments_from_labels(labels) -> list[tuple[int, int, int]]:
    labels = np.asarray(labels)
    segments = []
    start = 0
    for t in range(1, len(labels) + 1):
        if t == len(labels) or labels[t] != labels[start]:
            segments.append((int(labels[start]), start, t - start))
            start = t
    return segments


def class_embeddings(num_classes: int, feature_dim: int) -> np.ndarray:
    rng = np.random.default_rng(_CLASS_EMBED_SEED)
    return rng.normal(size=(num_classes, feature_dim))


def make_features(labels, num_classes: int, feature_dim: int, noise_std: float,
                  rng: np.random.Generator) -> np.ndarray:
    base = class_embeddings(num_classes, feature_dim)[np.asarray(labels)]
    return base + rng.normal(0.0, noise_std, size=base.shape)


def sample_video(grammar: GrammarSpec, rng_seed: int, feature_dim: int = 16,
                 noise_std: float = 0.1) -> VideoSample:
    """Sample one labeled video with noisy class-embedding features."""
    rng = np.random.default_rng(rng_seed)
    c = grammar.num_actions
    labels: list[int] = []
    action = int(rng.choice(c, p=grammar.start_dist))
    while len(labels) < grammar.max_video_len:
        lo, hi = grammar.duration_range[action]
        duration = int(rng.integers(lo, hi + 1))
        labels.extend([action] * duration)
        nxt = int(rng.choice(c + 1, p=grammar.transitions[action]))
        if nxt == c:
            break
        action = nxt
    labels = np.asarray(labels[: grammar.max_video_len], dtype=np.int64)
    features = make_features(labels, c, feature_dim, noise_std, rng)
    return VideoSample(frame_labels=labels, features=features,
                       segments=segments_from_labels(labels))


# -- exact future enumeration ----------------------------------------------------


@dataclass
class FutureEntry:
    actions: tuple[int, ...]
    durations: tuple[float, ...]  # expected frames per action, truncated at the horizon
    probability: float
    ended: bool  # the chain terminated before the horizon was covered

    def rel_durations(self, horizon_frames: int) -> tuple[float, ...]:
        return tuple(d / horizon_frames for d in self.durations)


@dataclass
class FutureDistribution:
    entries: list[FutureEntry]  # sorted by probability desc, ties lexicographic
    truncation_mass: float
    horizon_frames: int
    observed_state: tuple[int, int] = (0, 0)  # (ongoing action, elapsed frames)


def _merge_consecutive(seq: list[tuple[int, float]]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    actions: list[int] = []
    durations: list[float] = []
    for a, d in seq:
        if actions and actions[-1] == a:
            durations[-1] += d
        else:
            actions.append(a)
            durations.append(d)
    return tuple(actions), tuple(durations)


def _truncate(seq: list[tuple[int, float]], horizon: float) -> list[tuple[int, float]]:
    out = []
    covered = 0.0
    for a, d in seq:
        if covered >= horizon:
            break
        take = min(d, horizon - covered)
        if take > 0:
            out.append((a, take))
        covered += take
    return out


def _ongoing_state(observed_segments) -> tuple[int, int]:
    if not observed_segments:
        raise GrammarError("observed segments must identify the current grammar state")
    action, _, length = observed_segments[-1]
    return int(action), int(length)


def enumerate_futures(grammar: GrammarSpec, observed_segments, horizon_frames: int,
                      max_depth: int = 16) -> FutureDistribution:
    """Exhaustively expand every continuation of the observed prefix.

    The ongoing action contributes its expected remaining frames first; each
    further action contributes its expected duration until the horizon is
    covered, the chain terminates, or ``max_depth`` actions have been added
    (whose probability mass is reported as ``truncation_mass``).
    """
    if horizon_frames <= 0:
        raise GrammarError("horizonFrames must be positive")
    action, elapsed = _ongoing_state(observed_segments)
    remaining = max(grammar.expected_duration(action) - elapsed, 0.0)
    c = grammar.num_actions

    accumulated: dict[tuple, FutureEntry] = {}
    truncation = 0.0

    def emit(seq: list[tuple[int, float]], prob: float, ended: bool):
        nonlocal accumulated
        actions, durations = _merge_consecutive(_truncate(seq, horizon_frames))
        key = (actions, ended)
        if key in accumulated:
            entry = accumulated[key]
            accumulated[key] = FutureEntry(entry.actions, entry.durations,
                                           entry.probability + prob, ended)
        else:
            accumulated[key] = FutureEntry(actions, durations, prob, ended)

    def expand(current: int, seq: list[tuple[int, float]], covered: float,
               prob: float, depth: int):
        nonlocal truncation
        if covered >= horizon_frames:
            emit(seq, prob, ended=False)
            return
        if depth >= max_depth:
            truncation += prob
            return
        for nxt, p in enumerate(grammar.transitions[current]):
            if p <= 0.0:
                continue
            if nxt == c:
                emit(seq, prob * p, ended=True)
            else:
                d = grammar.expected_duration(nxt)
                expand(nxt, seq + [(nxt, d)], covered + d, prob * p, depth + 1)

    initial = [(action, remaining)] if remaining > 0 else []
    expand(action, initial, remaining, 1.0, 0)

    entries = sorted(accumulated.values(), key=lambda e: (-e.probability, e.actions))
    total = sum(e.probability for e in entries) + truncation
    if abs(total - 1.0) > 1e-9:
        raise GrammarError(f"enumeration mass {total} != 1 (internal error)")
    return FutureDistribution(entries=entries, truncation_mass=truncation,
                              horizon_frames=horizon_frames,
                              observed_state=(action, elapsed))


def rollout_futures(grammar: GrammarSpec, observed_segments, horizon_frames: int,
                    max_depth: int, n_rollouts: int, rng_seed: int):
    """Monte Carlo counterpart of ``enumerate_futures`` (independent test oracle).

    Samples transition chains only, using the same expected-duration coverage
    rule.  Returns (frequency per (actions, ended) key, truncated fraction).
    """
    rng = np.random.default_rng(rng_seed)
    action, elapsed = _ongoing_state(observed_segments)
    remaining = max(grammar.expected_duration(action) - elapsed, 0.0)
    c = grammar.num_actions
    counts: dict[tuple, int] = {}
    truncated = 0

    for _ in range(n_rollouts):
        seq = [(action, remaining)] if remaining > 0 else []
        covered = remaining
        current = action
        depth = 0
        while True:
            if covered >= horizon_frames:
                key = (_merge_consecutive(_truncate(seq, horizon_frames))[0], False)
                counts[key] = counts.get(key, 0) + 1
                break
            if depth >= max_depth:
                truncated += 1
                break
            nxt = int(rng.choice(c + 1, p=grammar.transitions[current]))
            if nxt == c:
                key = (_merge_consecutive(_truncate(seq, horizon_frames))[0], True)
                counts[key] = counts.get(key, 0) + 1
                break
            d = grammar.expected_duration(nxt)
            seq.append((nxt, d))
            covered += d
            current = nxt
            depth += 1

    freqs = {key: n / n_rollouts for key, n in counts.items()}
    return freqs, truncated / n_rollouts


def oracle_top_k(dist: FutureDistribution, k: int) -> list[FutureEntry]:
    """The k most probable enumerated futures (already tie-broken)."""
    if k < 1:
        raise GrammarError("k must be >= 1")
    if k > len(dist.entries):
        import warnings

        warnings.warn(f"requested top-{k} but only {len(dist.entries)} futures exist",
                      stacklevel=2)
    return dist.entries[:k]


# -- (de)serialization of enumerated futures ------------------------------------


def distribution_to_json(dist: FutureDistribution, action_names: list[str],
                         alpha: float | None = None, beta: float | None = None) -> str:
    return json.dumps({
        "horizonFrames": dist.horizon_frames,
        "alpha": alpha,
        "beta": beta,
        "observedState": {"action": action_names[dist.observed_state[0]],
                          "elapsedFrames": dist.observed_state[1]},
        "truncationMass": dist.truncation_mass,
        "entries": [
            {
                "actions": [action_names[a] for a in e.actions],
                "durations": list(e.durations),
                "relDurations": list(e.rel_durations(dist.horizon_frames)),
                "probability": e.probability,
                "ended": e.ended,
            }
            for e in dist.entries
        ],
    })


def distribution_from_json(text: str, action_names: list[str]) -> FutureDistribution:
    raw = json.loads(text)
    index = {name: i for i, name in enumerate(action_names)}
    entries = [
        FutureEntry(
            actions=tuple(index[a] for a in e["actions"]),
            durations=tuple(float(d) for d in e["durations"]),
            probability=float(e["probability"]),
            ended=bool(e["ended"]),
        )
        for e in raw["entries"]
    ]
    state = raw.get("observedState", {})
    return FutureDistribution(
        entries=entries,
        truncation_mass=float(raw["truncationMass"]),
        horizon_frames=int(raw["horizonFrames"]),
        observed_state=(index.get(state.get("action"), 0),
                        int(state.get("elapsedFrames", 0))),
    )
