"""Dataset I/O in per-frame label convention.

A dataset on disk is: a vocab file (one action name per line, line index =
class id), a ground-truth directory (one text file per video, one label per
frame line), an optional features directory (binary T x D per video), and
split files listing video ids.  This is the de facto interchange format for
segment-annotated cooking/activity video benchmarks, so real annotation data
drops straight in.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import VideoSample, segments_from_labels


class DataError(Exception):
    """Malformed or inconsistent dataset content."""


FEATURE_MAGIC = b"PLNF"


@dataclass
class DatasetLayout:
    vocab_file: Path
    ground_truth_dir: Path
    features_dir: Path | None = None
    split_files: dict[str, Path] | None = None

    @classmethod
    def from_root(cls, root) -> "DatasetLayout":
        """Conventional layout under one directory (as written by gen-data)."""
        root = Path(root)
        features = root / "features"
        splits = {p.stem: p for p in sorted((root / "splits").glob("*.txt"))} \
            if (root / "splits").is_dir() else None
        return cls(
            vocab_file=root / "vocab.txt",
            ground_truth_dir=root / "groundTruth",
            features_dir=features if features.is_dir() else None,
            split_files=splits,
        )


# -- plain-text files ------------------------------------------------------------


def read_vocab(path) -> list[str]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"vocab file not found: {path}")
    names = [line.strip() for line in path.read_text().splitlines() if line.strip()]
    if not names:
        raise DataError(f"vocab file is empty: {path}")
    if len(set(names)) != len(names):
        raise DataError(f"vocab file has duplicate action names: {path}")
    return names


def write_vocab(path, names: list[str]) -> None:
    Path(path).write_text("".join(f"{n}\n" for n in names))


def read_label_file(path, vocab_index: dict[str, int]) -> np.ndarray:
    path = Path(path)
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            name = line.strip()
            if not name:
                continue
            if name not in vocab_index:
                raise DataError(f"{path}:{lineno}: unknown label {name!r}")
            labels.append(vocab_index[name])
    if not labels:
        raise DataError(f"{path}: empty label file")
    return np.asarray(labels, dtype=np.int64)


def write_label_file(path, labels, vocab: list[str]) -> None:
    Path(path).write_text("".join(f"{vocab[int(a)]}\n" for a in labels))


def read_split(path) -> list[str]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"split file not found: {path}")
    return [line.strip() for line in path.read_text().splitlines() if line.strip()]


def write_split(path, video_ids: list[str]) -> None:
    Path(path).write_text("".join(f"{v}\n" for v in video_ids))


# -- binary feature files ----------------------------------------------------------


def write_features(path, features: np.ndarray) -> None:
    """Header (magic, T u64, D u64) then row-major float64 little-endian."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DataError("features must be a T x D matrix")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<QQ", feats.shape[0], feats.shape[1]))
        fh.write(feats.astype("<f8").tobytes())


def read_features(path) -> np.ndarray:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file (bad magic {blob[:4]!r})")
    t, d = struct.unpack_from("<QQ", blob, 4)
    expected = 20 + 8 * t * d
    if len(blob) != expected:
        raise DataError(f"{path}: truncated feature file ({len(blob)} != {expected} bytes)")
    return np.frombuffer(blob, dtype="<f8", count=t * d, offset=20).reshape(t, d).astype(np.float64)


# -- dataset loading ----------------------------------------------------------------


def load_dataset(layout: DatasetLayout, split: str | None = None):
    """Parse a dataset; returns (vocab names, {video id -> VideoSample}).

    Videos without a feature file fall back to one-hot label embeddings and
    are flagged with a warning.
    """
    vocab = read_vocab(layout.vocab_file)
    index = {name: i for i, name in enumerate(vocab)}
    gt_dir = Path(layout.ground_truth_dir)
    if not gt_dir.is_dir():
        raise DataError(f"ground truth directory not found: {gt_dir}")

    if split is not None:
        if not layout.split_files or split not in layout.split_files:
            raise DataError(f"unknown split {split!r}")
        video_ids = read_split(layout.split_files[split])
    else:
        video_ids = sorted(p.stem for p in gt_dir.glob("*.txt"))

    videos: dict[str, VideoSample] = {}
    missing_features = []
    for vid in video_ids:
        labels = read_label_file(gt_dir / f"{vid}.txt", index)
        feature_path = Path(layout.features_dir) / f"{vid}.plnf" if layout.features_dir else None
        if feature_path is not None and feature_path.is_file():
            features = read_features(feature_path)
            if features.shape[0] != labels.shape[0]:
                raise DataError(
                    f"{feature_path}: {features.shape[0]} feature rows for "
                    f"{labels.shape[0]} frames")
        else:
            features = np.eye(len(vocab))[labels]
            missing_features.append(vid)
        videos[vid] = VideoSample(frame_labels=labels, features=features,
                                  segments=segments_from_labels(labels))
    if missing_features:
        warnings.warn(
            f"{len(missing_features)} video(s) had no feature file; "
            "substituted one-hot label embeddings", stacklevel=2)
    return vocab, videos


def downsample(video: VideoSample, factor: int) -> VideoSample:
    """Keep every factor-th frame and recompute segments.

    Segments that vanish entirely (shorter than the stride) are dropped with
    a warning.
    """
    if factor < 1:
        raise DataError("downsample factor must be >= 1")
    labels = video.frame_labels[::factor]
    features = video.features[::factor]
    segments = segments_from_labels(labels)
    if len(segments) < len(video.segments):
        warnings.warn(
            f"downsampling by {factor} dropped "
            f"{len(video.segments) - len(segments)} short segment(s)", stacklevel=2)
    return VideoSample(frame_labels=labels, features=np.ascontiguousarray(features),
                       segments=segments)


# -- observation / prediction split ---------------------------------------------------


@dataclass
class EvalInstance:
    video_id: str
    observed_features: np.ndarray  # (n_obs, D)
    observed_labels: np.ndarray  # (n_obs,)
    observed_segments: list[tuple[int, int, int]]
    gt_future_segments: list[tuple[int, float]]  # (action, relative duration)
    gt_future_labels: np.ndarray  # (horizon_frames,)
    horizon_frames: int
    alpha: float
    beta: float

    @property
    def future_actions(self) -> list[int]:
        return [a for a, _ in self.gt_future_segments]

    @property
    def future_rel_durations(self) -> np.ndarray:
        return np.asarray([d for _, d in self.gt_future_segments])

    @property
    def last_observed_action(self) -> int:
        return int(self.observed_labels[-1])


def check_fractions(alpha: float, beta: float) -> None:
    """Observed and predicted fractions must lie in (0, 1) and sum to at most 1."""
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0 and alpha + beta <= 1.0):
        raise DataError(f"invalid observation/prediction fractions ({alpha}, {beta})")


def make_eval_instance(video: VideoSample, alpha: float, beta: float,
                       video_id: str = "") -> EvalInstance:
    """Split a video into an observed prefix and a ground-truth horizon.

    Both window sizes use floor(fraction * T).  The first ground-truth future
    segment is the remainder of whatever action straddles the observation
    boundary; relative durations are normalized over the horizon.
    """
    check_fractions(alpha, beta)
    t = len(video.frame_labels)
    if t < 10:
        raise DataError(f"video too short to split: {t} frames")
    n_obs = int(np.floor(alpha * t))
    horizon = int(np.floor(beta * t))
    if n_obs < 1 or horizon < 1:
        raise DataError(f"degenerate split for {t} frames: observed {n_obs}, horizon {horizon}")
    horizon_labels = video.frame_labels[n_obs:n_obs + horizon]
    future_segments = [(a, length / horizon)
                       for a, _, length in segments_from_labels(horizon_labels)]
    return EvalInstance(
        video_id=video_id,
        observed_features=np.ascontiguousarray(video.features[:n_obs]),
        observed_labels=video.frame_labels[:n_obs],
        observed_segments=segments_from_labels(video.frame_labels[:n_obs]),
        gt_future_segments=future_segments,
        gt_future_labels=horizon_labels,
        horizon_frames=horizon,
        alpha=alpha,
        beta=beta,
    )
