"""End-to-end training: loss assembly, Adam loop, multi-restart, evaluation.

Each sample gets a fresh tape: encode the observed window, decode K threads
(teacher-forced, one step per ground-truth position plus the EOS slot), draw
a fresh random-loss-negation mask, assemble the total loss, backprop, and
take one Adam step.  The learning rate decays by a fixed factor on a fixed
epoch schedule and teacher forcing anneals to zero over the final epochs.

The per-step loss is

    recognition (frame CE) + masked action CE + duration MSE + similarity
    penalty + the upper-level heads' auxiliary CE terms

-- the auxiliary terms exist because discrete argmax feedback blocks every
other gradient path into the upper GRUs, classifiers, and embeddings.
"""

from __future__ import annotations

import csv
import dataclasses
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import choicetable as ct
from . import crnn, metrics, nn
from .autodiff import Graph
from .dataio import DataError, EvalInstance, downsample, make_eval_instance
from .datagen import VideoSample


class NumericError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    lambda_: float = 0.1  # similarity penalty weight
    phi: float = 0.9  # probability a loss term is kept by the RLN mask
    k_threads: int = 10
    lr: float = 0.001
    lr_decay: float = 0.8
    lr_decay_every: int = 20
    epochs: int = 80
    restarts: int = 3
    alpha: float = 0.3
    beta: float = 0.5
    hidden_dim_lower: int = 64
    hidden_dim_upper: int = 64
    embed_dim: int = 32
    feature_dim: int = 16
    seed: int = 0
    teacher_forcing_start: float = 0.5
    teacher_forcing_anneal: int = 20  # epochs over which forcing decays to 0
    collaborative: bool = True
    shared_decoder_init: bool = False
    downsample_factor: int = 1
    restart_mode: str = "best"  # "best" or "average"
    validation_fraction: float = 0.1
    label: str = "dataset"


# Wire names (config files, --set overrides) -> dataclass attributes.
CONFIG_KEYS = {
    "lambda": "lambda_",
    "phi": "phi",
    "K": "k_threads",
    "lr": "lr",
    "lrDecay": "lr_decay",
    "lrDecayEvery": "lr_decay_every",
    "epochs": "epochs",
    "restarts": "restarts",
    "alpha": "alpha",
    "beta": "beta",
    "hiddenDimLower": "hidden_dim_lower",
    "hiddenDimUpper": "hidden_dim_upper",
    "embedDim": "embed_dim",
    "featureDim": "feature_dim",
    "seed": "seed",
    "teacherForcingStart": "teacher_forcing_start",
    "teacherForcingAnneal": "teacher_forcing_anneal",
    "collaborative": "collaborative",
    "sharedDecoderInit": "shared_decoder_init",
    "downsampleFactor": "downsample_factor",
    "restartMode": "restart_mode",
    "validationFraction": "validation_fraction",
    "label": "label",
}


def _coerce(field_type, raw: str):
    if field_type is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise DataError(f"expected a boolean, got {raw!r}")
    return field_type(raw)


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Flat key=value config; unknown keys are an error."""
    config = dataclasses.replace(base) if base else TrainConfig()
    # every field has a default of its own type
    concrete = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise DataError(f"config line {lineno}: unknown key {key!r}")
        attr = CONFIG_KEYS[key]
        setattr(config, attr, _coerce(concrete[attr], raw))
    return config


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    return parse_config_text(Path(path).read_text(), base)


def config_to_text(config: TrainConfig) -> str:
    lines = []
    for wire, attr in CONFIG_KEYS.items():
        lines.append(f"{wire}={getattr(config, attr)}")
    return "\n".join(lines) + "\n"


def lr_at(config: TrainConfig, epoch: int) -> float:
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


def teacher_forcing_at(config: TrainConfig, epoch: int) -> float:
    span = min(config.teacher_forcing_anneal, config.epochs)
    begin = config.epochs - span
    if epoch < begin:
        return config.teacher_forcing_start
    return config.teacher_forcing_start * (config.epochs - epoch) / span


# -- data preparation ------------------------------------------------------------


def prepare_instances(videos: dict[str, VideoSample], config: TrainConfig) -> list[EvalInstance]:
    """Downsample and split every video; too-short videos are skipped with a warning."""
    instances = []
    skipped = []
    for vid in sorted(videos):
        video = videos[vid]
        if config.downsample_factor > 1:
            video = downsample(video, config.downsample_factor)
        try:
            instances.append(make_eval_instance(video, config.alpha, config.beta, vid))
        except DataError:
            skipped.append(vid)
    if skipped:
        warnings.warn(f"skipped {len(skipped)} video(s) too short to split", stacklevel=2)
    if not instances:
        raise DataError("no usable videos after the observation/prediction split")
    return instances


# -- loss assembly ---------------------------------------------------------------


def build_sample_loss(g: Graph, bound: crnn.CrnnParams, instance: EvalInstance,
                      lam: float, mask: ct.RlnMask, teacher_force=None):
    """Assemble one sample's full training loss on the tape.

    Returns (loss node, {component name -> node}, choice table).
    """
    gt_actions = instance.future_actions
    enc = crnn.encode(g, bound, instance.observed_features)
    recognition = crnn.encoder_recognition_loss(g, enc, instance.observed_labels)
    upper_terms = []
    upper_rec = crnn.encoder_upper_recognition_loss(g, enc, instance.observed_labels)
    if upper_rec is not None:
        upper_terms.append(upper_rec)

    threads = [
        crnn.decode_thread(g, bound, dec, enc.h_lower, enc.h_upper,
                           max_len=len(gt_actions) + 1, num_steps=len(gt_actions) + 1,
                           gt_actions=gt_actions, teacher_force=teacher_force)
        for dec in bound.decoders
    ]
    table = ct.ChoiceTable(threads)

    action = ct.masked_action_loss(g, table, gt_actions, mask, bound.eos)
    if bound.collaborative:
        upper_lists = [crnn.thread_action_loss(g, t.upper_logit_ids, gt_actions, bound.eos)
                       for t in threads]
        upper_terms.append(ct.masked_mean(g, upper_lists, mask.entries))
    time = nn.time_loss(g, [t.rel_durations_id for t in threads],
                        instance.future_rel_durations)
    sim = ct.similarity_penalty(g, table, lam)

    loss = ct.total_loss(g, recognition, action, time, sim)
    upper = None
    if upper_terms:
        upper = upper_terms[0]
        for term in upper_terms[1:]:
            upper = g.add(upper, term)
        loss = g.add(loss, upper)
    components = {"recognition": recognition, "action": action, "time": time, "sim": sim}
    if upper is not None:
        components["upper"] = upper
    return loss, components, table


# -- training --------------------------------------------------------------------


@dataclass
class RunResult:
    params: crnn.CrnnParams
    seed: int
    loss_curve: list[float]  # mean total loss per epoch
    component_curves: dict[str, list[float]]
    lr_curve: list[float]
    max_decode_len: int
    val_report: metrics.MetricsReport | None = None


def train_one(config: TrainConfig, vocab: list[str], train_set: list[EvalInstance],
              seed: int, val_set: list[EvalInstance] | None = None,
              log_path=None) -> RunResult:
    """Train one model; deterministic given (config, data, seed)."""
    if not train_set:
        raise DataError("training set is empty")
    feature_dim = train_set[0].observed_features.shape[1]
    model = crnn.init_crnn(
        num_classes=len(vocab), feature_dim=feature_dim,
        hidden_lower=config.hidden_dim_lower, hidden_upper=config.hidden_dim_upper,
        embed_dim=config.embed_dim, k_threads=config.k_threads, seed=seed,
        collaborative=config.collaborative,
        shared_decoder_init=config.shared_decoder_init,
    )
    flat = nn.flatten(model)
    adam = nn.AdamState()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7001]))
    max_decode_len = max(2, 2 * max(len(inst.future_actions) for inst in train_set))

    loss_curve: list[float] = []
    component_curves: dict[str, list[float]] = {}
    lr_curve: list[float] = []
    log_rows = []

    for epoch in range(config.epochs):
        lr = lr_at(config, epoch)
        tf_prob = teacher_forcing_at(config, epoch)
        order = rng.permutation(len(train_set))
        epoch_totals: dict[str, float] = {}
        total_sum = 0.0

        for idx in order:
            inst = train_set[idx]
            n_positions = len(inst.future_actions) + 1
            teacher_force = rng.random(n_positions) < tf_prob
            mask_seed = int(rng.integers(2**63))
            mask = ct.sample_rln_mask(config.k_threads, n_positions, config.phi, mask_seed)

            g = Graph()
            bound = nn.bind(g, model)
            loss, components, _ = build_sample_loss(
                g, bound, inst, config.lambda_, mask, teacher_force)
            value = float(g.value(loss))
            if not np.isfinite(value):
                detail = {name: float(g.value(node)) for name, node in components.items()}
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, sample {inst.video_id!r}: {detail}")
            g.backward(loss)
            grads = nn.grads_by_name(g, model, bound)
            for name, grad in grads.items():
                if not np.all(np.isfinite(grad)):
                    raise NumericError(
                        f"non-finite gradient for {name} at epoch {epoch}, "
                        f"sample {inst.video_id!r}")
            nn.adam_update(adam, flat, grads, lr)

            total_sum += value
            for name, node in components.items():
                epoch_totals[name] = epoch_totals.get(name, 0.0) + float(g.value(node))

        n = len(train_set)
        loss_curve.append(total_sum / n)
        lr_curve.append(lr)
        for name, total in epoch_totals.items():
            component_curves.setdefault(name, []).append(total / n)
        log_rows.append({"epoch": epoch, "total": total_sum / n,
                         **{k: v / n for k, v in epoch_totals.items()}, "lr": lr})

    if log_path is not None:
        _write_epoch_log(log_path, log_rows)

    result = RunResult(params=model, seed=seed, loss_curve=loss_curve,
                       component_curves=component_curves, lr_curve=lr_curve,
                       max_decode_len=max_decode_len)
    if val_set:
        result.val_report = evaluate(model, val_set, config, vocab, max_decode_len)
    return result


def _write_epoch_log(path, rows):
    columns = ["epoch", "total", "recognition", "action", "time", "sim", "upper", "lr"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval=0.0, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


@dataclass
class MultiRestartResult:
    best: RunResult
    runs: list[RunResult]
    report: metrics.MetricsReport


def train_multi_restart(config: TrainConfig, vocab: list[str],
                        instances: list[EvalInstance],
                        log_dir=None) -> MultiRestartResult:
    """Run ``config.restarts`` seeds and keep the best by validation accuracy@1."""
    if config.restarts < 1:
        raise DataError("restarts must be >= 1")
    split_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 4242]))
    order = split_rng.permutation(len(instances))
    n_val = int(round(config.validation_fraction * len(instances)))
    if len(instances) >= 2:
        n_val = max(1, n_val)
    val_set = [instances[i] for i in order[:n_val]]
    train_set = [instances[i] for i in order[n_val:]] if n_val else list(instances)
    if not train_set:
        train_set = list(instances)
    if not val_set:
        val_set = list(instances)

    runs = [
        train_one(
            config, vocab, train_set, seed=config.seed + r, val_set=val_set,
            log_path=None if log_dir is None
            else Path(log_dir) / f"epochs_seed{config.seed + r}.csv")
        for r in range(config.restarts)
    ]
    best = max(runs, key=lambda run: run.val_report.acc_at_k[0])
    report = best.val_report
    if config.restart_mode == "average":
        report = dataclasses.replace(
            report,
            acc_at_k=list(np.mean([r.val_report.acc_at_k for r in runs], axis=0)),
            mpta_at_k=list(np.mean([r.val_report.mpta_at_k for r in runs], axis=0)),
            choice_f1_at_k=list(np.mean([r.val_report.choice_f1_at_k for r in runs], axis=0)),
        )
    return MultiRestartResult(best=best, runs=runs, report=report)


# -- evaluation --------------------------------------------------------------------


def decode_ranked(params: crnn.CrnnParams, instance: EvalInstance,
                  max_decode_len: int) -> tuple[ct.ChoiceTable, ct.RankedPredictions]:
    """Encode the observed window, decode all threads, and rank them."""
    g = Graph()
    bound = nn.bind(g, params)
    enc = crnn.encode(g, bound, instance.observed_features)
    threads = [crnn.decode_thread(g, bound, dec, enc.h_lower, enc.h_upper, max_decode_len)
               for dec in bound.decoders]
    table = ct.ChoiceTable(threads)
    return table, ct.rank_threads(table)


def evaluate(params: crnn.CrnnParams, eval_set: list[EvalInstance], config: TrainConfig,
              vocab: list[str], max_decode_len: int,
              rank: bool = True) -> metrics.MetricsReport:
    """Pooled mean-over-class metrics for k = 1..K over an evaluation split.

    ``rank=False`` keeps threads in their raw decoder order (the no-ranking
    ablation baseline).
    """
    if len(vocab) != params.num_classes:
        raise DataError(
            f"vocabulary mismatch: checkpoint has {params.num_classes} classes, "
            f"dataset has {len(vocab)}")
    if not eval_set:
        raise DataError("evaluation set is empty")
    k_threads = params.k_threads
    pooled_preds = []
    pooled_gt = []
    for inst in eval_set:
        table, ranked = decode_ranked(params, inst, max_decode_len)
        order = ranked.thread_order if rank else list(range(k_threads))
        ordered = [(table.threads[ti].actions, table.threads[ti].rel_durations)
                   for ti in order]
        frames = metrics.stack_thread_frames(ordered, inst.horizon_frames,
                                             inst.last_observed_action)
        pooled_preds.append(frames)
        pooled_gt.append(inst.gt_future_labels)
    preds = np.concatenate(pooled_preds, axis=1)
    gt = np.concatenate(pooled_gt)

    acc = [metrics.accuracy_at_k(preds, gt, k, len(vocab)) for k in range(1, k_threads + 1)]
    mpta = [metrics.mean_per_thread_accuracy(preds, gt, k, len(vocab))
            for k in range(1, k_threads + 1)]
    f1 = [metrics.choice_f1(m, a) for m, a in zip(mpta, acc)]
    per_class = {vocab[c]: v
                 for c, v in metrics.per_class_accuracy(preds[0], gt, len(vocab)).items()}
    return metrics.MetricsReport(
        label=config.label, alpha=config.alpha, beta=config.beta, k_threads=k_threads,
        acc_at_k=acc, mpta_at_k=mpta, choice_f1_at_k=f1, per_class=per_class,
    )


# -- checkpoints --------------------------------------------------------------------


def save_model(path, params: crnn.CrnnParams, max_decode_len: int) -> None:
    named = nn.flatten(params)
    named["meta.max_decode_len"] = np.asarray(float(max_decode_len))
    nn.save_checkpoint(path, named)


def load_model(path) -> tuple[crnn.CrnnParams, int]:
    named = nn.load_checkpoint(path)
    max_decode_len = int(named.pop("meta.max_decode_len", np.asarray(64.0)))
    return model_from_flat(named), max_decode_len


def model_from_flat(named: dict[str, np.ndarray]) -> crnn.CrnnParams:
    """Rebuild the parameter dataclasses from checkpoint names."""

    def tree(prefix: str) -> dict[str, np.ndarray]:
        return {name[len(prefix) + 1:]: arr for name, arr in named.items()
                if name.startswith(prefix + ".")}

    def gru(prefix: str) -> nn.GruParams | None:
        sub = tree(prefix)
        return nn.GruParams(**sub) if sub else None

    def lin(prefix: str) -> nn.LinearParams | None:
        sub = tree(prefix)
        return nn.LinearParams(**sub) if sub else None

    def emb(prefix: str) -> nn.EmbeddingTable | None:
        sub = tree(prefix)
        return nn.EmbeddingTable(**sub) if sub else None

    classifier = lin("encoder_classifier_lower")
    if classifier is None:
        raise DataError("checkpoint is missing the encoder classifier")
    num_classes = classifier.out_dim - 1
    k = 0
    while f"decoders.{k}.head_lower.weight" in named:
        k += 1
    decoders = []
    for i in range(k):
        decoders.append(crnn.DecoderParams(
            lower_gru=gru(f"decoders.{i}.lower_gru"),
            upper_gru=gru(f"decoders.{i}.upper_gru"),
            head_lower=lin(f"decoders.{i}.head_lower"),
            head_upper=lin(f"decoders.{i}.head_upper"),
        ))
    return crnn.CrnnParams(
        num_classes=num_classes,
        lower_encoder_gru=gru("lower_encoder_gru"),
        upper_encoder_gru=gru("upper_encoder_gru"),
        encoder_classifier_lower=classifier,
        encoder_classifier_upper=lin("encoder_classifier_upper"),
        action_embed_lower=emb("action_embed_lower"),
        action_embed_upper=emb("action_embed_upper"),
        decoders=decoders,
    )
