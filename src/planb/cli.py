"""Command line surface.

Commands: gen-data (sample a synthetic dataset plus its exact future oracle),
train, eval, ablate (component ablation table), sweep-threads (accuracy vs
thread count), report (merge metrics files into one plot-ready table).

Exit codes: 0 ok, 1 usage error, 2 data error, 3 numeric failure.  The
PLANB_SEED environment variable is the global seed fallback; explicit
--seed / config values take precedence over it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import choicetable as ct
from . import datagen, dataio, metrics, trainer
from .autodiff import ContractError, GraphError
from .dataio import DataError
from .datagen import GrammarError
from .metrics import MetricError
from .trainer import NumericError, TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="planb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    gen = sub.add_parser("gen-data",
                         help="sample a synthetic grammar dataset with oracle futures")
    gen.add_argument("--grammar", required=True, help="grammar spec JSON file")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--num-videos", type=int, default=100, help="videos to sample")
    gen.add_argument("--seed", type=int, default=None, help="sampling seed")
    gen.add_argument("--train-frac", type=float, default=0.8,
                     help="fraction of videos assigned to the train split")
    gen.add_argument("--alpha", type=float, default=0.3,
                     help="observed fraction recorded with the oracle files")
    gen.add_argument("--beta", type=float, default=0.5,
                     help="predicted fraction recorded with the oracle files")
    gen.add_argument("--feature-dim", type=int, default=16, help="feature dimension")
    gen.add_argument("--noise-std", type=float, default=0.1, help="feature noise std")
    gen.add_argument("--oracle-max-depth", type=int, default=16,
                     help="enumeration depth bound for oracle files")

    def add_run_options(p, needs_data=True):
        if needs_data:
            p.add_argument("--data", required=True, help="dataset root directory")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override (repeatable); keys as in the config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    tr = sub.add_parser("train",
                        help="train with multi-restart selection")
    add_run_options(tr)
    tr.add_argument("--out", required=True, help="run output directory")
    tr.add_argument("--train-split", default="train", help="split name to train on")

    ev = sub.add_parser("eval",
                        help="evaluate a checkpoint on a split")
    add_run_options(ev)
    ev.add_argument("--checkpoint", required=True, help="model checkpoint file")
    ev.add_argument("--out", required=True, help="output directory for metrics")
    ev.add_argument("--eval-split", default="test", help="split name to evaluate")
    ev.add_argument("--dump-predictions", action="store_true",
                    help="write ranked per-video prediction files")

    ab = sub.add_parser("ablate",
                        help="train/evaluate the component ablation variants")
    add_run_options(ab)
    ab.add_argument("--out", required=True, help="output CSV path")
    ab.add_argument("--base-threads", type=int, default=3,
                    help="thread count for the first two ablation rows")

    sw = sub.add_parser("sweep-threads",
                        help="train/evaluate across thread counts")
    add_run_options(sw)
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--k-list", default="2,4,8",
                    help="comma-separated thread counts to sweep")

    rp = sub.add_parser("report",
                        help="merge metrics JSON files into a plot-ready table")
    rp.add_argument("--inputs", nargs="+", required=True, help="metrics JSON files")
    rp.add_argument("--out", required=True, help="output directory")

    return parser


def resolve_config(args) -> TrainConfig:
    """Precedence: --seed > --set > config file > PLANB_SEED env > defaults."""
    config = TrainConfig()
    env_seed = os.environ.get("PLANB_SEED")
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError as exc:
            raise DataError(f"PLANB_SEED must be an integer, got {env_seed!r}") from exc
    if getattr(args, "config", None):
        config = trainer.load_config(args.config, config)
    overrides = "\n".join(getattr(args, "set", []))
    if overrides:
        config = trainer.parse_config_text(overrides, config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


# -- gen-data ---------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    grammar = datagen.GrammarSpec.from_json(Path(args.grammar).read_text())
    dataio.check_fractions(args.alpha, args.beta)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("PLANB_SEED", "0"))
    out = Path(args.out)
    (out / "groundTruth").mkdir(parents=True, exist_ok=True)
    (out / "features").mkdir(exist_ok=True)
    (out / "splits").mkdir(exist_ok=True)
    (out / "oracle").mkdir(exist_ok=True)

    (out / "grammar.json").write_text(grammar.to_json() + "\n")
    dataio.write_vocab(out / "vocab.txt", grammar.actions)

    children = np.random.SeedSequence(seed).spawn(max(args.num_videos, 1))
    video_ids = []
    videos = {}
    for i in range(args.num_videos):
        vid = f"video_{i:04d}"
        video = datagen.sample_video(grammar, children[i],
                                     feature_dim=args.feature_dim,
                                     noise_std=args.noise_std)
        dataio.write_label_file(out / "groundTruth" / f"{vid}.txt",
                                video.frame_labels, grammar.actions)
        dataio.write_features(out / "features" / f"{vid}.plnf", video.features)
        video_ids.append(vid)
        videos[vid] = video

    n_train = int(round(args.train_frac * len(video_ids)))
    train_ids, test_ids = video_ids[:n_train], video_ids[n_train:]
    dataio.write_split(out / "splits" / "train.txt", train_ids)
    dataio.write_split(out / "splits" / "test.txt", test_ids)

    skipped = 0
    for vid in test_ids:
        try:
            inst = dataio.make_eval_instance(videos[vid], args.alpha, args.beta, vid)
        except DataError:
            skipped += 1  # too short to split, so no oracle file
            continue
        dist = datagen.enumerate_futures(grammar, inst.observed_segments,
                                         inst.horizon_frames,
                                         max_depth=args.oracle_max_depth)
        (out / "oracle" / f"{vid}.json").write_text(
            datagen.distribution_to_json(dist, grammar.actions,
                                         alpha=args.alpha, beta=args.beta) + "\n")
    if skipped:
        warnings.warn(f"skipped {skipped} video(s) too short to split", stacklevel=2)

    (out / "meta.json").write_text(json.dumps({
        "seed": seed, "numVideos": args.num_videos, "trainFrac": args.train_frac,
        "alpha": args.alpha, "beta": args.beta, "featureDim": args.feature_dim,
        "noiseStd": args.noise_std, "oracleMaxDepth": args.oracle_max_depth,
    }, indent=2) + "\n")
    print(f"wrote {len(train_ids)} train / {len(test_ids)} test videos to {out}")
    return EXIT_OK


# -- train / eval -------------------------------------------------------------------


def _load_split(args, config: TrainConfig, split: str):
    layout = dataio.DatasetLayout.from_root(args.data)
    vocab, videos = dataio.load_dataset(layout, split=split)
    return vocab, trainer.prepare_instances(videos, config)


def cmd_train(args) -> int:
    config = resolve_config(args)
    vocab, instances = _load_split(args, config, args.train_split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outcome = trainer.train_multi_restart(config, vocab, instances, log_dir=out)
    trainer.save_model(out / "model.ckpt", outcome.best.params,
                       outcome.best.max_decode_len)
    (out / "config.txt").write_text(trainer.config_to_text(config))
    (out / "validation_metrics.json").write_text(outcome.report.to_json() + "\n")
    acc1 = outcome.report.acc_at_k[0]
    print(f"trained {config.restarts} restart(s); best seed {outcome.best.seed}; "
          f"validation acc@1 {acc1:.4f}; checkpoint at {out / 'model.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = resolve_config(args)
    params, max_decode_len = trainer.load_model(args.checkpoint)
    vocab, instances = _load_split(args, config, args.eval_split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = trainer.evaluate(params, instances, config, vocab, max_decode_len)
    (out / "metrics.json").write_text(report.to_json() + "\n")
    (out / "metrics.csv").write_text(metrics.reports_to_csv([report]))
    if args.dump_predictions:
        pred_dir = out / "predictions"
        pred_dir.mkdir(exist_ok=True)
        for inst in instances:
            table, ranked = trainer.decode_ranked(params, inst, max_decode_len)
            (pred_dir / f"{inst.video_id}.txt").write_text(
                ct.format_predictions(table, ranked, vocab))
    print(f"acc@1 {report.acc_at_k[0]:.4f}; acc@K {report.acc_at_k[-1]:.4f}; "
          f"metrics at {out / 'metrics.json'}")
    return EXIT_OK


# -- ablate -----------------------------------------------------------------------


ABLATION_VARIANTS = ("multi_decoder", "+sp_rln", "+rank_from_threads", "+crnn")


def cmd_ablate(args) -> int:
    config = resolve_config(args)
    vocab, train_instances = _load_split(args, config, "train")
    _, test_instances = _load_split(args, config, "test")

    rows = []
    for variant in ABLATION_VARIANTS:
        cfg = dataclasses.replace(config)
        cfg.collaborative = variant == "+crnn"
        if variant == "multi_decoder":
            cfg.lambda_, cfg.phi = 0.0, 1.0
        if variant in ("multi_decoder", "+sp_rln"):
            cfg.k_threads = min(args.base_threads, config.k_threads)
        rank = variant in ("+rank_from_threads", "+crnn")
        result = trainer.train_one(cfg, vocab, train_instances, seed=cfg.seed)
        report = trainer.evaluate(result.params, test_instances, cfg, vocab,
                                  result.max_decode_len, rank=rank)
        k3 = min(3, cfg.k_threads)
        rows.append({
            "variant": variant,
            "K": cfg.k_threads,
            "accAt1": report.acc_at_k[0],
            "accAt3": report.acc_at_k[k3 - 1],
            "choiceF1At3": report.choice_f1_at_k[k3 - 1],
        })

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["variant,K,accAt1,accAt3,choiceF1At3"]
    for row in rows:
        lines.append(f"{row['variant']},{row['K']},{row['accAt1']:.6f},"
                     f"{row['accAt3']:.6f},{row['choiceF1At3']:.6f}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} ablation rows to {out}")
    return EXIT_OK


# -- sweep-threads -------------------------------------------------------------------


def cmd_sweep_threads(args) -> int:
    config = resolve_config(args)
    try:
        k_list = [int(x) for x in args.k_list.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--k-list must be comma-separated integers: {exc}") from exc
    if not k_list or min(k_list) < 1:
        raise UsageError("--k-list needs at least one positive thread count")
    vocab, train_instances = _load_split(args, config, "train")
    _, test_instances = _load_split(args, config, "test")

    lines = ["K,accAtK,mptaAtK,choiceF1AtK"]
    for k in k_list:
        cfg = dataclasses.replace(config, k_threads=k)
        result = trainer.train_one(cfg, vocab, train_instances, seed=cfg.seed)
        report = trainer.evaluate(result.params, test_instances, cfg, vocab,
                                  result.max_decode_len)
        lines.append(f"{k},{report.acc_at_k[k - 1]:.6f},{report.mpta_at_k[k - 1]:.6f},"
                     f"{report.choice_f1_at_k[k - 1]:.6f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(k_list)} sweep rows to {out}")
    return EXIT_OK


# -- report -----------------------------------------------------------------------


def cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        try:
            reports.append(metrics.MetricsReport.from_json(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read metrics file {path}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(metrics.reports_to_csv(reports))
    rows = [row for report in reports for row in report.rows()]
    (out / "report.json").write_text(json.dumps(rows, indent=2) + "\n")
    print(f"merged {len(reports)} report(s) into {out / 'report.csv'}")
    return EXIT_OK


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "sweep-threads": cmd_sweep_threads,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (DataError, GrammarError, MetricError, ContractError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, GraphError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
