"""planb benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload fork4_k10 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports planb from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when the
run finished, whether or not its checks passed (``correct`` says which).
"""

import time

T_PROCESS = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# name -> (unit, phase, span name or prefix ending in ".", field, normalised per op)
PER_LAYER = {
    "train.autodiff.nodes": ("count", "train", "trainer.train_one", "nodes", True),
    "train.autodiff.backward.self_ms": ("ms", "train", "autodiff.backward", "self_ms", True),
    "predict.autodiff.nodes": ("count", "predict", "trainer.decode_ranked", "nodes", True),
    "train.nn.gru_step.self_ms": ("ms", "train", "nn.gru_step", "self_ms", True),
    "train.nn.gru_step.calls": ("count", "train", "nn.gru_step", "calls", True),
    "train.nn.linear.self_ms": ("ms", "train", "nn.linear", "self_ms", True),
    "train.nn.cross_entropy.self_ms": ("ms", "train", "nn.cross_entropy", "self_ms", True),
    "train.nn.cross_entropy.calls": ("count", "train", "nn.cross_entropy", "calls", True),
    "train.nn.adam_update.self_ms": ("ms", "train", "nn.adam_update", "self_ms", True),
    "train.nn.adam.arrays": ("count", "train", "nn.adam_update", "extra", True),
    "train.nn.bind.self_ms": ("ms", "train", "nn.bind", "self_ms", True),
    "train.nn.grads_by_name.self_ms": ("ms", "train", "nn.grads_by_name", "self_ms", True),
    "predict.nn.gru_step.self_ms": ("ms", "predict", "nn.gru_step", "self_ms", True),
    "train.crnn.encode.self_ms": ("ms", "train", "crnn.encode", "self_ms", True),
    "train.crnn.encode.nodes": ("count", "train", "crnn.encode", "nodes", True),
    "train.crnn.decode_thread.self_ms": ("ms", "train", "crnn.decode_thread", "self_ms", True),
    "train.crnn.decode_thread.nodes": ("count", "train", "crnn.decode_thread", "nodes", True),
    "predict.crnn.encode.self_ms": ("ms", "predict", "crnn.encode", "self_ms", True),
    "predict.crnn.decode_thread.self_ms": ("ms", "predict", "crnn.decode_thread", "self_ms",
                                           True),
    "predict.crnn.decode_steps": ("count", "predict", "crnn.decode_thread", "extra", True),
    "train.choicetable.similarity_penalty.self_ms": (
        "ms", "train", "choicetable.similarity_penalty", "self_ms", True),
    "train.choicetable.similarity_penalty.nodes": (
        "count", "train", "choicetable.similarity_penalty", "nodes", True),
    "train.choicetable.masked_action_loss.self_ms": (
        "ms", "train", "choicetable.masked_action_loss", "self_ms", True),
    "predict.choicetable.rank_threads.self_ms": (
        "ms", "predict", "choicetable.rank_threads", "self_ms", True),
    "train.trainer.build_sample_loss.self_ms": (
        "ms", "train", "trainer.build_sample_loss", "self_ms", True),
    "train.trainer.train_one.self_ms": ("ms", "train", "trainer.train_one", "self_ms", True),
    "eval.metrics.self_ms": ("ms", "eval", "metrics.", "self_ms", True),
    "gen.datagen.sample_video.self_ms": ("ms", "gen", "datagen.sample_video", "self_ms", True),
    "gen.datagen.enumerate_futures.self_ms": (
        "ms", "gen", "datagen.enumerate_futures", "self_ms", True),
    "gen.datagen.futures": ("count", "gen", "datagen.enumerate_futures", "extra", True),
    "gen.datagen.distribution_to_json.self_ms": (
        "ms", "gen", "datagen.distribution_to_json", "self_ms", True),
    "gen.dataio.write_features.self_ms": ("ms", "gen", "dataio.write_features", "self_ms", True),
    "gen.dataio.write_label_file.self_ms": (
        "ms", "gen", "dataio.write_label_file", "self_ms", True),
    "gen.cli.gen_data.self_ms": ("ms", "gen", "cli.gen_data", "self_ms", True),
    "setup.dataio.load_dataset.s": ("s", "setup", "dataio.load_dataset", "total_s", False),
}
COUNTERS = {"gen.oracle_bytes": ("bytes", "gen")}  # counted by the benchmark itself
OVERHEAD = "trace.overhead"  # fastest traced round time / fastest untraced one


def per_layer_metrics(summary: dict, ops: dict, counters: dict,
                      overhead: float | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run.

    Every declared metric is reported.  One whose function was never called
    in its phase reads 0 and is named on stderr, so a 0 from a function that
    is gone is not mistaken for one that got fast.
    """
    metrics = {}
    for name, (unit, phase, span, field, per_op) in PER_LAYER.items():
        rows = [agg for (p, n), agg in summary.items()
                if p == phase and (n == span or (span.endswith(".") and n.startswith(span)))]
        if not rows or (per_op and not ops.get(phase)):
            print(f"perfbench: {name}: {span} never called in phase {phase}, reported as 0",
                  file=sys.stderr)
            metrics[name] = (0.0, unit)
            continue
        if field == "self_ms":
            value = 1000.0 * sum(r["self_s"] for r in rows)
        else:
            value = sum(r[field] for r in rows)
        metrics[name] = (value / ops[phase] if per_op else value, unit)
    for name, (unit, phase) in COUNTERS.items():
        metrics[name] = (counters.get(name, 0) / ops[phase] if ops.get(phase) else 0.0, unit)
    metrics[OVERHEAD] = (overhead if overhead is not None else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the model's matrices are at most
    # 64 wide, so BLAS threads would only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (ROOT / "src" / "planb" / "__init__.py").is_file():
        print(f"perfbench: no planb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads
    from tracing import Tracer

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()

    outcome = workloads.Outcome()
    correct = True
    try:
        workloads.run_workload(args.workload, spec, args.seed, args.seconds, work, tracer,
                               T_PROCESS, outcome)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = dict(outcome.metrics)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
    else:
        metrics = per_layer_metrics(tracer.summary(), outcome.ops, outcome.counters,
                                    outcome.overhead)
        tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")

    print(f"# {args.workload} seed {args.seed}: {outcome.rounds} rounds, "
          f"{outcome.attempted} operations", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": max(outcome.attempted, 1), "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
