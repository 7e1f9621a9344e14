"""The benchmark's workloads: their grammars, configs, timed rounds and checks.

Every workload is a closed loop with one caller.  A run repeats identical
rounds until ``seconds`` have passed (the last round is finished, never cut).
Each round runs the same four phases: ``planb gen-data``, training,
per-video prediction and evaluation, so every round does the same operations
and must give bit-identical results; the benchmark checks that too.  The
workload seed only shapes the generated data; model seeds and the grammar are
fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import require

from planb import choicetable as ct
from planb import cli, datagen, dataio, nn, trainer
from planb.autodiff import Graph


def _fork4_grammar() -> dict:
    """base, then a four-way fork into head -> tail -> end (tests' fork4)."""
    c = 9
    rows = [[0.0] * (c + 1) for _ in range(c)]
    rows[0][1:5] = [0.3, 0.3, 0.2, 0.2]
    for head, tail in ((1, 5), (2, 6), (3, 7), (4, 8)):
        rows[head][tail] = 1.0
        rows[tail][c] = 1.0
    return {"actions": ["base", "b1", "b2", "b3", "b4", "t1", "t2", "t3", "t4"],
            "startDist": [1.0] + [0.0] * 8, "transitions": rows,
            "durationRange": [[8, 10]] + [[6, 8]] * 8, "maxVideoLen": 100}


def _longchain_grammar() -> dict:
    """Five long actions in a fixed order; videos are cut at 150 frames."""
    c = 5
    rows = [[0.0] * (c + 1) for _ in range(c)]
    for i in range(c):
        rows[i][i + 1] = 1.0
    return {"actions": ["fetch", "wash", "cut", "cook", "serve"],
            "startDist": [1.0] + [0.0] * 4, "transitions": rows,
            "durationRange": [[27, 33]] * c, "maxVideoLen": 150}


def _branchy_grammar() -> dict:
    """Six 3-frame actions, two successors each, no self-transition, no end.

    Without a terminate event every video runs to maxVideoLen (48 frames), so
    none is under the 10 frames the observation split needs.  Fixed durations
    put every observation boundary at the same point of an action, so every
    test video has 2^8 = 256 futures and the work per round does not depend
    on the seed (with 2-4 frame durations it swings by a tenth between seeds).
    """
    c = 6
    first = [0.6, 0.7, 0.5, 0.8, 0.55, 0.65]
    rows = [[0.0] * (c + 1) for _ in range(c)]
    for i in range(c):
        rows[i][(i + 1) % c] = first[i]
        rows[i][(i + 2) % c] = round(1.0 - first[i], 10)
    return {"actions": ["a", "b", "c", "d", "e", "f"],
            "startDist": [0.25, 0.15, 0.2, 0.1, 0.2, 0.1], "transitions": rows,
            "durationRange": [[3, 3]] * c, "maxVideoLen": 48}


@dataclass(frozen=True)
class Workload:
    """A grammar and a model config; every round runs all four phases on them.

    ``gen-data`` makes ``n_train + n_test`` videos, the first ``n_train`` of
    them for training; every test video gets an oracle file.
    """

    grammar: dict
    k_threads: int
    n_train: int
    n_test: int
    epochs: int
    gen_calls: int  # gen-data calls per round
    predict_calls: int  # passes of the predict loop, and evaluate calls, per round

    @property
    def n_videos(self) -> int:
        return self.n_train + self.n_test


WORKLOADS = {
    # 4 epochs over 48 videos is about where the decoders' stopping behaviour,
    # and so the prediction cost, stops depending on which videos were drawn.
    # Their gen-data calls take a twentieth of a second, mostly small-file
    # writes, whose latency swings several-fold on a shared disk; with 10 calls
    # per round gen_videos_per_s still spread by 14% over ten fork4 seeds, so
    # they make 20 (12 on longchain) to give each unit more chances of a clean
    # one.  Predicting and evaluating 100 videos takes about a second at K=1
    # or 2 and three at K=10, so every workload does both 3 times per round
    # for the same reason.
    "fork4_k10": Workload(_fork4_grammar(), k_threads=10, n_train=48, n_test=100, epochs=4,
                          gen_calls=20, predict_calls=3),
    "longchain_k1": Workload(_longchain_grammar(), k_threads=1, n_train=48, n_test=100,
                             epochs=2, gen_calls=12, predict_calls=3),
    # The oracle files (256 futures for each of 100 test videos) are the work;
    # a short K=2 training pass gives the other phases something to measure.
    # After 1-2 epochs the decoders' stopping, and so the prediction cost,
    # still swings by a third between seeds; after 4 it is settled.
    "oracle_branchy": Workload(_branchy_grammar(), k_threads=2, n_train=24, n_test=100,
                               epochs=4, gen_calls=2, predict_calls=3),
}

GEN_ALPHA, GEN_BETA = 0.3, 0.5  # gen-data's defaults, used by its oracle files
# Host contention slows everything by up to a half in bursts of a fraction of
# a second.  So timings are built from each small unit's fastest untraced
# call (see FastestUnits), and a run has at least MIN_ROUNDS rounds.
MIN_ROUNDS = 2
GRAD_CHECK_SAMPLES = 3
GRAD_EPS = 1e-6


@dataclass
class Outcome:
    attempted: int = 0
    rounds: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    ops: dict[str, int] = field(default_factory=dict)  # traced operations per phase
    counters: dict[str, float] = field(default_factory=dict)  # traced counts per phase
    overhead: float | None = None  # traced / untraced round time


def quiet_cli(argv: list[str]) -> int:
    """``planb`` with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _traced_round(tracer, round_no: int) -> bool:
    """Traced runs alternate untraced and traced rounds, starting untraced."""
    if tracer is None:
        return False
    traced = round_no % 2 == 1
    if traced:
        tracer.install()
    else:
        tracer.uninstall()
    return traced


def _keep_going(start: float, seconds: float, round_no: int) -> bool:
    return round_no < MIN_ROUNDS or time.perf_counter() - start < seconds


def _overhead(round_s: dict[bool, list[float]]) -> float | None:
    """Fastest traced round's time over the fastest untraced round's."""
    if round_s[True] and round_s[False]:
        return min(round_s[True]) / min(round_s[False])
    return None


# -- rounds ----------------------------------------------------------------------


def _summarise(table, ranked):
    """The parts of one prediction the checks use, detached from its tape."""
    threads = [(tuple(t.actions), np.array(t.rel_durations), t.action_logits)
               for t in table.threads]
    return tuple(ranked.thread_order), tuple(ranked.log_probs), threads


def _same_prediction(a, b) -> bool:
    return a[0] == b[0] and a[1] == b[1] and all(
        ta[0] == tb[0] and np.array_equal(ta[1], tb[1]) and np.array_equal(ta[2], tb[2])
        for ta, tb in zip(a[2], b[2]))


def _marked_call(hooks, fn, *args, **kwargs):
    """Call ``fn`` with a time mark at the start of every call to a hooked function.

    ``hooks`` lists (module, name, key) triples.  For the call, each name is
    bound to a wrapper that takes ``time.perf_counter()`` and calls through.
    ``key(args)`` names the unit of work that starts there; with ``key`` None
    a unit is named by its position.  Returns ``fn``'s result and its units:
    (name, wall time to the next mark) from ``fn``'s start, named "start",
    to its return.
    """
    clock = time.perf_counter
    marks: list[tuple[object, float]] = []

    def marking(orig, key):
        def wrapper(*a, **k):
            marks.append((len(marks) if key is None else key(a), clock()))
            return orig(*a, **k)
        return wrapper

    saved = [(module, name, getattr(module, name), key) for module, name, key in hooks]
    for module, name, orig, key in saved:
        setattr(module, name, marking(orig, key))
    try:
        marks.append(("start", clock()))
        result = fn(*args, **kwargs)
        end = clock()
    finally:
        for module, name, orig, _ in saved:
            setattr(module, name, orig)
    ends = [t for _, t in marks[1:]] + [end]
    return result, [(key, b - a) for (key, a), b in zip(marks, ends)]


class FastestUnits:
    """Each named unit's fastest time over a run's untraced calls of one phase.

    Host slow-downs come in bursts shorter than a second, so a unit of a few
    milliseconds that is timed many times usually has a clean time; adding up
    the fastest times gives a call with every burst taken out.  A unit that
    recurs within a call under the same name (a training sample in every
    epoch) also takes the fastest of those.
    """

    def __init__(self, what: str):
        self.what = what
        self.names: list | None = None  # the units of one call, in order
        self.best: dict = {}

    def add(self, units: list[tuple[object, float]]) -> None:
        names = [name for name, _ in units]
        if self.names is None:
            self.names = names
        require(names == self.names,
                f"{self.what}: {len(names)} timed units, unlike the first call's "
                f"{len(self.names)}")
        for name, seconds in units:
            self.best[name] = min(self.best.get(name, math.inf), seconds)

    def times(self, skip: int = 0) -> list[float]:
        """The fastest time of each unit of one call, in order, after ``skip`` units."""
        return [self.best[name] for name in self.names[skip:]]


def _gen_argv(spec: Workload, grammar_path: Path, out: Path, seed: int) -> list[str]:
    return ["gen-data", "--grammar", str(grammar_path), "--out", str(out),
            "--num-videos", str(spec.n_videos), "--seed", str(seed),
            "--train-frac", repr(spec.n_train / spec.n_videos),
            "--alpha", repr(GEN_ALPHA), "--beta", repr(GEN_BETA)]


def run_workload(name: str, spec: Workload, seed: int, seconds: float, work: Path,
                 tracer, t_process: float, out: Outcome) -> None:
    """Set up once, then repeat rounds of gen-data, training, prediction and evaluation."""
    grammar_path = work / "grammar.json"
    grammar_path.write_text(json.dumps(spec.grammar))
    # Every gen-data call writes the same files into ``gen``; rewriting files
    # in place is steadier than deleting and creating them.
    gen = work / "gen"
    argv = _gen_argv(spec, grammar_path, gen, seed)
    code = quiet_cli(argv)
    require(code == 0, f"gen-data exited {code}")
    layout = dataio.DatasetLayout.from_root(gen)
    vocab, train_videos = dataio.load_dataset(layout, split="train")
    _, test_videos = dataio.load_dataset(layout, split="test")
    config = trainer.TrainConfig(k_threads=spec.k_threads, epochs=spec.epochs, restarts=1,
                                 seed=0, label=name)
    train_set = trainer.prepare_instances(train_videos, config)
    test_set = trainer.prepare_instances(test_videos, config)
    require(len(train_set) == spec.n_train and len(test_set) == spec.n_test,
            f"split gave {len(train_set)} train / {len(test_set)} test instances")
    samples = spec.n_train * spec.epochs
    out.metrics["setup_s"] = (time.perf_counter() - t_process, "s")
    # Every later gen-data call must rewrite the set-up's dataset byte for byte.
    digests = _file_digests(gen)

    # Units: gen-data per sampled video, then per enumerated test video;
    # train_one per epoch start and per training video, whatever the epoch
    # (unit 0, building the model, is left out); evaluate per video; the
    # benchmark's own loop per video.
    gen_hooks = [(datagen, "sample_video", None), (datagen, "enumerate_futures", None)]
    train_hooks = [(trainer, "lr_at", lambda a: "epoch"),
                   (trainer, "build_sample_loss", lambda a: a[2].video_id)]
    eval_hooks = [(trainer, "decode_ranked", None)]
    fastest = {phase: FastestUnits(phase) for phase in ("gen", "train", "predict", "eval")}
    round_s = {True: [], False: []}  # round times by traced or not
    # Round 0's results: every later round must repeat them, and the checks use them.
    first_loss = first_predictions = first_report = None
    start = time.perf_counter()
    while _keep_going(start, seconds, out.rounds):
        traced = _traced_round(tracer, out.rounds)
        round_start = time.perf_counter()
        units = {}  # phase -> the unit times of each of its calls this round

        if traced:
            tracer.phase = "gen"
        units["gen"] = []
        for _ in range(spec.gen_calls):
            code, call_units = _marked_call(gen_hooks, quiet_cli, argv)
            require(code == 0, f"gen-data exited {code}")
            require(len(call_units) == spec.n_videos + spec.n_test + 1,
                    f"gen-data sampled or enumerated {len(call_units) - 1} times")
            units["gen"].append(call_units)
            if traced:
                out.counters["gen.oracle_bytes"] = (out.counters.get("gen.oracle_bytes", 0)
                                                    + _oracle_bytes(gen))
            require(_file_digests(gen) == digests, f"round {out.rounds} gen-data output differs")

        if traced:
            tracer.phase = "train"
        result, train_units = _marked_call(train_hooks, trainer.train_one, config, vocab,
                                           train_set, seed=config.seed)
        require(len(train_units) == spec.epochs + samples + 1,
                f"train_one asked lr_at and built a loss {len(train_units) - 1} times "
                f"for {spec.epochs} epochs of {spec.n_train} samples")
        units["train"] = [train_units]
        if first_loss is None:
            first_loss = result.loss_curve
        require(result.loss_curve == first_loss, f"round {out.rounds} loss curve differs")

        if traced:
            tracer.phase = "predict"
        units["predict"] = []
        for _ in range(spec.predict_calls):
            predictions, latencies = [], []
            for inst in test_set:
                t0 = time.perf_counter()
                table, ranked = trainer.decode_ranked(result.params, inst,
                                                      result.max_decode_len)
                latencies.append(time.perf_counter() - t0)
                predictions.append(_summarise(table, ranked))
                del table, ranked
            units["predict"].append(list(enumerate(latencies)))
            if first_predictions is None:
                first_predictions = predictions
            require(all(_same_prediction(a, b) for a, b in zip(predictions, first_predictions)),
                    f"round {out.rounds} predictions differ")

        if traced:
            tracer.phase = "eval"
        units["eval"] = []
        for _ in range(spec.predict_calls):
            report, eval_units = _marked_call(eval_hooks, trainer.evaluate, result.params,
                                              test_set, config, vocab, result.max_decode_len)
            units["eval"].append(eval_units)
            if first_report is None:
                first_report = report
            require(report.to_json() == first_report.to_json(),
                    f"round {out.rounds} metrics differ")
        round_s[traced].append(time.perf_counter() - round_start)
        if traced:
            for phase, n in (("gen", spec.n_videos * spec.gen_calls), ("train", samples),
                             ("predict", spec.n_test * spec.predict_calls),
                             ("eval", spec.n_test * spec.predict_calls)):
                out.ops[phase] = out.ops.get(phase, 0) + n
        else:
            for phase, calls in units.items():
                for times in calls:
                    fastest[phase].add(times)

        out.attempted += (spec.n_videos * spec.gen_calls + samples
                          + 2 * spec.n_test * spec.predict_calls)
        out.rounds += 1
    if tracer is not None:
        tracer.uninstall()
        tracer.phase = "check"
    out.overhead = _overhead(round_s)

    latencies_ms = [1000.0 * s for s in fastest["predict"].times()]
    out.metrics.update({
        "train_samples_per_s": (samples / sum(fastest["train"].times(skip=1)), "1/s"),
        "eval_videos_per_s": (len(test_set) / sum(fastest["eval"].times()), "1/s"),
        "predict_ms_p50": (statistics.median(latencies_ms), "ms"),
        "predict_ms_p90": (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
                           "ms"),
        "gen_videos_per_s": (spec.n_videos / sum(fastest["gen"].times()), "1/s"),
    })

    check_training(result, config, train_set)
    check_predictions(first_predictions, first_report, test_set, config.k_threads)
    check_dataset(gen, spec)


def check_training(result, config, train_set) -> None:
    """Finite loss and parameters, and gradients against central differences."""
    checks.check_finite("loss curve", result.loss_curve)
    for pname, arr in nn.flatten(result.params).items():
        checks.check_finite(pname, arr)
    rng = np.random.default_rng(20210330)
    for inst in train_set[:GRAD_CHECK_SAMPLES]:
        n_positions = len(inst.future_actions) + 1
        mask = ct.sample_rln_mask(config.k_threads, n_positions, config.phi,
                                  int(rng.integers(2**63)))
        teacher_force = rng.random(n_positions) < 0.5
        g = Graph()
        bound = nn.bind(g, result.params)
        loss, _, _ = trainer.build_sample_loss(g, bound, inst, config.lambda_, mask,
                                               teacher_force)
        g.backward(loss)
        ids = [i for i, node in enumerate(g.nodes) if node.kind == "leaf" and node.requires_grad]
        require(len(ids) == len(nn.flatten(result.params)), "not every parameter is on the tape")
        directions = [rng.standard_normal(g.value(i).shape) for i in ids]
        analytic = sum(float(np.sum(g.grad(i) * d)) for i, d in zip(ids, directions))
        grad_norm = math.sqrt(sum(float(np.sum(g.grad(i) ** 2)) for i in ids))
        base = [g.value(i).copy() for i in ids]

        def loss_at(step: float) -> float:
            for i, b, d in zip(ids, base, directions):
                g.set_value(i, b + step * d)
            g.recompute()  # same topology: argmax feedback stays frozen
            return float(g.value(loss))

        rel = checks.check_directional_derivative(analytic, loss_at(GRAD_EPS),
                                                  loss_at(-GRAD_EPS), GRAD_EPS, grad_norm)
        print(f"# gradient check {inst.video_id}: relative error {rel:.2e}", file=sys.stderr)


def check_predictions(predictions, report, test_set, k_threads: int) -> None:
    """Rankings, and the program's metrics recomputed from its own threads."""
    videos = []
    for (order, log_probs, threads), inst in zip(predictions, test_set):
        own = [checks.thread_log_prob(logits, bool(actions)) for actions, _, logits in threads]
        checks.check_ranking(order, log_probs, own)
        rows = [checks.expand_frames(threads[ti][0], threads[ti][1], inst.horizon_frames,
                                     inst.last_observed_action) for ti in order]
        videos.append((rows, [int(c) for c in inst.gt_future_labels]))
    own = checks.recompute_metrics(videos, k_threads)
    reported = (report.acc_at_k, report.mpta_at_k, report.choice_f1_at_k)
    checks.check_metric_properties(*reported)
    checks.check_metrics_match(own, reported)


# -- generated data ----------------------------------------------------------------


def _file_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _oracle_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in (root / "oracle").glob("*.json"))


def check_dataset(root: Path, spec: Workload) -> None:
    """Every video's files agree in length; every oracle file is exact."""
    grammar = json.loads((root / "grammar.json").read_text())
    names = checks.label_frames(root / "vocab.txt")
    require(names == spec.grammar["actions"], "vocab does not match the grammar")
    train_ids = checks.label_frames(root / "splits" / "train.txt")
    test_ids = checks.label_frames(root / "splits" / "test.txt")
    require(len(train_ids) == spec.n_train and len(test_ids) == spec.n_test,
            f"splits list {len(train_ids)} train / {len(test_ids)} test videos")
    # Without a terminate event every video runs to maxVideoLen.
    max_len = spec.grammar["maxVideoLen"]
    ends = any(row[-1] > 0 for row in spec.grammar["transitions"])
    for vid in train_ids + test_ids:
        labels = checks.label_frames(root / "groundTruth" / f"{vid}.txt")
        frames = checks.feature_frames(root / "features" / f"{vid}.plnf")
        require(len(labels) == frames, f"{vid}: {len(labels)} labels, {frames} feature rows")
        require(len(labels) <= max_len and (ends or len(labels) == max_len),
                f"{vid}: {len(labels)} frames, max {max_len}")
    oracle_files = sorted(p.stem for p in (root / "oracle").glob("*.json"))
    require(oracle_files == sorted(test_ids), "oracle files do not match the test split")
    for vid in test_ids:
        labels = checks.label_frames(root / "groundTruth" / f"{vid}.txt")
        action, elapsed, horizon = checks.observed_state(labels, GEN_ALPHA, GEN_BETA)
        oracle = json.loads((root / "oracle" / f"{vid}.json").read_text())
        require(math.isclose(oracle["alpha"], GEN_ALPHA)
                and math.isclose(oracle["beta"], GEN_BETA),
                f"{vid}: oracle records alpha/beta {oracle['alpha']}/{oracle['beta']}")
        checks.check_oracle(grammar, oracle, action, elapsed, horizon)
    require((root / "meta.json").is_file(), "meta.json is missing")
