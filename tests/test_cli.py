import json

import numpy as np
import pytest

from planb import cli, dataio, datagen, metrics
from planb.cli import main

from conftest import chain_grammar_3, fork2_grammar


def write_grammar(tmp_path, grammar):
    path = tmp_path / "grammar.json"
    path.write_text(grammar.to_json())
    return path


def gen_args(grammar_path, out, n=6, seed=3, extra=()):
    return ["gen-data", "--grammar", str(grammar_path), "--out", str(out),
            "--num-videos", str(n), "--seed", str(seed),
            "--feature-dim", "6", *extra]


SMALL_TRAIN = ["--set", "epochs=3", "--set", "hiddenDimLower=12",
               "--set", "hiddenDimUpper=12", "--set", "embedDim=6",
               "--set", "K=2", "--set", "restarts=1"]


def test_gen_data_writes_complete_dataset(tmp_path):
    grammar_path = write_grammar(tmp_path, chain_grammar_3())
    out = tmp_path / "ds"
    assert main(gen_args(grammar_path, out, n=5)) == 0
    assert (out / "vocab.txt").read_text().splitlines() == ["prep", "stir", "pour"]
    assert len(list((out / "groundTruth").glob("*.txt"))) == 5
    assert len(list((out / "features").glob("*.plnf"))) == 5
    train_ids = dataio.read_split(out / "splits" / "train.txt")
    test_ids = dataio.read_split(out / "splits" / "test.txt")
    assert len(train_ids) == 4 and len(test_ids) == 1
    oracle = json.loads((out / "oracle" / f"{test_ids[0]}.json").read_text())
    assert oracle["entries"]
    assert sum(e["probability"] for e in oracle["entries"]) + \
        oracle["truncationMass"] == pytest.approx(1.0)


def test_gen_data_is_byte_deterministic(tmp_path):
    grammar_path = write_grammar(tmp_path, fork2_grammar())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(gen_args(grammar_path, out1)) == 0
    assert main(gen_args(grammar_path, out2)) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_gen_data_round_trips_through_loader(tmp_path):
    grammar = chain_grammar_3()
    grammar_path = write_grammar(tmp_path, grammar)
    out = tmp_path / "ds"
    assert main(gen_args(grammar_path, out, n=4, seed=9)) == 0
    vocab, videos = dataio.load_dataset(dataio.DatasetLayout.from_root(out))
    children = np.random.SeedSequence(9).spawn(4)
    for i, (vid, loaded) in enumerate(sorted(videos.items())):
        reference = datagen.sample_video(grammar, children[i], feature_dim=6)
        assert np.array_equal(loaded.frame_labels, reference.frame_labels)
        assert np.allclose(loaded.features, reference.features)
        assert loaded.segments == reference.segments


def test_gen_data_zero_videos_still_valid(tmp_path):
    grammar_path = write_grammar(tmp_path, chain_grammar_3())
    out = tmp_path / "empty"
    assert main(gen_args(grammar_path, out, n=0)) == 0
    assert dataio.read_vocab(out / "vocab.txt") == ["prep", "stir", "pour"]
    assert dataio.read_split(out / "splits" / "train.txt") == []


def test_gen_data_skips_oracle_of_too_short_test_videos(tmp_path):
    # a -> end half the time: videos of 4-6 frames, too short to split
    grammar = datagen.GrammarSpec(
        actions=["a", "b"], start_dist=[1.0, 0.0],
        transitions=[[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
        duration_range=[(4, 6), (4, 6)], max_video_len=40,
    ).validate()
    out = tmp_path / "ds"
    with pytest.warns(UserWarning, match="too short to split"):
        code = main(["gen-data", "--grammar", str(write_grammar(tmp_path, grammar)),
                     "--out", str(out), "--num-videos", "10", "--seed", "0"])
    assert code == 0
    assert (out / "meta.json").is_file()
    test_ids = dataio.read_split(out / "splits" / "test.txt")
    oracle_ids = {p.stem for p in (out / "oracle").glob("*.json")}
    assert oracle_ids < set(test_ids)
    for vid in test_ids:
        frames = len((out / "groundTruth" / f"{vid}.txt").read_text().splitlines())
        assert (vid in oracle_ids) == (frames >= 10)


def test_gen_data_rejects_bad_fractions_before_writing(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(gen_args(write_grammar(tmp_path, chain_grammar_3()), out,
                         extra=("--alpha", "0.7", "--beta", "0.5")))
    assert code == 2
    assert "invalid observation/prediction fractions" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_ds")
    grammar_path = write_grammar(tmp, chain_grammar_3())
    out = tmp / "ds"
    assert main(gen_args(grammar_path, out, n=10, seed=5)) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                 *SMALL_TRAIN, "--seed", "1"])
    assert code == 0
    return out


def test_train_outputs(run_dir):
    assert (run_dir / "model.ckpt").is_file()
    assert (run_dir / "config.txt").is_file()
    report = metrics.MetricsReport.from_json(
        (run_dir / "validation_metrics.json").read_text())
    assert len(report.acc_at_k) == 2
    assert (run_dir / "epochs_seed1.csv").is_file()


def test_eval_outputs_and_prediction_dump(dataset_dir, run_dir, tmp_path):
    out = tmp_path / "evalout"
    code = main(["eval", "--data", str(dataset_dir), "--checkpoint",
                 str(run_dir / "model.ckpt"), "--out", str(out),
                 "--dump-predictions", *SMALL_TRAIN])
    assert code == 0
    report = metrics.MetricsReport.from_json((out / "metrics.json").read_text())
    assert len(report.acc_at_k) == 2
    assert report.acc_at_k[0] <= report.acc_at_k[1] + 1e-12
    rows = metrics.rows_from_csv((out / "metrics.csv").read_text())
    assert [r["k"] for r in rows] == [1, 2]
    preds = list((out / "predictions").glob("*.txt"))
    assert len(preds) == 2  # test split of 10 videos at 0.8 train fraction
    first_line = preds[0].read_text().splitlines()[0].split("\t")
    assert first_line[0] == "1" and len(first_line) == 3


def test_report_merges_and_f1_recomputable(tmp_path, run_dir):
    out = tmp_path / "rep"
    code = main(["report", "--inputs", str(run_dir / "validation_metrics.json"),
                 "--out", str(out)])
    assert code == 0
    rows = metrics.rows_from_csv((out / "report.csv").read_text())
    ks = [r["k"] for r in rows]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    for row in rows:
        expected = metrics.choice_f1(row["mptaAtK"], row["accAtK"])
        assert abs(row["choiceF1"] - expected) <= 1e-12
    merged = json.loads((out / "report.json").read_text())
    assert len(merged) == len(rows)


def test_report_rejects_schema_mismatch(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"notAReport": 1}))
    assert main(["report", "--inputs", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_ablate_writes_four_variants(dataset_dir, tmp_path):
    out = tmp_path / "ablation.csv"
    code = main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                 *SMALL_TRAIN, "--set", "epochs=2", "--base-threads", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,K,accAt1,accAt3,choiceF1At3"
    assert len(lines) == 5
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == list(cli.ABLATION_VARIANTS)
    for line in lines[1:]:
        parts = line.split(",")
        assert 0.0 <= float(parts[2]) <= 1.0


def test_sweep_threads_single_k_matches_plain_eval(dataset_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-threads", "--data", str(dataset_dir), "--out", str(out),
                 "--k-list", "1", *SMALL_TRAIN, "--set", "epochs=2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "K,accAtK,mptaAtK,choiceF1AtK"
    assert len(lines) == 2
    k, acc, mpta, f1 = lines[1].split(",")
    assert k == "1"
    assert float(acc) == pytest.approx(float(mpta))  # k=1: MPTA == acc


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gen-data", "--out", str(tmp_path)]) == 1  # missing --grammar
    assert main(["sweep-threads", "--data", "x", "--out", "y", "--k-list", "a,b"]) == 1


def test_data_errors_exit_two(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["gen-data", "--grammar", str(missing), "--out",
                 str(tmp_path / "o")]) in (1, 2)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["gen-data", "--grammar", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["train", "--data", str(tmp_path / "missing_ds"), "--out",
                 str(tmp_path / "r")]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch, dataset_dir):
    monkeypatch.setenv("PLANB_SEED", "17")
    out = tmp_path / "envrun"
    code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                 *SMALL_TRAIN, "--set", "epochs=1"])
    assert code == 0
    assert "seed=17" in (out / "config.txt").read_text()
    monkeypatch.setenv("PLANB_SEED", "not-an-int")
    assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                 *SMALL_TRAIN]) == 2


def test_help_lists_all_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--grammar", "--out", "--num-videos", "--seed", "--train-frac",
                 "--alpha", "--beta", "--feature-dim", "--noise-std",
                 "--oracle-max-depth"):
        assert flag in text
    for command, flags in [
        ("train", ["--data", "--config", "--set", "--seed", "--out", "--train-split"]),
        ("eval", ["--checkpoint", "--out", "--eval-split", "--dump-predictions"]),
        ("ablate", ["--out", "--base-threads"]),
        ("sweep-threads", ["--out", "--k-list"]),
        ("report", ["--inputs", "--out"]),
    ]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert flag in text, (command, flag)


def test_eval_truncated_checkpoint_exits_two(dataset_dir, run_dir, tmp_path, capsys):
    blob = (run_dir / "model.ckpt").read_bytes()
    for cut in (3, 12, 20, len(blob) // 2, len(blob) - 1):
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(blob[:cut])
        code = main(["eval", "--data", str(dataset_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "ev")])
        assert code == 2, cut
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
