"""End-to-end runs of the installed command-line interface in subprocesses:
artifact layout, exit codes, determinism, and stderr diagnostics; and a
static check that every command reads every flag it accepts."""

import argparse
import ast
import inspect
import shutil

import numpy as np
import pytest

from spsgmm import cli as spsgmm_cli
from spsgmm.audio_io import decode_wav, segment_intervals, write_wav
from spsgmm.classifier import load_model, score
from spsgmm.pipeline import extract_features

pytestmark = pytest.mark.slow  # every test here forks a fresh interpreter


@pytest.fixture(scope="module")
def speech_wav(corpus_dirs):
    return corpus_dirs[0] / "sp00.wav"


@pytest.fixture(scope="module")
def model_path(cli, corpus_dirs, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.txt"
    r = cli(
        "train", corpus_dirs[0], corpus_dirs[1],
        "--feature", "sps-scg", "--p", 3, "--k-grid", "1,2", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    return out


class TestExtract:
    def test_single_kind_single_file(self, cli, speech_wav, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--feature", "sps-scg", "--p", 5, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3  # three 1 s intervals
        assert lines[0] == "source_id,interval_index,label,kind," + ",".join(
            f"v{i}" for i in range(15)
        )
        first = lines[1].split(",")
        assert first[:4] == ["sp00.wav", "0", "", "sps_scg"]
        assert len(first) == 4 + 15

    def test_all_kinds_fan_out(self, cli, speech_wav, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--feature", "all", "--p", 2, "--out", out)
        assert r.returncode == 0, r.stderr
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "feats_early_fused.csv",
            "feats_sps_p.csv",
            "feats_sps_scg.csv",
            "feats_sps_zcr.csv",
        ]
        fused = (tmp_path / "feats_early_fused.csv").read_text().splitlines()
        assert len(fused[1].split(",")) == 4 + 10  # 5p values at p=2

    def test_directory_input(self, cli, corpus_dirs, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", corpus_dirs[1], "--feature", "sps-zcr", "--p", 3, "--out", out)
        assert r.returncode == 0, r.stderr
        assert len(out.read_text().splitlines()) == 1 + 18  # 6 files x 3 intervals

    def test_undecodable_input_exits_2_without_partial_output(self, cli, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_text("not audio")
        out = tmp_path / "feats.csv"
        r = cli("extract", bad, "--out", out)
        assert r.returncode == 2
        assert "error:" in r.stderr
        assert not out.exists()

    def test_refused_files_of_a_directory_are_named(self, cli, corpus_dirs, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        for name in ("sp00.wav", "sp01.wav", "sp02.wav"):
            shutil.copy(corpus_dirs[0] / name, d / name)
        (d / "notes.txt").write_text("not audio")
        r = cli("extract", d, "--p", 2, "--out", tmp_path / "feats.csv")
        assert r.returncode == 2
        assert r.stderr == (
            f"error: {d / 'notes.txt'}: RIFF header: truncated (wanted 12 bytes, got 9)\n"
        )
        assert r.stdout == "" and list(tmp_path.iterdir()) == [d]

    def test_missing_output_dir_is_named(self, cli, speech_wav, tmp_path):
        out = tmp_path / "missing_dir" / "feat.csv"
        r = cli("extract", speech_wav, "--feature", "sps-zcr", "--p", 2, "--out", out)
        assert r.returncode == 2
        assert "No such file or directory" in r.stderr
        assert str(out) in r.stderr and ".tmp-" not in r.stderr
        assert not out.parent.exists()

    def test_interval_under_one_sample_exits_2(self, cli, speech_wav, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--out", out, "--interval-ms", 0.01)
        assert r.returncode == 2, r.stderr
        assert "0.01 ms is under one sample at 22050 Hz" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_single_row_names_p(self, cli, speech_wav, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--feature", "sps-p", "--p", 1, "--out", out)
        assert r.returncode == 2, r.stderr
        assert "p must be >= 2 to extract features, got 1" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "evaluate"])
    def test_p_checked_before_decoding(self, cli, model_path, tmp_path, command):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "broken.wav").write_bytes(b"not a wav file")
        out = tmp_path / "out"
        inputs = {
            "extract": [bad],
            "train": [bad, bad],
            "predict": [model_path, bad],
            "evaluate": [bad, bad],
        }[command]
        r = cli(command, *inputs, "--p", 1, "--out", out)
        assert r.returncode == 2, r.stderr
        assert "p must be >= 2 to extract features, got 1" in r.stderr
        assert "RIFF" not in r.stderr
        assert not out.exists()

    def test_late_fused_not_extractable(self, cli, speech_wav, tmp_path):
        r = cli(
            "extract", speech_wav, "--feature", "late-fused",
            "--out", tmp_path / "x.csv",
        )
        assert r.returncode == 2
        assert "not an extractable vector" in r.stderr

    def test_late_fused_refused_before_decoding(self, cli, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "broken.wav").write_bytes(b"not a wav file")
        r = cli("extract", bad, "--feature", "late-fused", "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "late-fused is a scoring scheme" in r.stderr
        assert "RIFF" not in r.stderr


class TestTrain:
    def test_model_file_and_echo(self, cli, model_path):
        text = model_path.read_text()
        assert text.startswith("spsgmm v1\n")
        assert "feature_kind sps_scg" in text

    def test_deterministic(self, cli, corpus_dirs, model_path, tmp_path):
        again = tmp_path / "again.txt"
        r = cli(
            "train", corpus_dirs[0], corpus_dirs[1],
            "--feature", "sps-scg", "--p", 3, "--k-grid", "1,2", "--out", again,
        )
        assert r.returncode == 0, r.stderr
        assert again.read_bytes() == model_path.read_bytes()

    def test_infeasible_grid_exits_1(self, cli, corpus_dirs, tmp_path):
        r = cli(
            "train", corpus_dirs[0], corpus_dirs[1],
            "--feature", "sps-scg", "--p", 3, "--k-grid", "64",
            "--out", tmp_path / "m.txt",
        )
        assert r.returncode == 1
        assert "no feasible K" in r.stderr

    def test_bad_grid_exits_2(self, cli, corpus_dirs, tmp_path):
        r = cli(
            "train", corpus_dirs[0], corpus_dirs[1], "--k-grid", "two",
            "--out", tmp_path / "m.txt",
        )
        assert r.returncode == 2
        assert "bad --k-grid" in r.stderr


class TestPredict:
    def test_csv_to_file(self, cli, model_path, speech_wav, tmp_path):
        out = tmp_path / "pred.csv"
        r = cli("predict", model_path, speech_wav, "--p", 3, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "source_id,interval_index,decision,margin,log_lik_speech,log_lik_music"
        )
        assert len(lines) == 1 + 3
        for row in lines[1:]:
            src, idx, decision, margin, lls, llm = row.split(",")
            assert src == "sp00.wav"
            assert decision in ("speech", "music")
            assert (float(margin) >= 0) == (decision == "speech")
            float(lls), float(llm)  # parse as plain floats

    def test_stdout_and_accuracy_on_music_dir(self, cli, model_path, corpus_dirs):
        r = cli("predict", model_path, corpus_dirs[1], "--p", 3)
        assert r.returncode == 0, r.stderr
        rows = r.stdout.splitlines()[1:]
        assert len(rows) == 18
        decisions = [row.split(",")[2] for row in rows]
        assert decisions.count("music") >= 16  # near-perfect on easy synthetic data

    def test_csv_matches_per_row_scoring(self, cli, model_path, corpus_dirs, tmp_path):
        out = tmp_path / "pred.csv"
        r = cli("predict", model_path, corpus_dirs[1], "--p", 3, "--out", out)
        assert r.returncode == 0, r.stderr
        model = load_model(model_path)
        lines = ["source_id,interval_index,decision,margin,log_lik_speech,log_lik_music"]
        for path in sorted(corpus_dirs[1].iterdir()):
            for iv in segment_intervals(decode_wav(path), 1.0, source_id=path.name):
                vectors, _ = extract_features(iv, p=3)
                sc = score(model, vectors[model.feature_kind])
                lines.append(
                    f"{iv.source_id},{iv.index},{sc.decision},{float(sc.margin)!r},"
                    f"{float(sc.log_lik_speech)!r},{float(sc.log_lik_music)!r}"
                )
        assert len(lines) == 1 + 18
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_dim_mismatch_exits_2(self, cli, model_path, speech_wav, tmp_path):
        r = cli("predict", model_path, speech_wav, "--p", 4, "--out", tmp_path / "p.csv")
        assert r.returncode == 2
        assert "dim" in r.stderr

    def test_missing_model_exits_2(self, cli, speech_wav, tmp_path):
        r = cli("predict", tmp_path / "ghost.model", speech_wav)
        assert r.returncode == 2

    def test_non_finite_model_value_exits_2(self, cli, model_path, speech_wav, tmp_path):
        lines = model_path.read_text().splitlines()
        i = lines.index("vars") + 1  # the speech class's first row
        lines[i] = "nan " + lines[i].split(" ", 1)[1]
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines) + "\n")
        r = cli("predict", bad, speech_wav, "--p", 3)
        assert r.returncode == 2
        assert "error: model file class speech vars: non-finite value" in r.stderr
        assert r.stdout == ""

    def test_malformed_model_exits_2(self, cli, model_path, speech_wav, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(model_path.read_text().replace("means\n", "means\nnot-a-number\n", 1))
        r = cli("predict", bad, speech_wav, "--p", 3)
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    def test_unextractable_kind_refused_before_decoding(self, cli, model_path, tmp_path):
        late = tmp_path / "late.model"
        late.write_text(
            model_path.read_text().replace("feature_kind sps_scg", "feature_kind late_fused")
        )
        r = cli("predict", late, tmp_path / "ghost.wav")  # never opened
        assert r.returncode == 2
        assert "not extractable" in r.stderr

    def test_silent_file_notes_peakless_frames(self, cli, model_path, tmp_path):
        quiet = tmp_path / "quiet.wav"
        write_wav(quiet, np.zeros(22050), 22050)
        r = cli("predict", model_path, quiet, "--p", 3)
        assert r.returncode == 0, r.stderr
        assert "diagnostics: 973 peakless frames" in r.stderr


class TestEvaluate:
    def test_artifacts_and_determinism(self, cli, corpus_dirs, tmp_path):
        def run(out):
            return cli(
                "evaluate", corpus_dirs[0], corpus_dirs[1],
                "--feature", "sps-scg", "--p", 3, "--k-grid", "1",
                "--trials", 2, "--seed", 3, "--out", out,
            )

        r1 = run(tmp_path / "a")
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout.startswith("summary:")
        names = ("report.txt", "trials.csv", "summary.csv")
        r2 = run(tmp_path / "b")
        assert r2.returncode == 0
        for name in names:
            a, b = tmp_path / "a" / name, tmp_path / "b" / name
            assert a.is_file()
            assert a.read_bytes() == b.read_bytes()
        report = (tmp_path / "a" / "report.txt").read_text()
        assert "config:" in report and "summary:" in report

    def test_all_features_summarized(self, cli, corpus_dirs, tmp_path):
        r = cli(
            "evaluate", corpus_dirs[0], corpus_dirs[1],
            "--feature", "all", "--p", 2, "--k-grid", "1",
            "--trials", 1, "--out", tmp_path / "out",
        )
        assert r.returncode == 0, r.stderr
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == "feature,mean_f,var_f"
        assert [row.split(",")[0] for row in summary[1:]] == [
            "sps_p", "sps_zcr", "sps_scg", "early_fused", "late_fused",
        ]

    def test_late_fused_reusing_base_models_matches_a_fresh_training(
        self, cli, corpus_dirs, tmp_path
    ):
        # --feature all hands each base model on to late fusion; alone,
        # late-fused trains them itself.  Seed 4 picks K = 2 and 4 in some
        # trials and scores one below F = 1.
        def late_fused_lines(feature):
            out = tmp_path / feature
            r = cli(
                "evaluate", corpus_dirs[0], corpus_dirs[1],
                "--feature", feature, "--p", 2, "--k-grid", "1,2,4",
                "--trials", 3, "--seed", 4, "--out", out,
            )
            assert r.returncode == 0, r.stderr
            return [
                [line for line in (out / name).read_text().splitlines() if "late_fused" in line]
                for name in ("trials.csv", "summary.csv")
            ]

        reused = late_fused_lines("all")
        assert [len(lines) for lines in reused] == [3, 1]
        assert reused == late_fused_lines("late-fused")

    def test_infeasible_kind_keeps_the_reports_of_the_others(self, cli, corpus_dirs, tmp_path):
        def run(feature, out):
            return cli(
                "evaluate", corpus_dirs[0], corpus_dirs[1],
                "--feature", feature, "--p", 3, "--k-grid", "1,2,4,8",
                "--trials", 2, "--out", out,
            )

        # 15-dim early_fused needs more than the ~10 inner training
        # intervals per class; the other kinds fit
        r = run("all", tmp_path / "all")
        assert r.returncode == 1
        assert "error: early_fused: no feasible K in grid [1, 2, 4, 8]" in r.stderr
        finished = ["sps_p", "sps_zcr", "sps_scg", "late_fused"]
        summary = (tmp_path / "all" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == finished
        trials = (tmp_path / "all" / "trials.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in trials[1:]] == [k for k in finished for _ in range(2)]
        assert "early_fused" not in (tmp_path / "all" / "report.txt").read_text()
        one = run("sps-zcr", tmp_path / "one")
        assert one.returncode == 0, one.stderr
        assert (tmp_path / "one" / "summary.csv").read_text().splitlines()[1] == summary[2]

    def test_missing_dir_exits_2(self, cli, corpus_dirs, tmp_path):
        r = cli(
            "evaluate", corpus_dirs[0], tmp_path / "nowhere",
            "--out", tmp_path / "out",
        )
        assert r.returncode == 2
        assert "error:" in r.stderr


class TestInspect:
    def test_spectrogram_shape(self, cli, speech_wav, tmp_path):
        r = cli(
            "inspect", speech_wav, "--emit", "spectrogram",
            "--interval-ms", 100, "--out", tmp_path,
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "spectrogram.csv").read_text().splitlines()
        # 100 ms at 22050 Hz: 2205 samples -> 71 frames of 331 bins
        assert lines[0] == "frame,bin,magnitude"
        assert len(lines) == 1 + 71 * 331
        assert lines[-1].startswith("70,330,")

    def test_sps_and_dist(self, cli, speech_wav, tmp_path):
        r = cli("inspect", speech_wav, "--p", 3, "--emit", "sps", "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        sps = (tmp_path / "sps.csv").read_text().splitlines()
        assert sps[0] == "row,frame,bin"
        assert len(sps) == 1 + 3 * 973
        r = cli("inspect", speech_wav, "--p", 3, "--emit", "dist", "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        zcr = (tmp_path / "dist_zcr.csv").read_text().splitlines()
        assert zcr[0] == "row,bin_or_lag,value"
        assert len(zcr) == 1 + 3 * 20
        ac = (tmp_path / "dist_autocorr.csv").read_text().splitlines()
        assert ac[0] == "row,bin_or_lag,value"
        assert len(ac) == 1 + 3 * 488  # lags 0..487

    def test_silent_file_notes_peakless_frames(self, cli, tmp_path):
        quiet = tmp_path / "quiet.wav"
        write_wav(quiet, np.zeros(22050), 22050)
        r = cli("inspect", quiet, "--p", 3, "--emit", "sps", "--out", tmp_path / "out")
        assert r.returncode == 0, r.stderr
        assert "peakless" in r.stderr
        rows = (tmp_path / "out" / "sps.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_each_interval_counted_once(self, cli, tmp_path):
        quiet = tmp_path / "quiet.wav"
        write_wav(quiet, np.zeros(2 * 22050), 22050)
        r = cli("inspect", quiet, "--p", 3, "--emit", "all", "--out", tmp_path / "out")
        assert r.returncode == 0, r.stderr
        assert "diagnostics: 1946 peakless frames" in r.stderr  # 2 intervals x 973

    def test_interval_under_one_sample_exits_2(self, cli, speech_wav, tmp_path):
        r = cli("inspect", speech_wav, "--out", tmp_path / "out", "--interval-ms", 0.01)
        assert r.returncode == 2, r.stderr
        assert "0.01 ms is under one sample at 22050 Hz" in r.stderr
        assert "Traceback" not in r.stderr

    def test_single_row(self, cli, speech_wav, tmp_path):
        r = cli("inspect", speech_wav, "--p", 1, "--emit", "all", "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        assert len((tmp_path / "sps.csv").read_text().splitlines()) == 1 + 973
        assert len((tmp_path / "dist_zcr.csv").read_text().splitlines()) == 1 + 20

    def test_interval_index_out_of_range(self, cli, speech_wav, tmp_path):
        r = cli("inspect", speech_wav, "--interval-index", 99, "--out", tmp_path)
        assert r.returncode == 2
        assert "interval index 99 out of range (input has 3)" in r.stderr

    def test_directory_counts_intervals_across_files(self, cli, corpus_dirs, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        for name in ("sp00.wav", "sp01.wav"):
            shutil.copy(corpus_dirs[0] / name, d / name)
        (d / "sub").mkdir()
        r = cli("inspect", d, "--p", 3, "--interval-index", 4, "--out", tmp_path / "dir")
        assert r.returncode == 0, r.stderr
        own = d / "sp01.wav"
        r = cli("inspect", own, "--p", 3, "--interval-index", 1, "--out", tmp_path / "file")
        assert r.returncode == 0, r.stderr
        for name in ("spectrogram.csv", "sps.csv"):
            assert (tmp_path / "dir" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestUsage:
    def test_help(self, cli):
        r = cli("--help")
        assert r.returncode == 0
        for cmd in ("extract", "train", "predict", "evaluate", "inspect"):
            assert cmd in r.stdout

    def test_no_subcommand(self, cli):
        r = cli()
        assert r.returncode == 2

    def test_unknown_flag(self, cli, speech_wav):
        r = cli("extract", speech_wav, "--out", "x.csv", "--bogus")
        assert r.returncode == 2

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bad_grid_checked_before_scanning(self, cli, tmp_path, command):
        ghost = tmp_path / "nowhere"
        r = cli(command, ghost, ghost, "--k-grid", "two", "--out", tmp_path / "out")
        assert r.returncode == 2
        assert "bad --k-grid 'two'" in r.stderr
        assert "not a directory" not in r.stderr

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_class_names_its_skipped_files(self, cli, corpus_dirs, tmp_path, command):
        r = cli(command, *corpus_dirs, "--interval-ms", 5000, "--out", tmp_path / "out")
        assert r.returncode == 2
        assert "error: no usable intervals for class 'speech'" in r.stderr
        for i in range(6):
            path = corpus_dirs[0] / f"sp{i:02d}.wav"
            assert (
                f"  {path}: signal of 66150 samples is shorter than one "
                "110250-sample interval\n"
            ) in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0"])
    @pytest.mark.parametrize("command", ["extract", "inspect", "train"])
    def test_interval_ms_must_be_finite_and_positive(self, cli, corpus_dirs, tmp_path, command, value):
        inputs = {
            "extract": [corpus_dirs[0]],
            "inspect": [corpus_dirs[0] / "sp00.wav"],
            "train": list(corpus_dirs),
        }[command]
        out = tmp_path / "out"
        r = cli(command, *inputs, "--interval-ms", value, "--out", out)
        assert r.returncode == 2, r.stderr
        shown = {"1e400": "inf", "0": "0.0"}.get(value, value)
        assert f"--interval-ms must be finite and above 0, got {shown}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--frame-ms", "--hop-ms"])
    def test_infinite_frame_or_hop_exits_2(self, cli, speech_wav, tmp_path, flag):
        r = cli("extract", speech_wav, flag, "inf", "--out", tmp_path / "x.csv")
        assert r.returncode == 2, r.stderr
        assert "need finite frame_ms > hop_ms > 0, got" in r.stderr
        assert "Traceback" not in r.stderr


def flags_read(command):
    """Attributes of its args that a cli command function reads, following
    args into every function of cli's own that it is passed to."""
    tree = ast.parse(inspect.getsource(spsgmm_cli))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    read, seen, todo = set(), set(), [(command.__name__, "args")]
    while todo:
        name, param = todo.pop()
        if (name, param) in seen:
            continue
        seen.add((name, param))
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == param:
                    read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs:
                params = [a.arg for a in defs[node.func.id].args.args]
                passed = list(zip(params, node.args)) + [(k.arg, k.value) for k in node.keywords]
                todo += [
                    (node.func.id, p) for p, arg in passed
                    if isinstance(arg, ast.Name) and arg.id == param
                ]
    return read


def test_every_flag_is_read():
    """No command accepts a flag, or an argument, that it then ignores."""
    parser = spsgmm_cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, p in sub.choices.items():
        read = flags_read(p.get_default("func"))
        unread += [
            f"{name} {(a.option_strings or [a.dest])[-1]}"
            for a in p._actions
            if a.dest != "help" and a.dest not in read
        ]
    assert not unread, f"flags that no command reads: {', '.join(unread)}"
