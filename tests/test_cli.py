"""End-to-end runs of the installed command-line interface in subprocesses:
artifact layout, exit codes, determinism, and stderr diagnostics; and a
static check that every command reads every flag it accepts."""

import argparse
import ast
import csv
import inspect
import io
import shutil
import stat
import warnings

import numpy as np
import pytest

from experiments.conditions import write_wav
from spsgmm import cli as spsgmm_cli
from spsgmm._util import atomic_write_text, csv_text
from spsgmm.audio_io import decode_wav, segment_intervals
from spsgmm.classifier import load_model, score
from spsgmm.pipeline import extract_features

from conftest import wav_bytes
from test_cli_checks import CASES, assert_refused, p_case

pytestmark = pytest.mark.slow  # most tests here fork a fresh interpreter


def refused(command, flags, tmp_path, capsys):
    """The in-process check of the flag table's row for command and flags."""
    message = next(m for c, f, m in CASES if (c, f) == (command, flags))
    assert_refused(command, flags, message, tmp_path, capsys)


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


def corpus_with_broken_wav(corpus_dirs, root, data=b"not a wav file"):
    """A copy of the session corpus whose speech directory also holds an
    undecodable WAV (by default not RIFF at all), and that file."""
    dirs = [root / "speech", root / "music"]
    for src, dst in zip(corpus_dirs, dirs):
        shutil.copytree(src, dst)
    broken = dirs[0] / "broken.wav"
    broken.write_bytes(data)
    return dirs, broken


def nan_wav_bytes():
    """A 3 s float32 WAV, 22050 Hz, with one NaN sample."""
    x = np.zeros(3 * 22050, np.float32)
    x[1000] = np.nan
    return wav_bytes(x, fmt="float32")


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

    def test_non_finite_sample_names_the_file(self, cli, corpus_dirs, tmp_path):
        d = tmp_path / "in"
        d.mkdir()
        shutil.copy(corpus_dirs[0] / "sp00.wav", d / "sp00.wav")
        (d / "nan.wav").write_bytes(nan_wav_bytes())
        r = cli("extract", d, "--p", 2, "--out", tmp_path / "feats.csv")
        assert r.returncode == 2
        assert r.stderr == f"error: {d / 'nan.wav'}: data chunk: non-finite sample\n"
        assert list(tmp_path.iterdir()) == [d]

    def test_missing_output_dir_is_named(self, cli, speech_wav, tmp_path):
        out = tmp_path / "missing_dir" / "feat.csv"
        r = cli("extract", speech_wav, "--feature", "sps-zcr", "--p", 2, "--out", out)
        assert r.returncode == 2
        assert "No such file or directory" in r.stderr
        assert str(out) in r.stderr and ".tmp-" not in r.stderr
        assert not out.parent.exists()

    def test_interval_under_one_sample_exits_2(self, cli, speech_wav, tmp_path):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--out", out, "--interval-ms", 0.01,
                "--frame-ms", 0.005, "--hop-ms", 0.001)  # the interval outlasts a frame
        assert r.returncode == 2, r.stderr
        assert "0.01 ms is under one sample at 22050 Hz" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--interval-ms", "1e308"],
         "interval of 1e+308 ms is inf samples at 22050 Hz, too many to count"),
        (["--frame-ms", "1e-9", "--hop-ms", "1e-10"],
         "frame of 1e-09 ms is 2.205e-08 samples at 22050 Hz, which rounds to no usable frame"),
    ])
    def test_duration_of_no_countable_samples_exits_2(self, cli, speech_wav, tmp_path,
                                                       flags, message):
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--out", out, *flags)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_empty_directory_exits_2(self, cli, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        r = cli("extract", empty, "--p", 2, "--out", tmp_path / "feats.csv")
        assert r.returncode == 2
        assert r.stderr == f"error: no files in directory {empty}\n"
        assert list(tmp_path.iterdir()) == [empty]

    def test_single_row_names_p(self, tmp_path, capsys):
        assert_refused("extract", ["--feature", "sps-p", "--p", "1"], p_case("extract")[1],
                       tmp_path, capsys)

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "evaluate"])
    def test_p_checked_before_decoding(self, tmp_path, capsys, command):
        refused(command, p_case(command)[0], tmp_path, capsys)

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

    def test_undecodable_file_noted_and_left_out(self, cli, corpus_dirs, model_path, tmp_path):
        dirs, broken = corpus_with_broken_wav(corpus_dirs, tmp_path)
        out = tmp_path / "model.txt"
        r = cli(
            "train", *dirs, "--feature", "sps-scg", "--p", 3, "--k-grid", "1,2", "--out", out,
        )
        assert r.returncode == 0, r.stderr
        assert f"skipped:\n{broken}: RIFF header: not a RIFF/WAVE file\n" in r.stderr
        assert "intervals:" not in r.stderr
        assert out.read_bytes() == model_path.read_bytes()

    def test_skipped_grid_entries_warned_in_the_cli_format(self, cli, corpus_dirs, tmp_path):
        r = cli(
            "train", *corpus_dirs, "--feature", "sps-scg", "--p", 3, "--k-grid", "1,2",
            "--out", tmp_path / "m.txt",
        )
        assert r.returncode == 0, r.stderr
        assert r.stderr == (
            "warning: grid entries [2] skipped: fewer than K*d=9*K training vectors in a class\n"
        )
        assert ".py:" not in r.stderr and "warnings.warn" not in r.stderr

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

    def test_dim_checked_before_reading_the_input(self, cli, model_path, tmp_path):
        r = cli("predict", model_path, tmp_path / "ghost.wav", "--p", 4)  # never opened
        assert r.returncode == 2
        assert r.stderr == "error: model expects dim 9, got 12\n"

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

    def test_weights_off_the_simplex_exit_2(self, cli, model_path, speech_wav, tmp_path):
        lines = model_path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("weights "))  # speech
        lines[i] = "weights " + " ".join(repr(5 * float(w)) for w in lines[i].split()[1:])
        bad = tmp_path / "bad.model"
        bad.write_text("\n".join(lines) + "\n")
        r = cli("predict", bad, speech_wav, "--p", 3)
        assert r.returncode == 2
        assert "error: model file class speech weights: sum 5.0 is not 1" in r.stderr
        assert r.stdout == ""

    def test_malformed_model_exits_2(self, cli, model_path, speech_wav, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(model_path.read_text().replace("means\n", "means\nnot-a-number\n", 1))
        r = cli("predict", bad, speech_wav, "--p", 3)
        assert r.returncode == 2
        assert "error:" in r.stderr and "Traceback" not in r.stderr

    def test_appended_lines_refused(self, cli, model_path, speech_wav, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text(model_path.read_text() + "meta\nfeature_kind sps_zcr\n")
        r = cli("predict", bad, speech_wav, "--p", 3)
        assert r.returncode == 2
        assert r.stderr == "error: unexpected line in model file: 'meta'\n"
        assert r.stdout == ""

    def test_swapped_arguments_exit_2(self, cli, model_path, speech_wav):
        r = cli("predict", speech_wav, model_path, "--p", 3)  # a WAV is not UTF-8 text
        assert r.returncode == 2
        assert r.stderr == "error: not a spsgmm v1 model file\n"
        assert r.stdout == ""

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

    def test_undecodable_file_noted_and_left_out(self, cli, corpus_dirs, tmp_path):
        def run(dirs, out):
            return cli(
                "evaluate", *dirs, "--feature", "sps-scg", "--p", 3, "--k-grid", "1",
                "--trials", 2, "--seed", 3, "--out", out,
            )

        dirs, broken = corpus_with_broken_wav(corpus_dirs, tmp_path)
        r = run(dirs, tmp_path / "with")
        assert r.returncode == 0, r.stderr
        assert f"skipped:\n{broken}: RIFF header: not a RIFF/WAVE file\n" in r.stderr
        assert "intervals:" not in r.stderr
        assert run(corpus_dirs, tmp_path / "without").returncode == 0
        for name in ("trials.csv", "summary.csv"):
            with_broken = (tmp_path / "with" / name).read_bytes()
            assert with_broken == (tmp_path / "without" / name).read_bytes()
        assert "skipped_files" in (tmp_path / "with" / "report.txt").read_text()

    def test_non_finite_file_noted_and_left_out(self, cli, corpus_dirs, tmp_path):
        def run(dirs, out):
            return cli(
                "evaluate", *dirs, "--feature", "sps-zcr", "--p", 3, "--k-grid", "1",
                "--trials", 2, "--seed", 3, "--out", out,
            )

        dirs, broken = corpus_with_broken_wav(corpus_dirs, tmp_path, nan_wav_bytes())
        r = run(dirs, tmp_path / "with")
        assert r.returncode == 0, r.stderr
        assert f"skipped:\n{broken}: data chunk: non-finite sample\n" in r.stderr
        assert run(corpus_dirs, tmp_path / "without").returncode == 0
        for name in ("trials.csv", "summary.csv"):
            with_broken = (tmp_path / "with" / name).read_bytes()
            assert with_broken == (tmp_path / "without" / name).read_bytes()
        report = (tmp_path / "with" / "report.txt").read_text()
        assert report.replace("skipped_files: 1", "skipped_files: 0") == (
            tmp_path / "without" / "report.txt"
        ).read_text()

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

    def test_no_feasible_kind_exits_1_and_writes_nothing(self, cli, corpus_dirs, tmp_path):
        out = tmp_path / "out"
        r = cli(
            "evaluate", corpus_dirs[0], corpus_dirs[1],
            "--feature", "sps-scg", "--p", 3, "--k-grid", "64", "--trials", 2, "--out", out,
        )
        assert r.returncode == 1
        assert "error: sps_scg: no feasible K in grid [64]" in r.stderr
        assert r.stdout == ""
        assert not out.exists()

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
        r = cli("inspect", speech_wav, "--out", tmp_path / "out", "--interval-ms", 0.01,
                "--frame-ms", 0.005, "--hop-ms", 0.001)  # the interval outlasts a frame
        assert r.returncode == 2, r.stderr
        assert "0.01 ms is under one sample at 22050 Hz" in r.stderr
        assert "Traceback" not in r.stderr

    def test_single_row(self, cli, speech_wav, tmp_path):
        r = cli("inspect", speech_wav, "--p", 1, "--emit", "all", "--out", tmp_path)
        assert r.returncode == 0, r.stderr
        assert len((tmp_path / "sps.csv").read_text().splitlines()) == 1 + 973
        assert len((tmp_path / "dist_zcr.csv").read_text().splitlines()) == 1 + 20

    def test_p_checked_before_reading_the_input(self, tmp_path, capsys):
        refused("inspect", ["--p", "0"], tmp_path, capsys)

    def test_p_checked_before_decoding(self, tmp_path, capsys):
        refused("inspect", ["--p", "0"], tmp_path, capsys)

    def test_frame_and_hop_checked_before_decoding(self, tmp_path, capsys):
        refused("inspect", ["--frame-ms", "1", "--hop-ms", "2"], tmp_path, capsys)

    def test_negative_interval_index_refused_before_reading_the_input(self, cli, tmp_path):
        out = tmp_path / "out"
        r = cli("inspect", tmp_path / "missing.wav", "--interval-index", -1, "--out", out)
        assert r.returncode == 2
        assert r.stderr == "error: interval index must be >= 0, got -1\n"
        assert not out.exists()

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


class TestQuotedSourceIds:
    """Source ids are file names, which may hold the CSV's own separators."""

    @pytest.fixture(scope="class")
    def odd_dir(self, corpus_dirs, tmp_path_factory):
        """Copies of one 3 s speech file under names holding a comma, a
        double quote and, where the filesystem takes them, a line feed and
        a carriage return."""
        d = tmp_path_factory.mktemp("odd")
        names = []
        for name in ("a,b.wav", 'say "hi".wav', "two\nlines.wav", "car\rriage.wav"):
            try:
                shutil.copy(corpus_dirs[0] / "sp00.wav", d / name)
            except OSError:
                continue
            names.append(name)
        assert len(names) >= 2
        return d, sorted(names)

    @staticmethod
    def check(path, names):
        with open(path, newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert header[0] == "source_id"
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == [n for n in names for _ in range(3)]

    def test_extract(self, cli, odd_dir, tmp_path):
        d, names = odd_dir
        r = cli("extract", d, "--feature", "all", "--p", 3, "--out", tmp_path / "f.csv")
        assert r.returncode == 0, r.stderr
        outputs = sorted(tmp_path.iterdir())
        assert len(outputs) == 4
        for path in outputs:
            self.check(path, names)

    def test_predict(self, cli, model_path, odd_dir, tmp_path):
        d, names = odd_dir
        out = tmp_path / "pred.csv"
        r = cli("predict", model_path, d, "--p", 3, "--out", out)
        assert r.returncode == 0, r.stderr
        self.check(out, names)

    def test_carriage_return_quotes_its_row_alone(self):
        rows = [["a\rb.wav", 0, 1.5], ["c,d.wav", 1, 2.5], ["e.wav", 2, 3.5]]
        text = csv_text(["source_id", "interval_index", "x"], rows)
        assert text == (
            'source_id,interval_index,x\n"a\rb.wav","0","1.5"\n"c,d.wav",1,2.5\ne.wav,2,3.5\n'
        )
        header, *back = csv.reader(io.StringIO(text, newline=""))
        assert back == [[str(v) for v in row] for row in rows]


class TestFileModes:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_new_file_follows_the_umask_and_replaced_file_keeps_its_mode(
        self, cli, speech_wav, tmp_path, umask
    ):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("old\n")
        old.chmod(0o644)
        for out in (new, old):
            r = cli("extract", speech_wav, "--feature", "sps-zcr", "--p", 2, "--out", out,
                    umask=umask)
            assert r.returncode == 0, r.stderr
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o644
        assert old.read_text() == new.read_text()

    def test_failed_replace_names_the_path_and_leaves_no_temp_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_text(str(taken), "text\n")
        assert str(info.value) == f"[Errno 21] Is a directory: {str(taken)!r}"
        assert list(tmp_path.iterdir()) == [taken] and list(taken.iterdir()) == []

    def test_failed_open_names_the_path(self, tmp_path):
        path = str(tmp_path / "missing" / "out.csv")
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(path, "text\n")
        assert str(info.value) == f"[Errno 2] No such file or directory: {path!r}"
        assert list(tmp_path.iterdir()) == []


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
    def test_bad_grid_checked_before_scanning(self, tmp_path, capsys, command):
        refused(command, ["--k-grid", "two"], tmp_path, capsys)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_negative_seed_refused_before_scanning(self, tmp_path, capsys, command):
        refused(command, ["--seed", "-1"], tmp_path, capsys)

    def test_warnings_shown_once_each_without_a_source_path(self, monkeypatch, capsys):
        def command(args):
            for message in ("first", "second", "first"):
                warnings.warn(message)
            return 0

        monkeypatch.setattr(spsgmm_cli, "cmd_extract", command)
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            assert spsgmm_cli.main(["extract", "in.wav", "--out", "x.csv"]) == 0
        assert capsys.readouterr().err == "warning: first\nwarning: second\n"

    def test_warning_filters_still_apply(self, monkeypatch):
        def command(args):
            warnings.warn("invalid value", RuntimeWarning)
            return 0

        monkeypatch.setattr(spsgmm_cli, "cmd_extract", command)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="invalid value"):
                spsgmm_cli.main(["extract", "in.wav", "--out", "x.csv"])

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
    def test_interval_ms_must_be_finite_and_positive(self, tmp_path, capsys, command, value):
        refused(command, ["--interval-ms", value], tmp_path, capsys)

    @pytest.mark.parametrize("flag", ["--frame-ms", "--hop-ms"])
    def test_infinite_frame_or_hop_exits_2(self, tmp_path, capsys, flag):
        refused("extract", [flag, "inf"], tmp_path, capsys)

    @pytest.mark.parametrize("command", ["extract", "train", "predict", "evaluate", "inspect"])
    def test_frame_and_hop_checked_before_decoding(self, tmp_path, capsys, command):
        refused(command, ["--frame-ms", "1", "--hop-ms", "2"], tmp_path, capsys)

    @pytest.mark.parametrize("interval_ms", [10, 30])
    @pytest.mark.parametrize("command", ["extract", "train", "predict", "evaluate", "inspect"])
    def test_interval_no_longer_than_a_frame_refused_before_reading(
        self, tmp_path, capsys, command, interval_ms
    ):
        refused(command, ["--interval-ms", str(interval_ms)], tmp_path, capsys)

    @pytest.mark.parametrize("interval_ms", [30.5, 30.99])
    def test_interval_of_one_frame_refused_before_decoding(self, tmp_path, capsys, interval_ms):
        refused("extract", ["--interval-ms", str(interval_ms)], tmp_path, capsys)

    def test_interval_of_a_frame_and_a_hop_extracts(self, cli, speech_wav, tmp_path):
        # 31 ms at 22050 Hz is 684 samples: exactly two frames of 662 a hop of 22 apart
        out = tmp_path / "feats.csv"
        r = cli("extract", speech_wav, "--interval-ms", 31, "--feature", "sps-zcr",
                "--p", 3, "--out", out)
        assert r.returncode == 0, r.stderr
        assert r.stdout == f"wrote {out} ({3 * 22050 // 684} rows)\n"


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
