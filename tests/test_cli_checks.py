"""The CLI's flag checks, run in-process: every bad analysis or fit flag,
and every --out the command could not write, is refused with exit 2 before
any path is opened, so before any audio is decoded; an output that is a file
the command reads is refused before decoding too; a corpus of two sample
rates is refused before any feature is extracted; and an interval too short
for two frames at its file's rate is refused by name once the rate is
known."""

import os

import numpy as np
import pytest

from experiments.conditions import write_wav
from spsgmm import cli as spsgmm_cli
from spsgmm.audio_io import AudioInterval
from spsgmm.errors import ConfigError
from spsgmm.pipeline import extract_features

COMMANDS = ("extract", "train", "predict", "evaluate", "inspect")

ANALYSIS_FLAGS = [
    (["--frame-ms", "1", "--hop-ms", "2"], "need finite frame_ms > hop_ms > 0, got 1.0/2.0"),
    (["--frame-ms", "inf"], "need finite frame_ms > hop_ms > 0, got inf/1.0"),
    (["--interval-ms", "30.5"],
     "--interval-ms must be at least --frame-ms + --hop-ms, got 30.5 < 30.0 + 1.0"),
    (["--interval-ms", "nan"], "--interval-ms must be finite and above 0, got nan"),
    (["--interval-ms", "inf"], "--interval-ms must be finite and above 0, got inf"),
    (["--interval-ms", "0"], "--interval-ms must be finite and above 0, got 0.0"),
]

FIT_FLAGS = [
    (["--k-grid", "0"], "--k-grid must be >= 1, got 0"),
    (["--k-grid", "1,-2,0"], "--k-grid must be >= 1, got -2, 0"),
    (["--k-grid", "two"], "bad --k-grid 'two'; expected comma-separated integers"),
    (["--k-grid", ","], "bad --k-grid ','; entries must be >= 1"),
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
]


# inputs added after the rows above, listed last so that each case keeps its id
MORE_ANALYSIS_FLAGS = [
    (["--interval-ms", "1e400"], "--interval-ms must be finite and above 0, got inf"),
    (["--interval-ms", "10"],
     "--interval-ms must be at least --frame-ms + --hop-ms, got 10.0 < 30.0 + 1.0"),
    (["--interval-ms", "30"],
     "--interval-ms must be at least --frame-ms + --hop-ms, got 30.0 < 30.0 + 1.0"),
    # 683 samples at 22050 Hz: one 662-sample frame, the second 22 samples on
    (["--interval-ms", "30.99"],
     "--interval-ms must be at least --frame-ms + --hop-ms, got 30.99 < 30.0 + 1.0"),
    (["--hop-ms", "inf"], "need finite frame_ms > hop_ms > 0, got 30.0/inf"),
]

# an --out the command could not write, listed after the rows above: a file
# in a directory that is not there, and a directory that is a file
NO_DIR = os.path.join(os.devnull, "out")
OUT_CASES = [
    *[(c, ["--out", NO_DIR], f"[Errno 2] No such file or directory: {NO_DIR!r}")
      for c in ("extract", "train", "predict")],
    *[(c, ["--out", os.devnull], f"[Errno 17] File exists: {os.devnull!r}")
      for c in ("evaluate", "inspect")],
    # a directory --out that cannot be made: one under a file
    *[(c, ["--out", NO_DIR], f"[Errno 20] Not a directory: {NO_DIR!r}")
      for c in ("evaluate", "inspect")],
]


def p_case(command):
    if command == "inspect":  # inspect needs one peak row, extraction two
        return ["--p", "0"], "p must be >= 1, got 0"
    return ["--p", "1"], (
        "p must be >= 2 to extract features, got 1: the centroid gradient of "
        "sps_scg compares neighbouring peak rows"
    )


CASES = [
    *[(c, *p_case(c)) for c in COMMANDS],
    *[(c, flags, msg) for c in COMMANDS for flags, msg in ANALYSIS_FLAGS],
    *[(c, flags, msg) for c in ("train", "evaluate") for flags, msg in FIT_FLAGS],
    *[(c, flags, msg) for c in COMMANDS for flags, msg in MORE_ANALYSIS_FLAGS],
    *OUT_CASES,
]


@pytest.fixture
def wav(tmp_path):
    path = tmp_path / "in" / "a.wav"
    path.parent.mkdir()
    write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, 22050), 22050)
    return path


def argv_of(command, wav, out):
    inputs = {
        "extract": [wav],
        "train": [wav.parent, wav.parent],
        "predict": [wav.parent / "model.txt", wav],  # the model is never opened
        "evaluate": [wav.parent, wav.parent],
        "inspect": [wav],
    }[command]
    return [command, *map(str, inputs), "--out", str(out)]


def assert_refused(command, flags, message, tmp_path, capsys):
    """command with flags, on paths that do not exist, exits 2 with message
    alone on stderr and writes nothing: the flags were refused before any
    path was opened, so before any audio was decoded."""
    out = tmp_path / "out"
    assert spsgmm_cli.main([*argv_of(command, tmp_path / "missing" / "a.wav", out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", CASES)
def test_refused_before_decoding(command, flags, message, tmp_path, capsys):
    assert_refused(command, flags, message, tmp_path, capsys)


def spy_on_decoding(monkeypatch):
    """The list of paths decode_wav is asked for from now on; each call
    raises OSError("recorded")."""
    decoded = []

    def record(path):
        decoded.append(path)
        raise OSError("recorded")

    monkeypatch.setattr(spsgmm_cli.audio_io, "decode_wav", record)
    return decoded


@pytest.mark.parametrize("command", ("extract", "train", "evaluate", "inspect"))
def test_good_flags_reach_decoding(command, wav, tmp_path, monkeypatch):
    # the control for the table: with no bad flag, a run decodes its input
    decoded = spy_on_decoding(monkeypatch)
    assert spsgmm_cli.main([*argv_of(command, wav, tmp_path / "out"), "--p", "2"]) == 2
    assert decoded == [str(wav)]


@pytest.mark.parametrize("command, flags, taken", [
    ("extract", ["--feature", "sps-zcr"], "out"),
    ("extract", ["--feature", "all"], "out_sps_scg.csv"),  # the third of its four CSVs
    ("train", [], "out"),
    ("predict", [], "out"),
    ("evaluate", [], "out/trials.csv"),  # the second of its three files
    ("inspect", [], "out/dist_zcr.csv"),
])
def test_file_out_that_is_a_directory_refused_before_decoding(
    command, flags, taken, wav, tmp_path, monkeypatch, capsys
):
    taken = tmp_path / taken
    taken.mkdir(parents=True)
    decoded = spy_on_decoding(monkeypatch)
    assert spsgmm_cli.main([*argv_of(command, wav, tmp_path / "out"), "--p", "2", *flags]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(taken)!r}\n"
    assert decoded == []
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == [wav]


@pytest.mark.parametrize("command, flags, taken, out", [
    # sps.csv is not a file of --emit spectrogram
    ("inspect", ["--emit", "spectrogram"], "out/sps.csv", "out"),
    # no model is in the input directory yet, so train does not read one
    ("train", [], "elsewhere", "in/model.txt"),
])
def test_output_the_run_can_write_reaches_decoding(command, flags, taken, out, wav, tmp_path,
                                                    monkeypatch):
    (tmp_path / taken).mkdir(parents=True)
    decoded = spy_on_decoding(monkeypatch)
    assert spsgmm_cli.main([*argv_of(command, wav, tmp_path / out), "--p", "2", *flags]) == 2
    assert decoded == [str(wav)]


@pytest.mark.parametrize("command, inputs, flags, out", [
    ("extract", ["in/a.wav"], ["--feature", "sps-p"], "in/../in/a.wav"),  # the input WAV
    ("predict", ["model.txt", "in/a.wav"], [], "model.txt"),  # the model
    ("train", ["in", "in"], [], "in/model.txt"),  # a file of an input directory
])
def test_output_the_command_reads_refused_before_decoding(command, inputs, flags, out, wav,
                                                          tmp_path, monkeypatch, capsys):
    for model in (tmp_path / "model.txt", wav.parent / "model.txt"):
        model.write_text("spsgmm v1\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    decoded = spy_on_decoding(monkeypatch)
    out = tmp_path / out
    argv = [command, *(str(tmp_path / i) for i in inputs), "--out", str(out), "--p", "2", *flags]
    assert spsgmm_cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: refusing to write {out}: this command reads it\n"
    assert decoded == []
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ("evaluate", "inspect"))
def test_directory_out_under_a_file_refused_before_decoding(command, wav, tmp_path, monkeypatch,
                                                             capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub" / "out"
    decoded = spy_on_decoding(monkeypatch)
    assert spsgmm_cli.main([*argv_of(command, wav, out), "--p", "2"]) == 2
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: {str(out)!r}\n"
    assert decoded == []


@pytest.mark.parametrize("command", ("train", "evaluate"))
def test_corpus_of_two_rates_refused_before_extraction(command, tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(2)
    for label in ("speech", "music"):
        (tmp_path / label).mkdir()
        write_wav(tmp_path / label / "a.wav", rng.uniform(-0.5, 0.5, 22050), 22050)
    write_wav(tmp_path / "speech" / "b.wav", rng.uniform(-0.5, 0.5, 44100), 44100)
    extracted = []
    monkeypatch.setattr(spsgmm_cli.pipeline, "extract_corpus", lambda *a, **kw: extracted.append(a))
    out = tmp_path / "out"
    argv = [command, str(tmp_path / "speech"), str(tmp_path / "music"), "--p", "3",
            "--k-grid", "1", "--out", str(out)]
    assert spsgmm_cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: refusing a corpus of more than one sample rate: "
        "22050 Hz (music/a.wav), 44100 Hz (speech/b.wav)\n"
    )
    assert extracted == []
    assert not out.exists()


def test_interval_of_one_frame_at_44100_named_by_file(tmp_path, capsys):
    # 31 ms passes the duration check, but at 44100 Hz it is 1367 samples: one
    # 1324-sample frame, and the second, 44 samples later, needs 1368
    path = tmp_path / "s.wav"
    write_wav(path, np.random.default_rng(1).uniform(-0.5, 0.5, 44100), 44100)
    out = tmp_path / "feats.csv"
    argv = ["extract", str(path), "--interval-ms", "31", "--p", "3", "--out", str(out)]
    assert spsgmm_cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: s.wav interval 0: 1367 samples at 44100 Hz, but two 1324-sample frames "
        "44 apart need 1368; lengthen the interval or shorten the frame or the hop\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("n, hop_ms", [(1367, 1.0), (1323, 0.01)])  # one frame, and none
def test_extract_features_names_an_interval_short_of_two_frames(n, hop_ms):
    iv = AudioInterval(np.zeros(n), 44100, source_id="s.wav", index=7)
    with pytest.raises(ConfigError, match=rf"^s\.wav interval 7: {n} samples at 44100 Hz, "):
        extract_features(iv, p=3, hop_ms=hop_ms)


def test_two_frames_exactly_extract():
    # 1368 samples at 44100 Hz: two 1324-sample frames 44 apart
    iv = AudioInterval(np.zeros(1368), 44100, source_id="s.wav", index=0)
    _, peakless = extract_features(iv, p=3)
    assert peakless == 2
