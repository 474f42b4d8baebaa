"""Command-line interface: outputs, exit codes, config file handling."""

import json
import shlex
import struct
import tempfile
from pathlib import Path

import pytest

from evenlog import cli
from evenlog.cli import build_parser, main
from evenlog.engine import WalEngine
from evenlog.journal import JournalBackend
from evenlog.records import FLAG_CHECKPOINT, encode_record, encoded_record_size

from .conftest import MASTER, MUTATING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLeakPosterior:
    def test_fnos_identity_output(self, capsys):
        code, out, _ = run_cli(capsys, "leak", "posterior", "--scheme", "fnos", "--prior", "0.9,0.1")
        assert code == 0 and out.strip() == "0.9,0.1"

    def test_vnos_closed_form_output(self, capsys):
        code, out, _ = run_cli(capsys, "leak", "posterior", "--scheme", "vnos", "--prior", "0.5,0.5")
        assert code == 0 and out.strip() == "0.3333,0.6667"

    def test_bad_prior_is_operational_error(self, capsys):
        code, _, err = run_cli(capsys, "leak", "posterior", "--scheme", "vnos", "--prior", "0,0")
        assert code == 1 and "error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["leak", "posterior", "--scheme", "vnos", "--bogus", "1"])
        assert exc_info.value.code == 2


class TestLeakSimulate:
    def test_simulate_agrees_with_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "leak", "simulate", "--scheme", "fnos", "--prior", "0.7,0.3",
            "--candidates", "6", "--trials", "20000", "--seed", "3", "--out", "json",
        )
        assert code == 0
        payload = json.loads(out)
        emp, closed = payload["empirical"], payload["closed_form"]
        assert all(abs(e - c) < 0.02 for e, c in zip(emp, closed))


class TestBench:
    def test_seq_json_exact_byte_accounting(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "seq", "--dist", "constant:80", "--ops", "50",
            "--segment", "128", "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 0
        report = json.loads(out)
        # record = 816 B -> 7 units per write
        assert report["ops"] == 50
        assert report["bytes_padded"] == 50 * 7 * 128
        assert report["bytes_written_actual"] == 50 * 7 * 144
        assert report["relative_cost"] == pytest.approx(896 / 816)
        assert sorted(report["config"]["spec"]) == ["alpha", "constant", "distribution", "op_count", "seed"]

    def test_conc_smoke(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "conc", "--dist", "uniform", "--ops", "100",
            "--workers", "4", "--dir", str(tmp_path), "--out", "json",
            "--flush-interval-ms", "20",
        )
        assert code == 0
        assert json.loads(out)["ops"] == 100

    @pytest.mark.parametrize("mode, interval", [("seq", None), ("conc", 20.0)])
    def test_only_conc_runs_a_periodic_flusher(self, capsys, tmp_path, monkeypatch, mode, interval):
        seen = []

        class Recording(WalEngine):
            def __init__(self, backend, slot_capacity, flush_interval_ms):
                seen.append(flush_interval_ms)
                super().__init__(backend, slot_capacity, flush_interval_ms)

        monkeypatch.setattr(cli, "WalEngine", Recording)
        argv = ["bench", mode, "--ops", "20", "--flush-interval-ms", "20", "--dir", str(tmp_path)]
        if mode == "seq":  # no flusher to hand the interval to: a usage error
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2 and seen == []
            assert "unrecognized arguments: --flush-interval-ms" in capsys.readouterr().err
            return
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0 and seen == [interval]

    def test_quorum_scheme(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "seq", "--dist", "constant:20", "--ops", "10",
            "--scheme", "quorum", "--selection", "fnos", "--replicas", "18",
            "--max-write-size", "512", "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bytes_fake"] > 0

    def test_naive_refuses_a_capacity_that_is_not_whole_words(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "seq", "--scheme", "naive", "--capacity", "1001", "--ops", "20",
            "--dir", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err and "multiple of 4" in err

    def test_seq_refuses_a_capacity_that_is_not_positive(self, capsys, tmp_path):
        root = tmp_path / "wal"
        code, out, err = run_cli(
            capsys, "bench", "seq", "--capacity", "0", "--ops", "5", "--dir", str(root),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err and "--capacity 0" in err
        assert not root.exists() or not any(root.iterdir())

    def test_seq_quorum_refuses_a_max_write_size_off_the_segment_grid(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "bench", "seq", "--scheme", "quorum", "--max-write-size", "100", "--ops", "5",
            "--dir", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err and "multiple of the segment size" in err

    def test_conc_quorum_bounds_the_default_slot_by_max_write_size(self, capsys, tmp_path):
        # the default 128 KiB slot holds at most one quorum write of MS bytes
        code, out, _ = run_cli(
            capsys, "bench", "conc", "--scheme", "quorum", "--ops", "200",
            "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 0
        assert json.loads(out)["ops"] == 200

    def test_conc_quorum_with_slot_within_max_write_size(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "conc", "--scheme", "quorum", "--ops", "200", "--capacity", "2048",
            "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 0
        assert json.loads(out)["ops"] == 200

    @pytest.mark.parametrize("max_write, dist", [("640", "uniform"), ("512", "constant:100")])
    def test_conc_worker_error_fails_the_run(self, capsys, tmp_path, max_write, dist):
        # writes run up to 1000 bytes, past the largest flush (the max write
        # size): a larger record makes its worker's append raise, and the
        # run reports that error instead of a result
        code, out, err = run_cli(
            capsys, "bench", "conc", "--scheme", "quorum", "--max-write-size", max_write,
            "--dist", dist, "--ops", "200", "--workers", "2", "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestRecover:
    def test_recover_counts_records(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
        code, _, _ = run_cli(
            capsys, "bench", "seq", "--dist", "constant:80", "--ops", "7",
            "--dir", str(tmp_path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "recover", "--dir", str(tmp_path), "--out", "json")
        assert code == 0
        assert json.loads(out)["records"] == 7

    def test_recover_reports_bytes_and_checkpoints(self, capsys, tmp_path, monkeypatch, key):
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
        payloads = [b"a", b"bb" * 50, b"c" * 129]
        checkpoint = struct.pack("<Q", 1)
        engine = WalEngine(JournalBackend(tmp_path, key, sync=False))
        for p in payloads:
            engine.append(p)
        engine.slot.append(encode_record(checkpoint, FLAG_CHECKPOINT))
        engine.close()
        code, out, _ = run_cli(capsys, "recover", "--dir", str(tmp_path), "--out", "json")
        assert code == 0
        assert json.loads(out) == {
            "records": 4,
            "bytes": sum(encoded_record_size(len(p)) for p in payloads + [checkpoint]),
            "checkpoints": 1,
        }

    @pytest.mark.parametrize("scheme", ["journal", "plain"])
    def test_missing_dir_is_operational_error(self, capsys, tmp_path, monkeypatch, scheme):
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
        missing = tmp_path / "missing"
        code, out, err = run_cli(capsys, "recover", "--scheme", scheme, "--dir", str(missing))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not missing.exists()

    @pytest.mark.parametrize("scheme", ["journal", "plain"])
    def test_recover_leaves_tree_unchanged(self, capsys, tmp_path, monkeypatch, disk, scheme):
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
        empty = tmp_path / "empty"
        empty.mkdir()
        full = tmp_path / "full"
        code, _, _ = run_cli(
            capsys, "bench", "seq", "--scheme", scheme, "--dist", "constant:80", "--ops", "5",
            "--dir", str(full),
        )
        assert code == 0

        def tree():
            return sorted((str(p.relative_to(tmp_path)), p.stat().st_size, p.stat().st_mtime_ns)
                          for p in tmp_path.rglob("*"))

        before = tree()
        disk.fail = set(MUTATING)  # and makes no call that could change it
        for root, records in ((empty, 0), (full, 5)):
            code, out, _ = run_cli(capsys, "recover", "--scheme", scheme, "--dir", str(root), "--out", "json")
            assert code == 0 and json.loads(out)["records"] == records
        assert tree() == before


class TestAttackPipeline:
    def test_gen_train_eval_roundtrip(self, capsys, tmp_path):
        trace = tmp_path / "train.csv"
        model = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys, "gen", "--attack-groups", "1-15:128,16-18:384", "--per-group", "100",
            "--seed", "4", "--out-file", str(trace),
        )
        assert code == 0 and "200" in out
        code, out, _ = run_cli(
            capsys, "attack", "train", "--trace", str(trace), "--save", str(model), "--out", "json",
        )
        assert code == 0
        trained = json.loads(out)
        assert trained["mapping"]["bounds"] == [0, 15, 18]
        assert trained["objective"] == 200
        code, out, _ = run_cli(
            capsys, "attack", "eval", "--trace", str(trace), "--model", str(model), "--out", "json",
        )
        assert code == 0
        scores = json.loads(out)
        assert scores["128"]["precision"] == 1.0 and scores["384"]["recall"] == 1.0

    def test_gen_workload_sizes(self, capsys, tmp_path):
        out_file = tmp_path / "sizes.csv"
        code, _, _ = run_cli(capsys, "gen", "--dist", "constant:80", "--ops", "9",
                             "--out-file", str(out_file))
        assert code == 0
        rows = out_file.read_text().splitlines()
        assert rows[0] == "op,payload_size" and len(rows) == 10
        assert all(r.endswith(",800") for r in rows[1:])


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "evenlog.conf"
        cfg.write_text("segment_size = 512\nseed = 9\noutput = json\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "bench", "seq", "--dist", "constant:80",
            "--ops", "10", "--dir", str(tmp_path / "j"),
        )
        assert code == 0
        report = json.loads(out)  # output=json came from the config
        assert report["bytes_padded"] == 10 * 2 * 512  # 816 -> 2 units of 512
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "bench", "seq", "--dist", "constant:80",
            "--ops", "10", "--segment", "128", "--dir", str(tmp_path / "k"),
        )
        assert json.loads(out)["bytes_padded"] == 10 * 7 * 128  # flag wins

    def test_a_key_the_command_does_not_take_is_neither_read_nor_checked(self, capsys, tmp_path):
        cfg = tmp_path / "bench.conf"
        cfg.write_text("selection = bogus\nflush_interval_ms = abc\n")  # bench's and bench conc's keys
        code, out, _ = run_cli(capsys, "--config", str(cfg), "leak", "posterior",
                               "--scheme", "fnos", "--prior", "0.9,0.1")
        assert code == 0 and out.strip() == "0.9,0.1"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "leak", "posterior",
                               "--scheme", "fnos", "--prior", "1")
        assert code == 1 and "wibble" in err

    def test_checkpoint_interval_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "old.conf"
        cfg.write_text("checkpoint_interval_s = 60\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "leak", "posterior",
                               "--scheme", "fnos", "--prior", "1")
        assert code == 1 and "unknown key" in err


# Inputs the CLI once answered with a Python traceback or took in silence.
# Each must end in one ``error:`` line and exit 1. "{dir}" is the test's
# directory, which holds the files of BAD_FILES.
BAD_INPUTS = {
    "bench-conc-no-workers": ("bench conc --workers 0 --ops 5 --dir {dir}/wal", None),
    "bench-dir-is-a-file": ("bench seq --ops 3 --dir {dir}/bad-seed.conf", None),
    "bench-conc-zero-flush-interval": ("bench conc --flush-interval-ms 0 --ops 5 --dir {dir}/wal", None),
    "bench-conc-negative-flush-interval": ("bench conc --flush-interval-ms -5 --ops 5 --dir {dir}/wal", None),
    "bench-fnos-fewer-groups-than-k": (
        "bench seq --scheme quorum --selection fnos --replicas 12 --max-write-size 2048 --ops 3 --dir {dir}/wal", None),
    "simulate-fewer-candidates-than-groups": ("leak simulate --scheme vnos --prior 1,1 --candidates 1", None),
    "simulate-too-few-trials": ("leak simulate --scheme vnos --prior 1,1 --trials 10", None),
    "posterior-fewer-candidates-than-groups": ("leak posterior --scheme vnos --prior 1,1,1 --candidates 2", None),
    "posterior-fnos-no-candidates": ("leak posterior --scheme fnos --prior 0.5,0.5 --candidates 0", None),
    "gen-attack-group-not-a-number": ("gen --attack-groups 1-x:3 --out-file {dir}/t.csv", None),
    "gen-attack-group-backwards": ("gen --attack-groups 5-1:3 --out-file {dir}/t.csv", None),
    "gen-attack-group-wider-than-per-group": ("gen --attack-groups 1-15:128 --per-group 5 --out-file {dir}/t.csv", None),
    "gen-confusion-above-one": ("gen --attack-groups 1-3:128,4-6:256 --per-group 5 --confusion 2 --out-file {dir}/t.csv", None),
    "gen-confusion-below-zero": ("gen --attack-groups 1-3:128,4-6:256 --per-group 5 --confusion -1 --out-file {dir}/t.csv", None),
    "config-seed-not-a-number": ("--config {dir}/bad-seed.conf gen --ops 3 --out-file {dir}/t.csv", None),
    "config-selection-not-a-choice": (
        "--config {dir}/bad-selection.conf bench seq --scheme quorum --ops 3 --dir {dir}/wal", None),
    "config-output-not-a-choice": ("--config {dir}/bad-output.conf bench seq --ops 3 --dir {dir}/wal", None),
    "key-not-hex": ("bench seq --ops 3 --dir {dir}/wal", "not-hex"),
    "attack-trace-missing": ("attack train --trace {dir}/missing.csv", None),
    "attack-trace-empty": ("attack train --trace {dir}/empty.csv", None),
    "attack-trace-row-not-a-number": ("attack train --trace {dir}/bad-row.csv", None),
    "attack-model-without-bounds": ("attack eval --trace {dir}/good.csv --model {dir}/no-bounds.json", None),
}


# the input files of BAD_INPUTS: config files, attack traces, an attack model
BAD_FILES = {"bad-seed.conf": "seed=abc\n", "bad-selection.conf": "selection = bogus\n",
             "bad-output.conf": "output = xml\n", "empty.csv": "", "bad-row.csv": "true_len,wal_size\n1,x\n",
             "good.csv": "true_len,wal_size\n1,128\n", "no-bounds.json": '{"sizes": [1]}\n'}


@pytest.mark.parametrize("argv, key", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_an_error_line_not_a_traceback(capsys, tmp_path, monkeypatch, argv, key):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    if key is not None:
        monkeypatch.setenv("EVENLOG_KEY", key)
    code, out, err = run_cli(capsys, *shlex.split(argv.format(dir=tmp_path)))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BAD_FILES)  # refused before any file is made


@pytest.mark.parametrize("argv", ["bench seq --ops 5", "bench conc --ops 5", "bench seq --ops 5 --scheme quorum",
                                  "demo quorum"])
def test_a_run_without_dir_removes_its_temporary_directory(capsys, tmp_path, monkeypatch, argv):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # so that TMPDIR is read again
    assert run_cli(capsys, *argv.split())[0] == 0
    assert list(tmp.iterdir()) == []
    kept = tmp_path / "kept"
    assert run_cli(capsys, *argv.split(), "--dir", str(kept))[0] == 0
    assert list(kept.iterdir()) != [] and list(tmp.iterdir()) == []


def test_demo_quorum_runs_clean(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "demo", "quorum", "--selection", "fnos",
                           "--dir", str(tmp_path))
    assert code == 0
    assert "byte-exact=True" in out
    assert "constant=True" in out


@pytest.mark.parametrize("same_key", [True, False], ids=["same-key", "another-key"])
def test_demo_quorum_refuses_a_used_directory(capsys, tmp_path, monkeypatch, same_key):
    # the demo's replicas live only in its process, so a second run on the
    # first run's metadata files could not recover them under any key
    if same_key:
        monkeypatch.setenv("EVENLOG_KEY", MASTER.hex())
    else:
        monkeypatch.delenv("EVENLOG_KEY", raising=False)  # each run draws its own key
    assert run_cli(capsys, "demo", "quorum", "--dir", str(tmp_path))[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, out, err = run_cli(capsys, "demo", "quorum", "--dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {tmp_path} is not empty") and "needs an empty directory" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_demo_quorum_creates_a_missing_directory(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "demo", "quorum", "--dir", str(tmp_path / "new"))
    assert code == 0 and "byte-exact=True" in out


def readme_cli_lines() -> list[str]:
    """The ``evenlog`` lines of README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("evenlog ")]


def test_readme_has_cli_lines():
    assert len(readme_cli_lines()) >= 10


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_parses(line):
    """Every README command parses with today's options; a stale flag exits 2."""
    build_parser().parse_args(shlex.split(line, comments=True)[1:])
