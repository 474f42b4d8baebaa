"""Command-line interface: outputs, exit codes, config file handling."""

import json

import pytest

from evenlog.cli import main

from .conftest import MASTER


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

    def test_conc_smoke(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "conc", "--dist", "uniform", "--ops", "100",
            "--workers", "4", "--dir", str(tmp_path), "--out", "json",
            "--flush-interval-ms", "20",
        )
        assert code == 0
        assert json.loads(out)["ops"] == 100

    def test_quorum_scheme(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bench", "seq", "--dist", "constant:20", "--ops", "10",
            "--scheme", "quorum", "--selection", "fnos", "--replicas", "18",
            "--max-write-size", "512", "--dir", str(tmp_path), "--out", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bytes_fake"] > 0


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


def test_demo_quorum_runs_clean(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "demo", "quorum", "--selection", "fnos",
                           "--dir", str(tmp_path))
    assert code == 0
    assert "byte-exact=True" in out
    assert "constant=True" in out
