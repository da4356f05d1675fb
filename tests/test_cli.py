"""End-to-end CLI runs in temp dirs: exit codes, artifacts, reproducibility."""

import json

import pytest

from basedlab.cli import main, parse_config


def write_config(tmp_path, extra=None):
    cfg = {
        "task": {"num_keys": 4, "num_values": 4, "seq_len": 12, "kv_pairs": 2, "batch_size": 8},
        "model": {"d_model": 16, "d_prime": 4, "layer_pattern": "CL", "window": 4},
        "train": {"steps": 2, "batch_size": 4, "lr": 0.002},
        "sweep": {"d_primes": [2, 4]},
    }
    if extra:
        for section, values in extra.items():
            cfg.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_statesize_defaults(capsys):
    assert main(["statesize"]) == 0
    out = capsys.readouterr().out
    assert "Based: 9945 elements (19890 bytes)" in out


def test_statesize_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["statesize", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["elements"] == 9945
    assert (out_dir / "resolved-config.json").exists()


def test_iocost_defaults(capsys):
    assert main(["iocost"]) == 0
    out = capsys.readouterr().out
    assert "featurize-phase savings: 8945664 elements" in out
    assert "decode per token: 10784 elements" in out


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task": {"foo": 1}}))
    assert main(["statesize", "--config", str(path)]) == 2
    assert "task.foo: unknown key" in capsys.readouterr().err


def test_unknown_section(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tasks": {}}))
    assert main(["statesize", "--config", str(path)]) == 2
    assert "tasks: unknown section" in capsys.readouterr().err


def test_malformed_json_names_position(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"task": {,}}')
    assert main(["statesize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["statesize", "--config", str(tmp_path / "nope.json")]) == 2


def test_type_errors_in_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"lr": "fast"}}))
    assert main(["statesize", "--config", str(path)]) == 2
    assert "train.lr" in capsys.readouterr().err
    path.write_text(json.dumps({"task": {"kv_pairs": [1, 2, 3]}}))
    assert main(["statesize", "--config", str(path)]) == 2
    path.write_text(json.dumps({"sweep": {"d_primes": []}}))
    assert main(["statesize", "--config", str(path)]) == 2


def test_mqar_gen_writes_batches(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task": {"batches": 2, "batch_size": 4}})
    out_dir = tmp_path / "data"
    assert main(["mqar-gen", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "batch_000.txt").exists()
    assert (out_dir / "batch_001.txt").exists()
    resolved = json.loads((out_dir / "resolved-config.json").read_text())
    assert resolved["task"]["batches"] == 2
    # the resolved config re-parses to itself
    reparse = parse_config(str(out_dir / "resolved-config.json"))
    assert reparse == resolved
    # consecutive batches differ (one generator drives the whole run)
    assert (out_dir / "batch_000.txt").read_text() != (out_dir / "batch_001.txt").read_text()


def test_mqar_gen_requires_out(tmp_path, capsys):
    assert main(["mqar-gen", "--config", write_config(tmp_path)]) == 2
    assert "--out" in capsys.readouterr().err


def test_overwrite_refusal_and_force(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "data"
    assert main(["mqar-gen", "--config", cfg, "--out", str(out_dir)]) == 0
    assert main(["mqar-gen", "--config", cfg, "--out", str(out_dir)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["mqar-gen", "--config", cfg, "--out", str(out_dir), "--force"]) == 0


def test_train_eval_cycle(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "trained 2 steps" in out
    metrics = (run / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,lr,loss,eval_accuracy"
    assert len(metrics) == 3
    report = json.loads((run / "report.json").read_text())
    assert report["steps"] == 2 and report["parameters"] > 0
    assert report["final_loss"] is not None

    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--config", cfg]) == 0
    assert "accuracy" in capsys.readouterr().out
    ev = tmp_path / "evalout"
    assert main(["eval", "--checkpoint", str(run / "model.ckpt"), "--config", cfg, "--out", str(ev)]) == 0
    assert "accuracy" in json.loads((ev / "report.json").read_text())


def test_eval_missing_checkpoint(tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt")]) == 2


def test_eval_corrupt_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train": {"steps": 0}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    raw = (tmp_path / "run" / "model.ckpt").read_bytes()
    for name, bad in (("truncated.ckpt", raw[:-3]), ("trailing.ckpt", raw + b"junk")):
        (tmp_path / name).write_bytes(bad)
        assert main(["eval", "--config", cfg, "--checkpoint", str(tmp_path / name)]) == 2
        assert "error:" in capsys.readouterr().err


def test_train_zero_steps_still_checkpoints(tmp_path):
    cfg = write_config(tmp_path, {"train": {"steps": 0}})
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    report = json.loads((run / "report.json").read_text())
    assert report["final_loss"] is None  # no step ever computed a loss


def test_train_rejects_small_vocab(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"vocab": 5}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "vocab" in capsys.readouterr().err


def test_train_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b)]) == 0
    for name in ("metrics.csv", "report.json", "model.ckpt", "resolved-config.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_override_flows_to_both_sections(tmp_path):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "data"
    assert main(["mqar-gen", "--config", cfg, "--out", str(out_dir), "--seed", "7"]) == 0
    resolved = json.loads((out_dir / "resolved-config.json").read_text())
    assert resolved["task"]["seed"] == 7
    assert resolved["model"]["seed"] == 7


def test_tradeoff_sweep_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "sweep"
    assert main(["tradeoff", "--config", cfg, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "d'=2" in out and "d'=4" in out
    assert "monotone" in out
    lines = (out_dir / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "arch,d_model,d_prime,window,heads,state_elems,state_bytes,mqar_acc,seed,status"
    assert len(lines) == 3
    assert json.loads((out_dir / "summary.json").read_text()).keys() == {"monotone"}


def test_bad_flag_values(capsys):
    assert main(["statesize", "--seed", "-1"]) == 2
    assert main(["tradeoff", "--jobs", "0"]) == 2


def test_bad_log_level(monkeypatch, capsys):
    monkeypatch.setenv("BASEDLAB_LOG", "verbose")
    assert main(["statesize"]) == 2
    assert "BASEDLAB_LOG" in capsys.readouterr().err


def test_help_and_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
