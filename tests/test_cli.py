import json

import pytest

from sdcl.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


@pytest.fixture
def base_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "seed": 3,
            "spec": {"preset": "cifar-analog", "r": 0.5},
            "simulate": {"samples": 120},
            "train": {
                "objective": "dcl",
                "eta": {"kind": "true_oracle"},
                "epochs": 2,
                "samples_per_epoch": 64,
                "batch_size": 16,
            },
            "eval": {"n_train": 300, "n_test": 150, "label_fraction": 1.0},
        },
    )


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2


def test_unknown_preset_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"spec": {"preset": "unknown"}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_train_field_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {"spec": {"preset": "cifar-analog"}, "train": {"warp_speed": 9}},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("keep_count", [0, 40])
def test_bad_keep_count_exits_2(tmp_path, capsys, keep_count):
    # 40 exceeds the 31 negatives of a 32-row batch; 0 keeps nothing
    cfg = write_config(
        tmp_path,
        {"spec": {"preset": "cifar-analog"},
         "train": {"batch_size": 32, "epochs": 1, "samples_per_epoch": 64,
                   "handling": {"kind": "resample_by_sim", "keep_count": keep_count}}},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "keep_count" in capsys.readouterr().err


def test_simulate_train_eval_round_trip(tmp_path, base_config):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", base_config, "--out", str(sim_dir)]) == 0
    lines = (sim_dir / "dataset.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=3" in lines[0]
    assert len(lines) == 2 + 120
    assert (sim_dir / "pll.csv").exists()
    assert (sim_dir / "manifest.json").exists()

    run_dir = tmp_path / "run"
    assert main(["train", "--config", base_config, "--out", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.bin").exists()
    trace = (run_dir / "trace.csv").read_text().splitlines()
    assert trace[1] == "step,loss,clamp_fraction,mean_eta,fallback_count"
    assert len(trace) == 2 + 8  # 2 epochs x 4 batches

    eval_dir = tmp_path / "ev"
    assert (
        main(
            [
                "eval",
                "--config",
                base_config,
                "--out",
                str(eval_dir),
                "--checkpoint",
                str(run_dir / "checkpoint.bin"),
            ]
        )
        == 0
    )
    report = json.loads((eval_dir / "report.json").read_text())
    assert "linear_probe_acc" in report
    assert report["config_hash"]
    assert (eval_dir / "projection.csv").exists()


def test_eval_missing_checkpoint_exits_2(tmp_path, base_config):
    assert main(["eval", "--config", base_config, "--out", str(tmp_path / "o")]) == 2
    assert (
        main(
            [
                "eval",
                "--config",
                base_config,
                "--out",
                str(tmp_path / "o"),
                "--checkpoint",
                str(tmp_path / "ghost.bin"),
            ]
        )
        == 2
    )


def test_verify_bounds_ok(tmp_path, base_config):
    out = tmp_path / "vb"
    assert main(["verify-bounds", "--config", base_config, "--configs", "4",
                 "--out", str(out)]) == 0
    rows = (out / "bounds.csv").read_text().splitlines()
    assert len(rows) == 2 + 4
    assert "holds" in rows[1]
    assert all(line.split(",")[-2] == "True" for line in rows[2:])


def test_sweep_cells(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "seed": 1,
            "spec": {"preset": "cifar-analog", "r": 0.5},
            "train": {"epochs": 1, "samples_per_epoch": 32, "batch_size": 16},
            "sweep": {"objectives": ["cl", "dcl"], "etas": [0.05, 0.1]},
        },
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 3  # cl + dcl x {0.05, 0.1}
    assert (out / "cell_000" / "manifest.json").exists()
    assert (out / "cell_002" / "checkpoint.bin").exists()


def test_repro_analog_bitwise_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "analog": {
                "r_values": [0.5],
                "seeds": [0],
                "epochs": 2,
                "samples_per_epoch": 128,
                "batch_size": 16,
                "n_probe": 1200,
                "n_test_per_class": 20,
                "label_fractions": [1.0],
            }
        },
    )
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    assert main(["repro", "cifar-analog", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["repro", "cifar-analog", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("analog_accuracy.csv", "analog_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_repro_tradeoff_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "tradeoff": {
                "seeds": [0],
                "epochs": 2,
                "samples_per_epoch": 128,
                "batch_size": 16,
                "lm_corpus_size": 200,
                "constant_etas": [0.05, 0.1],
                "retrieval_per_class": 5,
                "prompt_images_per_side": 10,
            }
        },
    )
    out = tmp_path / "t"
    assert main(["repro", "eta-tradeoff", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "tradeoff.csv").read_text().splitlines()
    assert len(lines) == 2 + 4  # cl + 2 constants + lm
    summary = json.loads((out / "tradeoff_summary.json").read_text())
    assert len(summary["constant_etas"]) == 2
