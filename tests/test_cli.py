import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sdcl
from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import textsim as ts
from sdcl.cli import Config, SpecSection, _resolve_spec, main
from sdcl.eta import ETA_MAX, ETA_MIN, EtaConfig, eta_for_batch, make_provider
from sdcl.rngstream import stream


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


@pytest.mark.parametrize(
    "handling",
    [{"kind": "resample_by_sim", "keep_count": 2.5},
     {"kind": "resample_by_sim", "keep_count": True},
     {"kind": "reweight_by_sim", "temperature": float("nan")},
     {"kind": "reweight_by_sim", "temperature": True},
     {"kind": "remove_by_sim", "temperature": 0}],
)
def test_bad_handling_values_exit_2(tmp_path, capsys, handling):
    # a fractional keep_count used to reach the partition (exit 1), a NaN
    # temperature a non-finite loss (exit 3); a bool is not a count or a scale
    cfg = write_config(
        tmp_path,
        {"spec": {"preset": "cifar-analog"},
         "train": {"batch_size": 32, "epochs": 1, "samples_per_epoch": 64,
                   "handling": handling}},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    field = "keep_count" if "keep_count" in handling else "temperature"
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("r", [2.0, 0.0])
def test_bad_r_exits_2(tmp_path, capsys, r):
    cfg = write_config(tmp_path, {"spec": {"preset": "cifar-analog", "r": r}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "r must be in (0, 1]" in capsys.readouterr().err


def test_bad_template_weights_exit_2(tmp_path, capsys):
    from sdcl import mixture as mix
    from sdcl import pipelines as pl

    inline = mix.spec_to_dict(pl.tradeoff_spec(pl.TradeoffConfig()))
    inline["template_weights"][3] = [0.0]
    cfg = write_config(tmp_path, {"spec": {"inline": inline}, "simulate": {"samples": 20}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "template weights" in capsys.readouterr().err


def test_m_positives_is_an_unknown_train_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"spec": {"preset": "cifar-analog"}, "train": {"m_positives": 1}}
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown train fields" in capsys.readouterr().err



@pytest.mark.parametrize(
    "train",
    [
        {"gamma": -1},
        {"epochs": 0},
        {"lm_corpus_size": 0, "eta": {"kind": "lm_log_linear"}},
        {"embed_dim": 0},
        {"learning_rate": float("nan")},
        {"eta": {"kind": "constant", "value": float("nan")}},
        {"eta": {"kind": "lm_log_linear", "a": float("nan")}},
    ],
    ids=["gamma", "epochs", "lm_corpus_size", "embed_dim", "learning_rate", "eta.value", "eta.a"],
)
def test_train_bad_field_exits_2(tmp_path, capsys, train):
    section = {"epochs": 1, "samples_per_epoch": 32, "batch_size": 16, "lm_corpus_size": 20}
    section.update(train)
    cfg = write_config(tmp_path, {"spec": {"preset": "eta-tradeoff"}, "train": section})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    ["optimizer", "cosine_schedule", "adam_beta1", "adam_beta2", "adam_eps", "weight_decay",
     "lm_alpha"],
)
def test_removed_train_fields_exit_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, {"spec": {"preset": "cifar-analog"}, "train": {name: 1}})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown train fields" in capsys.readouterr().err


def test_json_lists_become_tuples():
    from sdcl import pipelines as pl
    from sdcl.cli import _dataclass_from

    config = _dataclass_from(pl.BoundSweepConfig, {"n_grid": [4, 16]}, "bounds")
    assert config.n_grid == (4, 16)
    assert config == pl.BoundSweepConfig(n_grid=(4, 16))


NO_SCIPY_SCRIPT = """
import sys

import numpy as np

import sdcl.cli
from sdcl import bounds, encoder, evaluate, mixture, pipelines
from sdcl.rngstream import stream

rng = stream(0, 0)
x = rng.normal(size=(60, 3))
y = np.arange(60) % 3
evaluate.linear_probe(x, y, x, y, 0.5, rng)

pmfs = rng.random((3, 5)) + 0.1
spec = mixture.MixtureSpec(
    class_dist=mixture.ClassDistribution(np.array([0.5, 0.3, 0.2])),
    conditionals=mixture.DiscreteConditionals(points=rng.normal(size=(5, 2)),
                                              pmfs=pmfs / pmfs.sum(axis=1, keepdims=True)),
    templates=tuple(((c,),) for c in range(3)),
    template_weights=tuple((1.0,) for _ in range(3)),
    vocab_size=3,
)
params = encoder.init_params(2, 8, 4, stream(0, 1))
assert bounds.lemma_a1_check(spec, params, n=5).holds

config = pipelines.TradeoffConfig()
rows = [{"variant": v, "head_accuracy": 0.5 + 0.1 * i, "tail_avg_recall": 0.5 - 0.1 * i}
        for i, v in enumerate(pipelines.tradeoff_variants(config))]
pipelines.tradeoff_summary(rows, config)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_study_paths_load_no_scipy():
    # importing scipy.optimize alone costs ~45 MB of RSS and half a second;
    # the CLI, a probe fit, the ordering lemma and the tradeoff summary need none of it
    src = str(Path(sdcl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def point_token_spec():
    rng = stream(4, 0)
    pmfs = rng.random((3, 5)) * np.array([1, 0, 1, 1, 0])
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.array([0.5, 0.3, 0.2])),
        conditionals=mix.DiscreteConditionals(points=rng.standard_normal((5, 2)),
                                              pmfs=pmfs / pmfs.sum(axis=1, keepdims=True)),
        templates=tuple(((c,),) for c in range(3)),
        template_weights=tuple((1.0,) for _ in range(3)),
        vocab_size=6,
        point_tokens=((0, 1), (2,), (3, 4, 5), (1, 1, 2), (5, 0)),
    )


def data_rows(path):
    return list(csv.reader(path.read_text().splitlines()[2:]))  # past the hash and header


@pytest.mark.parametrize("spec_section", [
    {"preset": "eta-tradeoff"}, {"inline": mix.spec_to_dict(point_token_spec())},
], ids=["continuous", "point_tokens"])
def test_simulate_rows_are_the_batch_samplers(tmp_path, spec_section):
    eta = {"kind": "lm_log_linear", "a": 0.2, "k": 0.35}
    config = {"seed": 5, "spec": spec_section, "train": {"eta": eta},
              "simulate": {"samples": 300, "dump_etas": True}}
    assert main(["simulate", "--config", write_config(tmp_path, config),
                 "--out", str(tmp_path / "s")]) == 0

    spec = _resolve_spec(Config(spec=SpecSection(**spec_section)))
    rng = stream(5, 0)
    classes = mix.sample_class_array(spec.class_dist, 300, rng)
    feats, points = mix.sample_features_for_classes(spec, classes, rng)
    if spec.point_tokens is None:
        seqs = mix.sample_reports(spec, classes, rng)
        seqs = [ids[valid].tolist() for ids, valid in zip(*seqs)]
    else:
        seqs = [spec.point_tokens[i] for i in points]
    tokens = mix.pad_tokens(seqs)
    lm = ts.fit_ngram(*tokens, alpha=1.0, vocab_size=spec.vocab_size)
    etas = eta_for_batch(make_provider(EtaConfig(**eta), spec=spec, lm=lm), classes, tokens)
    assert data_rows(tmp_path / "s" / "dataset.csv") == [
        [str(i), str(c), " ".join(map(str, seq))] + [repr(float(x)) for x in row]
        for i, (c, seq, row) in enumerate(zip(classes, seqs, feats))
    ]
    assert data_rows(tmp_path / "s" / "etas.csv") == [
        [str(i), str(c), repr(float(e))] for i, (c, e) in enumerate(zip(classes, etas))
    ]


def body_digest(path):
    comment, body = path.read_bytes().split(b"\n", 1)
    assert comment.startswith(b"# config_hash=")
    return hashlib.sha256(body).hexdigest()


def test_simulate_bodies_are_pinned(tmp_path):
    # recorded when pll.csv had its own writer and etas.csv read a top-level
    # eta section; only the config-hash comment line may differ from those runs
    config = {"seed": 5, "spec": {"preset": "eta-tradeoff"},
              "train": {"eta": {"kind": "lm_log_linear", "a": 0.2, "k": 0.35}},
              "simulate": {"samples": 300, "dump_etas": True}}
    out = tmp_path / "s"
    assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert {name: body_digest(out / name) for name in ("dataset.csv", "pll.csv", "etas.csv")} == {
        "dataset.csv": "3251fb8b3448d68a5a0da26e9551cd3d60378c22c8829934c3ddd0920afbc625",
        "pll.csv": "8d345c9c938fc03bdac0398af031e1ed5315dd2203c9f696e48715fd5e2bb7eb",
        "etas.csv": "6dd16d4ec90a4a5c83df351c1b5d5805d110b6ce772cf58b128dbd21193ce700",
    }


def test_spec_preset_is_built_from_the_config_study_section(tmp_path):
    # the manifest hashes the analog and tradeoff sections, so the preset the
    # spec section names is built from them, with and without an r
    for r in (None, 0.5):
        config = {"spec": {"preset": "cifar-analog", "r": r}, "analog": {"separation": 5},
                  "simulate": {"samples": 10}}
        out = tmp_path / f"r{r}"
        assert main(["simulate", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 0
        means = json.loads((out / "spec.json").read_text())["gaussian"]["means"]
        assert np.allclose(np.linalg.norm(means, axis=1), 5.0)
    from sdcl import pipelines as pl

    tradeoff = pl.TradeoffConfig(spec_seed=7)
    got = _resolve_spec(Config(spec=SpecSection(preset="eta-tradeoff"), tradeoff=tradeoff))
    assert mix.spec_to_dict(got) == mix.spec_to_dict(pl.tradeoff_spec(tradeoff))


def test_subcommands_are_listed_alike_in_docstring_readme_and_parser():
    import argparse
    import re

    from sdcl import cli

    docstring = cli.__doc__.split("Subcommands:", 1)[1].split(".", 1)[0]
    documented = set(re.findall(r"``([\w-]+)``", docstring))
    readme = (Path(sdcl.__file__).resolve().parents[2] / "README.md").read_text()
    usage = readme.split("## Command-line usage", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    in_readme = {line.split()[1] for line in usage.splitlines() if line.startswith("sdcl ")}
    sub, = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == in_readme == set(sub.choices) == {
        "simulate", "train", "eval", "verify-bounds", "repro"}
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2


def test_readme_example_config_dumps_the_oracle_eta(tmp_path):
    # the README's example config, read from README.md, with a dump: etas.csv
    # holds each point's clipped class prior rho(c), not the default constant 0.1
    readme = (Path(sdcl.__file__).resolve().parents[2] / "README.md").read_text()
    example = readme.split("A config file looks like:", 1)[1].split("```json", 1)[1]
    config = json.loads(example.split("```", 1)[0])
    assert config["train"]["eta"] == {"kind": "true_oracle"}
    config["simulate"] = {"samples": 200, "dump_etas": True}
    out = tmp_path / "s"
    assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    rows = data_rows(out / "etas.csv")
    rho = _resolve_spec(Config(spec=SpecSection(preset="cifar-analog", r=0.1))).class_dist.probs
    classes = np.array([int(c) for _, c, _ in rows])
    etas = np.array([float(e) for _, _, e in rows])
    assert np.array_equal(etas, np.clip(rho[classes], ETA_MIN, ETA_MAX))
    assert len(set(etas.tolist())) > 1


def test_negative_simulate_samples_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": {"preset": "cifar-analog"}, "simulate": {"samples": -1}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "simulate.samples" in capsys.readouterr().err


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


def test_train_with_null_eta_trains_plain_contrastive(tmp_path, base_config):
    # "eta": null is plain contrastive, the eta = 0 reduction: no step has an
    # eta or a clamp, and the manifest records the null it hashed
    config = json.loads(Path(base_config).read_text())
    config["train"]["eta"] = None
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, config, name="cl.json"),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "trace.csv").read_text().splitlines()[1:]))
    assert len(rows) == 8
    assert all(float(row["mean_eta"]) == 0.0 == float(row["clamp_fraction"]) for row in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["eta"] is None


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


@pytest.mark.parametrize(
    "field, value",
    [("trials", 1), ("n_grid", [0]), ("m_grid", []), ("max_classes", 1), ("max_points", 2),
     ("constants", "foo"), ("trials", "200"), ("trials", 2.5), ("n_configs", 0),
     ("n_configs", -1), ("max_trials", 100), ("n_grid", [4.5]), ("seed", -1), ("seed", "x"),
     ("seed", 2.5), ("seed", True)],
)
def test_bad_bounds_fields_exit_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"bounds": {"n_configs": 1, field: value}})
    assert main(["verify-bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invalid bounds config" in capsys.readouterr().err


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
    for name in ("analog_accuracy.csv", "analog_summary.csv", "analog_probe.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, *rows = (out1 / "analog_probe.csv").read_text().splitlines()[1:]
    assert header == "r,variant,seed,label_fraction,converged,evaluations"
    assert len(rows) == 4  # one per variant at the one label fraction
    for row in rows:
        *_, converged, evaluations = row.split(",")
        assert converged == "True" and int(evaluations) > 0


def test_repro_analog_csv_bodies_are_pinned(tmp_path):
    # criterion 11's config; the rows below the config-hash comment were
    # recorded once, so any change to a trained encoder or a probe shows here.
    # Re-recorded for the numpy L-BFGS: one test point of (dcl_eta_rare, seed
    # 0, 100% labels) with a top-two logit margin of 3e-4 changed class
    cfg =write_config(tmp_path, {"analog": {
        "r_values": [0.1], "seeds": [0, 1], "epochs": 4, "samples_per_epoch": 256,
        "batch_size": 32, "n_probe": 4000, "n_test_per_class": 50,
        "label_fractions": [0.05, 1.0],
    }})
    out = tmp_path / "a"
    assert main(["repro", "cifar-analog", "--config", cfg, "--out", str(out)]) == 0
    digests = {}
    for name in ("analog_accuracy.csv", "analog_summary.csv"):
        comment, body = (out / name).read_bytes().split(b"\n", 1)
        assert comment.startswith(b"# config_hash=")
        digests[name] = hashlib.sha256(body).hexdigest()
    assert digests == {
        "analog_accuracy.csv": "ea75738e4f701c8d9f42c8f709f81bc447beb849bdd02215193493f923466a41",
        "analog_summary.csv": "e7ddf832b42b609213ab560ffe34a875e79d70abb1b291eb5d7149086bd4fad5",
    }

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


def _trained_checkpoint(tmp_path, base_config):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", base_config, "--out", str(run_dir)]) == 0
    return run_dir / "checkpoint.bin"


def _eval(tmp_path, base_config, checkpoint):
    return main(["eval", "--config", base_config, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(checkpoint)])


@pytest.mark.parametrize("damage", ["truncate", "append"])
def test_eval_wrong_size_checkpoint_exits_2(tmp_path, capsys, base_config, damage):
    checkpoint = _trained_checkpoint(tmp_path, base_config)
    data = checkpoint.read_bytes()
    checkpoint.write_bytes(data[:1000] if damage == "truncate" else data + data)
    assert _eval(tmp_path, base_config, checkpoint) == 2
    assert "bytes" in capsys.readouterr().err


def test_eval_flipped_byte_checkpoint_exits_2(tmp_path, capsys, base_config):
    checkpoint = _trained_checkpoint(tmp_path, base_config)
    data = bytearray(checkpoint.read_bytes())
    data[len(data) // 2] ^= 0xFF  # same size, one byte flipped
    checkpoint.write_bytes(bytes(data))
    assert _eval(tmp_path, base_config, checkpoint) == 2
    assert "sha256" in capsys.readouterr().err


@pytest.mark.parametrize("damage,needle", [
    ("drop_gamma", "gamma"),  # written before gamma was listed
    ("unknown_array", "bias3"),
    ("string_shape", "b1"),
    ("big_endian", "dtype"),
    ("shapes_list", "shapes must be a JSON object"),
])
def test_eval_bad_sidecar_exits_2(tmp_path, capsys, base_config, damage, needle):
    checkpoint = _trained_checkpoint(tmp_path, base_config)
    sidecar_path = tmp_path / "run" / "checkpoint.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["shapes"]["gamma"] == []
    if damage == "drop_gamma":
        del sidecar["shapes"]["gamma"]
    elif damage == "unknown_array":
        sidecar["shapes"]["bias3"] = [2]
    elif damage == "string_shape":
        sidecar["shapes"]["b1"] = "64"
    elif damage == "shapes_list":
        sidecar["shapes"] = list(sidecar["shapes"])
    else:
        sidecar["dtype"] = ">f8"
    sidecar_path.write_text(json.dumps(sidecar))
    assert _eval(tmp_path, base_config, checkpoint) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("damage,needle", [
    ("dim", "(dim 3, vocab 24)"),
    ("vocab", "(dim 16, vocab 40)"),
    ("label_fraction", "label_fraction"),
])
def test_eval_unusable_input_exits_2(tmp_path, capsys, damage, needle):
    from sdcl import mixture as mix
    from sdcl import pipelines as pl

    train_cfg = write_config(tmp_path, {
        "seed": 1,
        "spec": {"preset": "eta-tradeoff"},
        "train": {"mode": "cross_modal", "eta": None, "epochs": 1,
                  "samples_per_epoch": 32, "batch_size": 16},
    }, name="train.json")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", train_cfg, "--out", str(run_dir)]) == 0
    inline = mix.spec_to_dict(pl.tradeoff_spec(pl.TradeoffConfig()))
    section = {"n_train": 100, "n_test": 50}
    if damage == "dim":
        inline["gaussian"]["means"] = [row[:3] for row in inline["gaussian"]["means"]]
    elif damage == "vocab":
        inline["vocab_size"] = 40
    else:
        section["label_fraction"] = 1.5
    eval_cfg = write_config(tmp_path, {"spec": {"inline": inline}, "eval": section},
                            name="eval.json")
    assert main(["eval", "--config", eval_cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(run_dir / "checkpoint.bin")]) == 2
    assert needle in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One type rule for every config field
# ---------------------------------------------------------------------------

TRADEOFF = {"preset": "eta-tradeoff"}
LM_ETA = {"eta": {"kind": "lm_log_linear"}}
BAD_VALUES = [
    ("simulate", "samples", {"spec": TRADEOFF, "simulate": {"samples": "ten"}}),
    ("simulate", "samples", {"spec": TRADEOFF, "simulate": {"samples": 2.5}}),
    ("simulate", "seed", {"seed": 2.7, "spec": TRADEOFF}),
    ("simulate", "seed", {"seed": "3", "spec": TRADEOFF}),
    ("simulate", "r", {"spec": {"preset": "cifar-analog", "r": "0.5"}}),
    # the spec section takes r only with cifar-analog, and one of preset and inline
    ("simulate", "spec config: r", {"spec": {"preset": "eta-tradeoff", "r": 5.0}}),
    ("simulate", "spec config: r", {"spec": {"preset": "eta-tradeoff", "r": 0.5}}),
    ("train", "spec config: r", {"spec": {"r": 0.5}}),
    ("train", "preset or inline", {"spec": {"preset": "cifar-analog", "inline": {}}}),
    ("simulate", "needs a spec", {"simulate": {"samples": 5}}),
    ("verify-bounds", "unknown preset 'cifar'", {"spec": {"preset": "cifar"}}),
    ("repro eta-tradeoff", "unknown preset 'tradeoff'", {"spec": {"preset": "tradeoff"}}),
    ("train", "batch_size", {"spec": TRADEOFF, "train": {"batch_size": 12.5}}),
    ("train", "epochs", {"spec": TRADEOFF, "train": {"epochs": 1.5}}),
    ("train", "gamma_trainable", {"spec": TRADEOFF, "train": {"gamma_trainable": "false"}}),
    ("train", "value", {"spec": TRADEOFF, "train": {"eta": {"value": "0.1"}}}),
    ("train", "warp", {"spec": TRADEOFF, "warp": {}}),
    ("repro cifar-analog", "seeds", {"analog": {"seeds": 3}}),
    ("repro cifar-analog", "epochs", {"analog": {"epochs": "2"}}),
    ("repro cifar-analog", "label_fractions", {"analog": {"label_fractions": [0]}}),
    # every study grid is non-empty, so no study trains cells it cannot report
    ("repro cifar-analog", "seeds", {"analog": {"seeds": []}}),
    ("repro cifar-analog", "r_values", {"analog": {"r_values": []}}),
    ("repro cifar-analog", "label_fractions", {"analog": {"label_fractions": []}}),
    ("repro eta-tradeoff", "seeds", {"tradeoff": {"seeds": []}}),
    ("repro eta-tradeoff", "constant_etas", {"tradeoff": {"constant_etas": []}}),
    ("repro eta-tradeoff", "retrieval_ks", {"tradeoff": {"retrieval_ks": []}}),
    ("repro eta-tradeoff", "retrieval_ks", {"tradeoff": {"retrieval_ks": [10, 0]}}),
    ("eval", "retrieval_ks", {"spec": TRADEOFF, "eval": {"retrieval_ks": []}}),
    ("eval", "retrieval_ks", {"spec": TRADEOFF, "eval": {"retrieval_ks": [0]}}),
    # a constant eta outside [ETA_MIN, ETA_MAX] would train clipped
    ("repro eta-tradeoff", "constant_etas", {"tradeoff": {"constant_etas": [0.05, 1.5]}}),
    ("repro eta-tradeoff", "constant_etas", {"tradeoff": {"constant_etas": [0.0]}}),
    # the probe sizes: an empty pool or test set, and a 1% budget of 3 labels
    ("repro cifar-analog", "n_probe", {"analog": {"n_probe": 0}}),
    ("repro cifar-analog", "n_test_per_class", {"analog": {"n_test_per_class": 0}}),
    ("repro cifar-analog", "fewer than the 10 classes", {"analog": {"n_probe": 300}}),
    ("repro eta-tradeoff", "retrieval_per_class", {"tradeoff": {"retrieval_per_class": 0}}),
    ("repro eta-tradeoff", "prompt_images_per_side",
     {"tradeoff": {"prompt_images_per_side": 0}}),
    ("repro eta-tradeoff", "epochs", {"tradeoff": {"epochs": 0}}),
    ("repro eta-tradeoff", "calibration_range", {"tradeoff": {"calibration_range": [0.01]}}),
    # a repeated constant would train its cells twice and give the summary a tie
    ("repro eta-tradeoff", "constant_etas", {"tradeoff": {"constant_etas": [0.05, 0.05]}}),
    # the rare and common constants read one subsampled class and one left out
    ("repro cifar-analog", "subsampled", {"analog": {"subsampled": []}}),
    ("repro cifar-analog", "subsampled", {"analog": {"subsampled": [12]}}),
    ("repro cifar-analog", "subsampled", {"analog": {"subsampled": list(range(10))}}),
    ("repro cifar-analog", "dim", {"analog": {"dim": 0}}),
    ("repro eta-tradeoff", "dim", {"tradeoff": {"dim": 0}}),
    # a study field the mixture would reject is named with its section
    ("repro cifar-analog", "analog config: sigma", {"analog": {"sigma": -1.0}}),
    ("repro eta-tradeoff", "tradeoff config: head_sigma", {"tradeoff": {"head_sigma": -0.5}}),
    ("repro eta-tradeoff", "tradeoff config: tail_sigma", {"tradeoff": {"tail_sigma": -1.0}}),
    ("repro eta-tradeoff", "tradeoff config: perturb_prob", {"tradeoff": {"perturb_prob": 2.0}}),
    ("repro eta-tradeoff", "tradeoff config: perturb_prob",
     {"tradeoff": {"perturb_prob": -0.1}}),
    ("repro eta-tradeoff", "tradeoff config: vocab_size", {"tradeoff": {"vocab_size": 20}}),
    ("repro eta-tradeoff", "tradeoff config: vocab_size", {"tradeoff": {"vocab_size": 21}}),
    # eta_LM's dump fits its bigram model to the reports the command samples
    ("simulate", "simulate.samples", {"spec": TRADEOFF, "train": LM_ETA,
                                      "simulate": {"samples": 0, "dump_etas": True}}),
    # plain contrastive has no eta to dump
    ("simulate", "simulate.dump_etas needs train.eta, which is null",
     {"spec": TRADEOFF, "train": {"eta": None}, "simulate": {"dump_etas": True}}),
    # one field per training choice: the objective is whether train.eta is
    # null, the pair kind is train.mode, and eta's clip range is fixed
    ("train", "unknown train fields: ['objective']", {"spec": TRADEOFF,
                                                      "train": {"objective": "cl"}}),
    ("train", "unknown train fields: ['positive_mode']",
     {"spec": TRADEOFF, "train": {"positive_mode": "view"}}),
    ("train", "unknown train.eta fields: ['eta_max']",
     {"spec": TRADEOFF, "train": {"eta": {"eta_max": 0.5}}}),
    ("train", "unknown mode 'unimodal'", {"spec": TRADEOFF, "train": {"mode": "unimodal"}}),
    ("simulate", "unknown simulate fields: ['with_tokens']",
     {"spec": TRADEOFF, "simulate": {"with_tokens": False}}),
]


@pytest.mark.parametrize("command, field, config", BAD_VALUES,
                         ids=[json.dumps(config) for _, _, config in BAD_VALUES])
def test_bad_config_values_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command, field,
                                                  config):
    from sdcl import train as tr

    def no_training(*args, **kwargs):
        raise AssertionError("a bad config reached training")

    monkeypatch.setattr(tr, "train", no_training)
    out = tmp_path / "o"
    assert main([*command.split(), "--config", write_config(tmp_path, config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not [p for p in out.rglob("*") if p.suffix in (".csv", ".bin")]


@pytest.mark.parametrize("quantiles", [[0.55, 0.6], [0.6, 0.7], [0.8, 0.9]])
def test_degenerate_lm_calibration_exits_2(tmp_path, capsys, monkeypatch, quantiles):
    # at these quantiles the tiny LM gives equal PLLs, so (a, k) has no slope;
    # every seed calibrates before any cell trains
    from sdcl import train as tr

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the calibration failed")

    monkeypatch.setattr(tr, "train", no_training)
    cfg = write_config(tmp_path, {"tradeoff": {
        "seeds": [0], "epochs": 1, "samples_per_epoch": 64, "batch_size": 16,
        "lm_corpus_size": 200, "constant_etas": [0.05], "retrieval_per_class": 5,
        "prompt_images_per_side": 10, "calibration_quantiles": quantiles}})
    out = tmp_path / "t"
    assert main(["repro", "eta-tradeoff", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: tradeoff.calibration_quantiles" in err and "degenerate" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("config, message", [
    ({"train": {"eta": {"value": "0.1"}}},
     "invalid train.eta config: value must be float, got '0.1'"),
    ({"eta": {"value": "0.1"}}, "unknown top-level fields: ['eta']"),  # η is train.eta
    ({"train": {"eta": {"bogus": 1}}}, "unknown train.eta fields: ['bogus']"),
    ({"eta": {"bogus": 1}}, "unknown top-level fields: ['eta']"),
    ({"train": {"eta": {"length_normalize": True}}},
     "unknown train.eta fields: ['length_normalize']"),
    ({"seed": "x"}, "invalid top-level config: seed must be int, got 'x'"),
    ({"sweep": {"etas": [0.05]}}, "unknown top-level fields: ['sweep']"),  # sdcl has no sweep
    ({"train": {"objective": "dcl"}}, "unknown train fields: ['objective']"),
    ({"train": {"positive_mode": "redraw"}}, "unknown train fields: ['positive_mode']"),
    ({"train": {"eta": {"eta_min": 1e-3, "eta_max": 0.5}}},
     "unknown train.eta fields: ['eta_max', 'eta_min']"),
    ({"train": {"mode": "unimodal"}}, "invalid train config: unknown mode 'unimodal'"),
    ({"simulate": {"with_tokens": True}}, "unknown simulate fields: ['with_tokens']"),
], ids=["train.eta", "eta", "train.eta-unknown", "eta-unknown", "train.eta-length_normalize",
        "top-level", "sweep", "train.objective", "train.positive_mode", "train.eta.eta_max",
        "train.mode", "simulate.with_tokens"])
def test_config_errors_name_the_section_path(tmp_path, capsys, config, message):
    cfg = write_config(tmp_path, config)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_eval_n_train_must_be_an_integer(tmp_path, capsys, base_config):
    checkpoint = _trained_checkpoint(tmp_path, base_config)
    config = json.loads(Path(base_config).read_text())
    config["eval"]["n_train"] = "x"
    cfg = write_config(tmp_path, config, name="eval.json")
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(checkpoint)]) == 2
    assert "n_train" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("section, needle", [
    ({"n_test": 1}, "n_test >= 2"),
    ({"n_train": 1}, "need at least 2 classes"),
    ({"n_train": 200, "label_fraction": 0.01}, "missed a class"),
], ids=["n_test", "n_train", "label_fraction"])
def test_eval_too_few_samples_exits_2(tmp_path, capsys, base_config, section, needle):
    checkpoint = _trained_checkpoint(tmp_path, base_config)
    config = json.loads(Path(base_config).read_text())
    config["eval"].update(section)
    cfg = write_config(tmp_path, config, name="eval.json")
    out = tmp_path / "ev"
    assert main(["eval", "--config", cfg, "--out", str(out), "--checkpoint", str(checkpoint)]) == 2
    assert needle in capsys.readouterr().err
    assert not list(out.glob("*.json"))


@pytest.mark.parametrize("inline_change", [
    {"vocab_size": 24.9}, {"report_perturb_prob": "0.05"}, {"templates": 5},
    {"template_weights": [["1"]] * 10},
], ids=["vocab_size", "report_perturb_prob", "templates", "template_weights"])
def test_inline_spec_values_are_not_coerced(tmp_path, capsys, inline_change):
    from sdcl import pipelines as pl

    inline = dict(mix.spec_to_dict(pl.tradeoff_spec(pl.TradeoffConfig())), **inline_change)
    cfg = write_config(tmp_path, {"spec": {"inline": inline}, "simulate": {"samples": 5}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(inline_change)) in err


def test_trained_gamma_checkpoint_evaluates(tmp_path, base_config):
    config = json.loads(Path(base_config).read_text())
    config["train"]["gamma_trainable"] = True
    cfg = write_config(tmp_path, config, name="gamma.json")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run_dir)]) == 0
    checkpoint = run_dir / "checkpoint.bin"
    params = enc.load_checkpoint(checkpoint)
    assert float(params.gamma) != math.sqrt(2.0)  # the default radius moved in training
    # gamma is the file's last float64, and saving the loaded params rewrites the file
    assert params.gamma.tobytes() == checkpoint.read_bytes()[-8:]
    enc.save_checkpoint(params, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == checkpoint.read_bytes()
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "ev"),
                 "--checkpoint", str(run_dir / "checkpoint.bin")]) == 0


def _bounds_manifest(tmp_path, config, name):
    cfg = write_config(tmp_path, config, name=f"{name}.json")
    assert main(["verify-bounds", "--config", cfg, "--configs", "1",
                 "--out", str(tmp_path / name)]) == 0
    return json.loads((tmp_path / name / "manifest.json").read_text())


def test_config_hash_covers_the_resolved_config(tmp_path):
    from dataclasses import asdict

    from sdcl.cli import Config

    empty = _bounds_manifest(tmp_path, {}, "empty")
    spelled = _bounds_manifest(tmp_path, asdict(Config()), "spelled")  # inf as Infinity
    assert empty["config_hash"] == spelled["config_hash"]
    assert empty["config"]["bounds"]["n_configs"] == 1  # the flag is part of what is hashed
    assert empty["config"]["train"]["handling"]["threshold"] is None  # strict JSON
    as_int = _bounds_manifest(tmp_path, {"train": {"gamma": 4}}, "int")
    as_float = _bounds_manifest(tmp_path, {"train": {"gamma": 4.0}}, "float")
    other = _bounds_manifest(tmp_path, {"train": {"gamma": 4.5}}, "other")
    assert as_int["config_hash"] == as_float["config_hash"] != other["config_hash"]
    assert as_int["config_hash"] != empty["config_hash"]


def test_manifest_json_is_strict(tmp_path):
    manifest = _bounds_manifest(
        tmp_path, {"train": {"handling": {"threshold": float("inf")}}}, "m"
    )

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    json.loads((tmp_path / "m" / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["config_hash"]


def test_repro_has_no_seed_flag(tmp_path):
    # a study takes its seeds from its own section, so a --seed it ignored
    # would only have changed the config hash
    cfg = write_config(tmp_path, {"analog": {
        "r_values": [0.5], "seeds": [0], "epochs": 1, "samples_per_epoch": 32, "batch_size": 16,
        "n_probe": 200, "n_test_per_class": 10, "label_fractions": [1.0],
    }})
    with pytest.raises(SystemExit) as exc:
        main(["repro", "cifar-analog", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2


def test_every_config_field_is_checked_by_the_rule():
    import dataclasses
    import typing

    from sdcl import fields
    from sdcl import pipelines as pl
    from sdcl import train as tr
    from sdcl.cli import Config
    from sdcl.objectives import NegativeHandling

    classes, todo = set(), [Config]  # every section reachable from a config file
    while todo:
        cls = todo.pop()
        classes.add(cls)
        for hint in fields.hints(cls).values():
            todo += [h for h in (hint, *typing.get_args(hint))
                     if dataclasses.is_dataclass(h) and h not in classes]
    assert {tr.TrainConfig, EtaConfig, NegativeHandling, pl.AnalogConfig, pl.TradeoffConfig,
            pl.BoundSweepConfig} <= classes
    for cls in classes:
        for name, hint in fields.hints(cls).items():
            assert hint is not tuple, f"{cls.__name__}.{name}"
            with pytest.raises(ValueError, match=name):
                cls(**{name: object()})  # so __post_init__ runs the rule on this field

    @dataclasses.dataclass(frozen=True)
    class Bare:
        grid: tuple = ()

        def __post_init__(self):
            fields.check_fields(self)

    with pytest.raises(TypeError, match="grid"):
        Bare()
