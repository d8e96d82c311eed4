"""Experiment runner.

Subcommands: ``simulate``, ``train``, ``eval``, ``verify-bounds``, ``sweep``,
and ``repro`` (full study pipelines).  Each run is described by a JSON config
whose SHA-256 hash, along with the seed, is embedded in every output file.
Command-line flags override config fields; the SDCL_OUT_ROOT environment
variable relocates the output root only.

Exit codes: 0 ok, 2 config error, 3 runtime numeric failure, 4 bound check
failed (verify-bounds only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import encoder as enc
from . import evaluate as ev
from . import mixture as mix
from . import pipelines as pl
from . import textsim as ts
from . import train as tr
from .eta import EtaConfig, eta_for_batch, make_provider
from .manifest import RunManifest, to_json, write_csv, write_json
from .objectives import NegativeHandling
from .rngstream import stream


class ConfigError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {p}: {exc}") from exc


def _out_dir(config: dict, args) -> Path:
    root = os.environ.get("SDCL_OUT_ROOT", ".")
    out = args.out or config.get("out", "runs/latest")
    path = Path(root) / out
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dataclass_from(cls, payload: dict, context: str):
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")
    # JSON has no tuples: a list given for a tuple-valued field becomes one
    payload = {
        name: tuple(value) if isinstance(value, list) and isinstance(defaults[name], tuple)
        else value
        for name, value in payload.items()
    }
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context} config: {exc}") from exc


def _resolve_spec(config: dict) -> mix.MixtureSpec:
    spec_cfg = config.get("spec")
    if spec_cfg is None:
        raise ConfigError("config needs a 'spec' section")
    if "inline" in spec_cfg:
        try:
            return mix.spec_from_dict(spec_cfg["inline"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid inline spec: {exc}") from exc
    preset = spec_cfg.get("preset")
    if preset == "cifar-analog":
        base = pl.analog_spec(pl.AnalogConfig())
        r = spec_cfg.get("r")
        if r is None:
            return base
        try:
            return mix.subsample_classes(base, list(pl.AnalogConfig().subsampled), float(r))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid spec.r: {exc}") from exc
    if preset == "eta-tradeoff":
        return pl.tradeoff_spec(pl.TradeoffConfig())
    raise ConfigError(f"unknown spec preset {preset!r}; use cifar-analog, eta-tradeoff, or inline")


def _resolve_train_config(config: dict, seed: int) -> tr.TrainConfig:
    section = dict(config.get("train", {}))
    eta_cfg = _dataclass_from(EtaConfig, section.pop("eta", {}), "eta")
    handling = _dataclass_from(NegativeHandling, section.pop("handling", {}), "handling")
    section.setdefault("seed", seed)
    section["eta"] = eta_cfg
    section["handling"] = handling
    return _dataclass_from(tr.TrainConfig, section, "train")


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    spec = _resolve_spec(config)
    out = _out_dir(config, args)
    manifest = RunManifest(config=config, seed=seed)
    section = config.get("simulate", {})
    n = int(section.get("samples", 1000))
    if n < 0:
        raise ConfigError(f"simulate.samples must be >= 0, got {n}")
    rng = stream(seed, 0)
    classes = mix.sample_class_array(spec.class_dist, n, rng)
    features, points = mix.sample_features_for_classes(spec, classes, rng)
    tokens, sentences = None, []
    if n and section.get("with_tokens", True):
        if spec.point_tokens is not None:
            tokens = mix.pad_tokens([spec.point_tokens[i] for i in points])
        else:
            tokens = mix.sample_reports(spec, classes, rng)
        sentences = [ids[valid].tolist() for ids, valid in zip(*tokens)]
    texts = [" ".join(map(str, seq)) for seq in sentences] or [""] * n
    rows = [[i, int(classes[i]), texts[i]] + list(features[i]) for i in range(n)]
    header = ["index", "latent_class", "tokens"] + [f"x{j}" for j in range(spec.dim)]
    write_csv(out / "dataset.csv", header, rows, manifest)
    mix.save_spec(spec, out / "spec.json")
    manifest.record(out / "spec.json")
    lm = None
    if tokens is not None:
        lm = ts.fit_ngram(*tokens, alpha=1.0, vocab_size=spec.vocab_size)
        ts.write_pll_csv(
            out / "pll.csv", ts.pll_table(lm, sentences),
            header_comment=f"config_hash={manifest.hash} seed={seed}",
        )
        manifest.record(out / "pll.csv")
    if section.get("dump_etas"):
        eta_cfg = _dataclass_from(EtaConfig, config.get("eta", {}), "eta")
        if eta_cfg.kind == "lm_log_linear" and lm is None:
            raise ConfigError("eta dump with lm_log_linear needs token templates in the spec")
        provider = make_provider(eta_cfg, spec=spec, lm=lm)
        etas = eta_for_batch(provider, classes=classes, tokens=tokens)
        eta_rows = [[i, int(classes[i]), etas[i]] for i in range(n)]
        write_csv(out / "etas.csv", ["index", "latent_class", "eta"], eta_rows, manifest)
    manifest.save(out)
    print(f"wrote {n} samples to {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    spec = _resolve_spec(config)
    train_config = _resolve_train_config(config, seed)
    out = _out_dir(config, args)
    manifest = RunManifest(config=config, seed=train_config.seed)
    result = tr.train(spec, train_config)
    enc.save_checkpoint(
        result.params, out / "checkpoint.bin",
        meta={"seed": train_config.seed, "step": len(result.trace),
              "config_hash": manifest.hash},
    )
    manifest.record(out / "checkpoint.bin")
    manifest.record(out / "checkpoint.bin.json")
    write_csv(out / "trace.csv", list(tr.TRACE_DTYPE.names), result.trace.tolist(), manifest)
    manifest.save(out)
    print(f"trained {len(result.trace)} steps; final loss {result.trace[-1].loss:.4f}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    spec = _resolve_spec(config)
    out = _out_dir(config, args)
    manifest = RunManifest(config=config, seed=seed)
    checkpoint = args.checkpoint or config.get("eval", {}).get("checkpoint")
    if checkpoint is None:
        raise ConfigError("eval needs a checkpoint (flag --checkpoint or eval.checkpoint)")
    if not Path(checkpoint).exists():
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    try:
        params = enc.load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable checkpoint {checkpoint}: {exc}") from exc
    section = config.get("eval", {})
    n_train = int(section.get("n_train", 4000))
    n_test = int(section.get("n_test", 2000))
    fraction = float(section.get("label_fraction", 1.0))
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"eval.label_fraction must lie in (0, 1], got {fraction}")
    vocab = None if params.token_embed is None else params.token_embed.shape[0]
    if params.input_dim != spec.dim or vocab not in (None, spec.vocab_size):
        raise ConfigError(f"checkpoint (input dim {params.input_dim}, vocab {vocab}) does not fit "
                          f"the spec (dim {spec.dim}, vocab {spec.vocab_size})")
    ks = tuple(section.get("retrieval_ks", (10, 50, 100)))

    rng = stream(seed, 2, 0)
    train_classes = mix.sample_class_array(spec.class_dist, n_train, rng)
    train_x, _ = mix.sample_features_for_classes(spec, train_classes, rng)
    test_classes = mix.sample_class_array(spec.class_dist, n_test, rng)
    test_x, _ = mix.sample_features_for_classes(spec, test_classes, rng)
    train_emb, _ = enc.forward_features(params, train_x)
    test_emb, _ = enc.forward_features(params, test_x)

    report = ev.EvalReport(label_fraction=fraction)
    report.linear_probe_acc = ev.linear_probe(
        train_emb, train_classes, test_emb, test_classes, fraction, stream(seed, 2, 1)
    )
    report.mean_classifier_acc = ev.mean_classifier_accuracy(
        train_emb, train_classes, test_emb, test_classes
    )
    if params.token_embed is not None:
        texts = mix.sample_reports(spec, test_classes, rng)
        txt_emb, _ = enc.forward_tokens(params, *texts)
        report.retrieval = ev.retrieval_metrics(txt_emb, test_emb, ks=ks)
        rank_rows = [
            [i, int(report.retrieval.ranks["query_to_gallery"][i]),
             int(report.retrieval.ranks["gallery_to_query"][i])]
            for i in range(n_test)
        ]
        write_csv(out / "ranks.csv", ["query", "rank_q2g", "rank_g2q"], rank_rows, manifest)
    projection = ev.project_2d(test_emb)
    proj_rows = [
        [i, int(test_classes[i]), projection[i, 0], projection[i, 1]]
        for i in range(n_test)
    ]
    write_csv(out / "projection.csv", ["index", "latent_class", "pc1", "pc2"], proj_rows, manifest)
    write_json(out / "report.json", report.to_dict(), manifest)
    manifest.save(out)
    print(to_json(report.to_dict()))
    return 0


def cmd_verify_bounds(args) -> int:
    config = _load_config(args.config)
    section = dict(config.get("bounds", {}))
    if args.configs is not None:
        section["n_configs"] = args.configs
    if args.seed is not None:
        section["seed"] = args.seed
    sweep_config = _dataclass_from(pl.BoundSweepConfig, section, "bounds")
    out = _out_dir(config, args)
    manifest = RunManifest(config=config, seed=sweep_config.seed)
    reports = pl.bound_sweep(sweep_config)
    header = [
        "config_index", "eta_variant", "classes", "points", "n", "m", "trials",
        "lhs", "lhs_stderr", "lhs_unclamped", "term_n", "term_m", "term_eta",
        "rhs_total", "holds", "constants",
    ]
    rows = [[row[key] for key in header] for row in reports]
    write_csv(out / "bounds.csv", header, rows, manifest)
    manifest.save(out)
    n_hold = sum(1 for r in reports if r["holds"])
    print(f"bound held in {n_hold}/{len(reports)} configurations")
    return 0 if n_hold == len(reports) else 4


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    seed = int(args.seed if args.seed is not None else config.get("seed", 0))
    section = config.get("sweep", {})
    spec = _resolve_spec(config)
    out = _out_dir(config, args)
    manifest = RunManifest(config=config, seed=seed)
    objectives = section.get("objectives", ["cl", "dcl"])
    etas = section.get("etas", [0.05, 0.1])
    thresholds = section.get("remove_thresholds", [])
    base_train = dict(config.get("train", {}))
    rows = []
    cell = 0
    for objective in objectives:
        eta_values = etas if objective == "dcl" else [None]
        for eta in eta_values:
            for threshold in thresholds or [None]:
                cell_cfg = dict(base_train)
                cell_cfg["objective"] = objective
                cell_cfg["seed"] = seed
                if eta is not None:
                    cell_cfg["eta"] = {"kind": "constant", "value": float(eta)}
                if threshold is not None:
                    cell_cfg["handling"] = {
                        "kind": "remove_by_sim", "threshold": float(threshold)
                    }
                cell_dir = out / f"cell_{cell:03d}"
                cell_dir.mkdir(parents=True, exist_ok=True)
                cell_manifest = RunManifest(
                    config={"train": cell_cfg, "spec": config.get("spec")}, seed=seed
                )
                train_config = _resolve_train_config({"train": cell_cfg}, seed)
                result = tr.train(spec, train_config)
                final_loss = result.trace[-1].loss
                enc.save_checkpoint(
                    result.params, cell_dir / "checkpoint.bin",
                    meta={"seed": seed, "config_hash": cell_manifest.hash},
                )
                cell_manifest.record(cell_dir / "checkpoint.bin")
                cell_manifest.save(cell_dir)
                rows.append([cell, objective, "" if eta is None else eta,
                             "" if threshold is None else threshold, final_loss])
                cell += 1
    write_csv(out / "sweep.csv", ["cell", "objective", "eta", "threshold", "final_loss"],
              rows, manifest)
    manifest.save(out)
    print(f"swept {cell} cells")
    return 0


def cmd_repro(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(config, args)
    if args.pipeline == "cifar-analog":
        section = dict(config.get("analog", {}))
        if args.r_values:
            section["r_values"] = tuple(float(r) for r in args.r_values.split(","))
        analog_config = _dataclass_from(pl.AnalogConfig, section, "analog")
        manifest = RunManifest(
            config={"analog": dataclasses.asdict(analog_config)}, seed=analog_config.spec_seed
        )
        rows = pl.analog_study(analog_config)
        csv_rows = [
            [row["r"], row["variant"], row["seed"], fraction, row["accuracies"][fraction]]
            for row in rows
            for fraction in analog_config.label_fractions
        ]
        write_csv(out / "analog_accuracy.csv",
                  ["r", "variant", "seed", "label_fraction", "accuracy"], csv_rows, manifest)
        summary_rows = [
            [r, fraction] + list(pl.analog_means(rows, r, fraction).values())
            for r in analog_config.r_values
            for fraction in analog_config.label_fractions
        ]
        write_csv(out / "analog_summary.csv",
                  ["r", "label_fraction"] + list(pl.ANALOG_VARIANTS), summary_rows, manifest)
        manifest.save(out)
        print(f"analog study complete: {len(rows)} cells -> {out}")
        return 0
    if args.pipeline == "eta-tradeoff":
        section = dict(config.get("tradeoff", {}))
        tradeoff_config = _dataclass_from(pl.TradeoffConfig, section, "tradeoff")
        manifest = RunManifest(
            config={"tradeoff": dataclasses.asdict(tradeoff_config)},
            seed=tradeoff_config.spec_seed,
        )
        rows = pl.tradeoff_study(tradeoff_config)
        csv_rows = [
            [row["variant"], row["seed"], row["head_accuracy"],
             row["tail_avg_recall"], row["avg_recall"], row["gamma_final"]]
            for row in rows
        ]
        write_csv(out / "tradeoff.csv",
                  ["variant", "seed", "head_accuracy", "tail_avg_recall", "avg_recall",
                   "gamma_final"], csv_rows, manifest)
        summary = pl.tradeoff_summary(rows, tradeoff_config)
        write_json(out / "tradeoff_summary.json", summary, manifest)
        manifest.save(out)
        print(to_json(summary))
        return 0
    raise ConfigError(f"unknown repro pipeline {args.pipeline!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (under SDCL_OUT_ROOT)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("simulate", help="dump a dataset and PLL table")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train an encoder; write checkpoint and trace")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", help="path to checkpoint.bin")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify-bounds", help="randomized bound verification sweep")
    common(p)
    p.add_argument("--configs", type=int, help="number of random configurations")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("sweep", help="grid over objectives and eta values")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("repro", help="full study pipelines")
    p.add_argument("pipeline", choices=["cifar-analog", "eta-tradeoff"])
    common(p)
    p.add_argument("--r-values", help="comma-separated r grid (cifar-analog)")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
