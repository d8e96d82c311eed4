"""Experiment runner.

Subcommands: ``simulate``, ``train``, ``eval``, ``verify-bounds`` and
``repro`` (full study pipelines).  Each run is described by a JSON config
that parses into one typed ``Config``; command-line flags override its
fields, and the SHA-256 hash of the result, along with the seed, is embedded
in every output file.  The SDCL_OUT_ROOT environment variable relocates the
output root only.

Exit codes: 0 ok, 2 config error, 3 runtime numeric failure, 4 bound check
failed (verify-bounds only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import encoder as enc
from . import evaluate as ev
from . import mixture as mix
from . import pipelines as pl
from . import textsim as ts
from . import train as tr
from .eta import eta_for_batch, make_provider
from .fields import ConfigError, build, check_fields
from .manifest import RunManifest, to_json, write_csv, write_json
from .rngstream import stream


@dataclass(frozen=True)
class SpecSection:
    preset: Optional[str] = None  # cifar-analog (its prior scaled by r) | eta-tradeoff
    r: Optional[float] = None
    inline: Optional[dict] = None  # a mixture in the schema of mixture.spec_to_dict

    def __post_init__(self):
        check_fields(self)
        if self.preset is not None and self.inline is not None:
            raise ValueError("give preset or inline, not both")
        if self.preset not in (None, "cifar-analog", "eta-tradeoff"):
            raise ValueError(f"unknown preset {self.preset!r}; use cifar-analog or eta-tradeoff")
        if self.r is not None and (self.preset != "cifar-analog" or not 0.0 < self.r <= 1.0):
            raise ValueError(f"r must be in (0, 1] with the cifar-analog preset, got {self.r}")


@dataclass(frozen=True)
class SimulateSection:
    samples: int = 1000
    dump_etas: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.samples < 0:
            raise ValueError(f"simulate.samples must be >= 0, got {self.samples}")


@dataclass(frozen=True)
class EvalSection:
    checkpoint: Optional[str] = None
    n_train: int = 4000
    n_test: int = 2000
    label_fraction: float = 1.0
    retrieval_ks: tuple[int, ...] = (10, 50, 100)

    def __post_init__(self):
        check_fields(self)
        if self.n_train < 1 or self.n_test < 2:
            raise ValueError("n_train must be >= 1 and n_test >= 2")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError(f"label_fraction must lie in (0, 1], got {self.label_fraction}")
        if not self.retrieval_ks or min(self.retrieval_ks) < 1:
            raise ValueError("retrieval_ks must be non-empty and every k >= 1")


@dataclass(frozen=True)
class Config:
    """A whole config file, every section typed and every default filled in."""

    seed: int = 0
    out: str = "runs/latest"
    spec: SpecSection = field(default_factory=SpecSection)
    train: tr.TrainConfig = field(default_factory=tr.TrainConfig)
    simulate: SimulateSection = field(default_factory=SimulateSection)
    eval: EvalSection = field(default_factory=EvalSection)
    bounds: pl.BoundSweepConfig = field(default_factory=pl.BoundSweepConfig)
    analog: pl.AnalogConfig = field(default_factory=pl.AnalogConfig)
    tradeoff: pl.TradeoffConfig = field(default_factory=pl.TradeoffConfig)

    def __post_init__(self):
        check_fields(self)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _dataclass_from(cls, payload: dict, context: str):
    try:
        return build(cls, payload, context)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args) -> Config:
    """The file's config with the flags applied; ``train.seed`` defaults to
    the top-level ``seed``, and ``--seed`` sets both and ``bounds.seed``."""
    raw = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as f:
                raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path} must hold a JSON object")
    train = raw.get("train", {})
    if isinstance(train, dict) and "seed" not in train:
        raw = dict(raw, train=dict(train, seed=raw.get("seed", 0)))
    config = _dataclass_from(Config, raw, "")
    try:
        if getattr(args, "seed", None) is not None:
            config = replace(config, seed=args.seed, train=replace(config.train, seed=args.seed),
                             bounds=replace(config.bounds, seed=args.seed))
        if getattr(args, "configs", None) is not None:
            config = replace(config, bounds=replace(config.bounds, n_configs=args.configs))
        if getattr(args, "r_values", None) is not None:
            config = replace(config, analog=replace(config.analog, r_values=args.r_values))
    except ValueError as exc:
        raise ConfigError(f"invalid command-line override: {exc}") from exc
    return config


def _out_dir(config: Config, args) -> Path:
    path = Path(os.environ.get("SDCL_OUT_ROOT", ".")) / (args.out or config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_spec(config: Config) -> mix.MixtureSpec:
    """The mixture of the config's spec section."""
    section = config.spec
    try:
        if section.inline is not None:
            return mix.spec_from_dict(section.inline)
        if section.preset == "cifar-analog":
            base = pl.analog_spec(config.analog)
            if section.r is None:
                return base
            return mix.subsample_classes(base, config.analog.subsampled, section.r)
        if section.preset == "eta-tradeoff":
            return pl.tradeoff_spec(config.tradeoff)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc
    raise ConfigError("this command needs a spec: a preset (cifar-analog, eta-tradeoff) "
                      "or an inline mixture")


def cmd_simulate(config: Config, args) -> int:
    seed, section = config.seed, config.simulate
    spec = _resolve_spec(config)
    eta = config.train.eta
    if section.dump_etas and eta is None:
        raise ConfigError("simulate.dump_etas needs train.eta, which is null")
    # eta_LM's bigram model is fit to the reports the dump samples
    if section.dump_etas and eta.kind == "lm_log_linear" and not section.samples:
        raise ConfigError("eta dump with lm_log_linear needs simulate.samples >= 1")
    out = _out_dir(config, args)
    manifest = RunManifest(config, seed=seed)
    n = section.samples
    rng = stream(seed, 0)
    classes = mix.sample_class_array(spec.class_dist, n, rng)
    features, points = mix.sample_features_for_classes(spec, classes, rng)
    tokens, sentences = None, []
    if n:
        if spec.point_tokens is not None:
            tokens = mix.pad_tokens([spec.point_tokens[i] for i in points])
        else:
            tokens = mix.sample_reports(spec, classes, rng)
        sentences = [ids[valid].tolist() for ids, valid in zip(*tokens)]
    texts = [" ".join(map(str, seq)) for seq in sentences]
    rows = [[i, int(classes[i]), texts[i]] + list(features[i]) for i in range(n)]
    header = ["index", "latent_class", "tokens"] + [f"x{j}" for j in range(spec.dim)]
    write_csv(out / "dataset.csv", header, rows, manifest)
    mix.save_spec(spec, out / "spec.json")
    manifest.record(out / "spec.json")
    lm = None
    if tokens is not None:
        lm = ts.fit_ngram(*tokens, alpha=tr.LM_ALPHA, vocab_size=spec.vocab_size)
        pll_rows = sorted(ts.pll_table(lm, sentences).items())
        write_csv(out / "pll.csv", ["sentence_id", "tokens", "pll"],
                  [[i, " ".join(map(str, seq)), pll] for i, (seq, pll) in enumerate(pll_rows)],
                  manifest)
    if section.dump_etas:
        provider = make_provider(eta, spec=spec, lm=lm)
        etas = eta_for_batch(provider, classes=classes, tokens=tokens)
        eta_rows = [[i, int(classes[i]), etas[i]] for i in range(n)]
        write_csv(out / "etas.csv", ["index", "latent_class", "eta"], eta_rows, manifest)
    manifest.save(out)
    print(f"wrote {n} samples to {out}")
    return 0


def cmd_train(config: Config, args) -> int:
    train_config = config.train
    spec = _resolve_spec(config)
    out = _out_dir(config, args)
    manifest = RunManifest(config, seed=train_config.seed)
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


def cmd_eval(config: Config, args) -> int:
    seed, section = config.seed, config.eval
    spec = _resolve_spec(config)
    out = _out_dir(config, args)
    manifest = RunManifest(config, seed=seed)
    checkpoint = args.checkpoint or section.checkpoint
    if checkpoint is None:
        raise ConfigError("eval needs a checkpoint (flag --checkpoint or eval.checkpoint)")
    if not Path(checkpoint).exists():
        raise ConfigError(f"checkpoint not found: {checkpoint}")
    try:
        params = enc.load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable checkpoint {checkpoint}: {exc}") from exc
    vocab = None if params.token_embed is None else params.token_embed.shape[0]
    if params.input_dim != spec.dim or vocab not in (None, spec.vocab_size):
        raise ConfigError(f"checkpoint (input dim {params.input_dim}, vocab {vocab}) does not fit "
                          f"the spec (dim {spec.dim}, vocab {spec.vocab_size})")

    rng = stream(seed, 2, 0)
    train_classes = mix.sample_class_array(spec.class_dist, section.n_train, rng)
    train_x, _ = mix.sample_features_for_classes(spec, train_classes, rng)
    test_classes = mix.sample_class_array(spec.class_dist, section.n_test, rng)
    test_x, _ = mix.sample_features_for_classes(spec, test_classes, rng)
    train_emb = enc.embed_features(params, train_x)
    test_emb = enc.embed_features(params, test_x)

    try:
        probe = ev.linear_probe(train_emb, train_classes, test_emb, test_classes,
                                section.label_fraction, stream(seed, 2, 1))
    except ValueError as exc:
        raise ConfigError(f"linear probe: {exc}") from exc
    report = {
        "linear_probe_acc": probe.accuracy,
        "mean_classifier_acc": ev.mean_classifier_accuracy(
            train_emb, train_classes, test_emb, test_classes
        ),
        "label_fraction": section.label_fraction,
    }
    if params.token_embed is not None:
        texts = mix.sample_reports(spec, test_classes, rng)
        txt_emb, _ = enc.forward_tokens(params, *texts)
        retrieval = ev.retrieval_metrics(txt_emb, test_emb, ks=section.retrieval_ks)
        report["retrieval"] = {"recall_at": retrieval.recall_at, "medr": retrieval.medr,
                               "avg_recall": retrieval.avg_recall}
        ranks = retrieval.ranks
        write_csv(out / "ranks.csv", ["query", "rank_q2g", "rank_g2q"],
                  zip(range(section.n_test), ranks["query_to_gallery"], ranks["gallery_to_query"]),
                  manifest)
    write_csv(out / "projection.csv", ["index", "latent_class", "pc1", "pc2"],
              zip(range(section.n_test), test_classes, *ev.project_2d(test_emb).T), manifest)
    write_json(out / "report.json", report, manifest)
    manifest.save(out)
    print(to_json(report))
    return 0


def cmd_verify_bounds(config: Config, args) -> int:
    out = _out_dir(config, args)
    manifest = RunManifest(config, seed=config.bounds.seed)
    reports = pl.bound_sweep(config.bounds)
    header = ["config_index", "eta_variant", "classes", "points", "n", "m", "trials", "lhs",
              "lhs_stderr", "lhs_unclamped", "term_n", "term_m", "term_eta", "rhs_total",
              "holds", "constants"]
    rows = [[row[key] for key in header] for row in reports]
    write_csv(out / "bounds.csv", header, rows, manifest)
    manifest.save(out)
    n_hold = sum(1 for r in reports if r["holds"])
    print(f"bound held in {n_hold}/{len(reports)} configurations")
    return 0 if n_hold == len(reports) else 4


def cmd_repro(config: Config, args) -> int:
    # a study section the mixture rejects exits 2 here, before any cell trains
    _resolve_spec(replace(config, spec=SpecSection(preset=args.pipeline)))
    out = _out_dir(config, args)
    if args.pipeline == "cifar-analog":
        analog = config.analog
        manifest = RunManifest(config, seed=analog.spec_seed)
        rows = pl.analog_study(analog)
        write_csv(out / "analog_accuracy.csv",
                  ["r", "variant", "seed", "label_fraction", "accuracy"],
                  [[row["r"], row["variant"], row["seed"], fraction, row["accuracies"][fraction]]
                   for row in rows for fraction in analog.label_fractions], manifest)
        write_csv(out / "analog_summary.csv", ["r", "label_fraction", *pl.ANALOG_VARIANTS],
                  [[r, fraction, *pl.analog_means(rows, r, fraction).values()]
                   for r in analog.r_values for fraction in analog.label_fractions], manifest)
        write_csv(out / "analog_probe.csv",
                  ["r", "variant", "seed", "label_fraction", "converged", "evaluations"],
                  [[row["r"], row["variant"], row["seed"], fraction, *row["probe"][fraction]]
                   for row in rows for fraction in analog.label_fractions], manifest)
        manifest.save(out)
        print(f"analog study complete: {len(rows)} cells -> {out}")
        return 0
    tradeoff = config.tradeoff  # eta-tradeoff
    manifest = RunManifest(config, seed=tradeoff.spec_seed)
    rows = pl.tradeoff_study(tradeoff)
    columns = ["variant", "seed", "head_accuracy", "tail_avg_recall", "avg_recall", "gamma_final"]
    write_csv(out / "tradeoff.csv", columns, [[row[c] for c in columns] for row in rows], manifest)
    summary = pl.tradeoff_summary(rows, tradeoff)
    write_json(out / "tradeoff_summary.json", summary, manifest)
    manifest.save(out)
    print(to_json(summary))
    return 0


def _comma_floats(text: str) -> tuple:
    return tuple(float(r) for r in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdcl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in [
        ("simulate", cmd_simulate, "dump a dataset and PLL table"),
        ("train", cmd_train, "train an encoder; write checkpoint and trace"),
        ("eval", cmd_eval, "evaluate a checkpoint"),
        ("verify-bounds", cmd_verify_bounds, "randomized bound verification sweep"),
        ("repro", cmd_repro, "full study pipelines"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "repro":  # a study takes its seeds from its own section
            p.add_argument("pipeline", choices=["cifar-analog", "eta-tradeoff"])
        else:
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (under SDCL_OUT_ROOT)")
        p.set_defaults(func=func)
    sub.choices["eval"].add_argument("--checkpoint", help="path to checkpoint.bin")
    sub.choices["verify-bounds"].add_argument(
        "--configs", type=int, help="number of random configurations")
    sub.choices["repro"].add_argument(
        "--r-values", type=_comma_floats, help="comma-separated r grid (cifar-analog)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_load_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
