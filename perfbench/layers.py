"""The traced ``sdcl`` layer boundaries and the per-layer metrics built on them.

Each span name is ``<module>.<function>`` with an optional split read from
the call's own arguments:

* ``encoder.forward_features`` / ``encoder.forward_tokens``: ``.batch`` when
  the call has the training batch's row count, ``.eval`` otherwise (probe
  pools, galleries, the bound sweep's point sets);
* ``encoder.backward``: ``.tokens`` when the cache holds token sequences,
  ``.features`` otherwise;
* ``objectives.in_batch_loss``: ``.plain`` for the vectorized path (no
  handling and no negative cap), ``.loop.<kind>`` for the per-anchor loop;
* ``eta.eta_for_batch``: ``.<provider class>``, since an LM lookup costs
  ~40x a constant one;
* ``linear_head._loss_grad``: ``.rows<N>``, since the probe fits a 1% and a
  100% labeled subset whose evaluations differ ~50x in cost.

Per-layer metrics aggregate every span under a prefix; calls and self time
are reported per unit so that runs of different length compare.
"""

from __future__ import annotations

from .tracer import Target, Tracer, arg

# span prefixes reported as <prefix>.{calls,self_s,self_us_p50}
SPANS = (
    "pipelines.run_analog_cell",
    "pipelines.run_tradeoff_cell",
    "pipelines.bound_sweep",
    "train.train",
    "train.build_lm_assets",
    "train.sample_training_batch",
    "train.optimizer_update",
    "encoder.forward_features.batch",
    "encoder.forward_features.eval",
    "encoder.forward_tokens.batch",
    "encoder.forward_tokens.eval",
    "encoder.backward.features",
    "encoder.backward.tokens",
    "objectives.in_batch_loss.plain",
    "objectives.in_batch_loss.loop",
    "eta.eta_for_batch",
    "eta.eta_of",
    "mixture.sample_features_for_classes",
    "textsim.generate_report",
    "textsim.pseudo_log_likelihood",
    "textsim.fit_ngram",
    "textsim.pll_table",
    "linear_head.fit_softmax",
    "linear_head._loss_grad",
    "evaluate.linear_probe",
    "bounds.verify_prop1",
    "bounds.empirical_gap",
    "bounds.prop1_rhs",
    "bounds.eta_matrix",
)

# (name, unit, better) of the useful-work ratios and trace bookkeeping
RATIOS = (
    ("eta.pll_cache_hit_ratio", "ratio", "higher"),
    ("objectives.fallback_per_anchor", "ratio", "lower"),
    ("objectives.clamp_fraction", "ratio", "lower"),
    ("linear_head.converged_ratio", "ratio", "higher"),
    ("linear_head.loss_grad_evals", "count/fit", "lower"),
    ("bounds.empirical_gap.trials", "count/call", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.units", "count", "higher"),
)

SPAN_FIELDS = (("calls", "count/unit"), ("self_s", "s/unit"), ("self_us_p50", "us"))


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = [
        {"name": f"{prefix}.{field}", "unit": unit, "better": "lower"}
        for prefix in SPANS
        for field, unit in SPAN_FIELDS
    ]
    out.extend({"name": n, "unit": u, "better": b} for n, u, b in RATIOS)
    return out


def _rows_split(batch_size: int, pos: int, key: str, base: str):
    def name(args, kwargs):
        x = arg(args, kwargs, pos, key)
        rows = len(x) if isinstance(x, (list, tuple)) else (x.shape[0] if x.ndim == 2 else 1)
        return f"{base}.batch" if rows == batch_size else f"{base}.eval"

    return name


def _backward_split(args, kwargs):
    cache = arg(args, kwargs, 1, "cache")
    return "encoder.backward.tokens" if cache.token_seqs is not None else "encoder.backward.features"


def _loss_split(args, kwargs):
    handling = kwargs.get("handling")
    kind = "none" if handling is None else handling.kind
    if kind == "none" and kwargs.get("max_negatives") is None:
        return "objectives.in_batch_loss.plain"
    return f"objectives.in_batch_loss.loop.{'max_negatives' if kind == 'none' else kind}"


def _eta_split(args, kwargs):
    return f"eta.eta_for_batch.{type(arg(args, kwargs, 0, 'provider')).__name__}"


def _loss_grad_split(args, kwargs):
    return f"linear_head._loss_grad.rows{arg(args, kwargs, 1, 'x').shape[0]}"


def _loss_after(tracer: Tracer, state, args, kwargs, result):
    anchors = result.d_anchor.shape[0]
    tracer.count("loss.anchors", anchors)
    tracer.count("loss.fallbacks", result.fallback_count)
    if kwargs.get("objective") == "dcl":
        tracer.count("loss.dcl_anchors", anchors)
        tracer.count("loss.clamped", result.clamp_fraction * anchors)


def _pll_cache_before(args, kwargs):
    cache = getattr(arg(args, kwargs, 0, "provider"), "pll_cache", None)
    return None if cache is None else len(cache)


def _pll_cache_after(tracer: Tracer, size_before, args, kwargs, result):
    seqs = arg(args, kwargs, 2, "token_seqs")
    if size_before is None or seqs is None:
        return
    grew = len(arg(args, kwargs, 0, "provider").pll_cache) - size_before
    tracer.count("pll.lookups", len(seqs))
    tracer.count("pll.hits", len(seqs) - grew)


def _fit_after(tracer: Tracer, state, args, kwargs, result):
    tracer.count("fit.calls")
    tracer.count("fit.converged", float(result.converged))


def _loss_grad_after(tracer: Tracer, state, args, kwargs, result):
    tracer.count("loss_grad.calls")


def _gap_after(tracer: Tracer, state, args, kwargs, result):
    tracer.count("gap.calls")
    tracer.count("gap.trials", arg(args, kwargs, 5, "trials"))


def targets(batch_size: int) -> list[Target]:
    """Wrappers for every traced call, splitting shapes at ``batch_size`` rows."""
    return [
        Target("sdcl.pipelines", "run_analog_cell", "pipelines.run_analog_cell"),
        Target("sdcl.pipelines", "run_tradeoff_cell", "pipelines.run_tradeoff_cell"),
        Target("sdcl.pipelines", "bound_sweep", "pipelines.bound_sweep"),
        Target("sdcl.train", "train", "train.train"),
        Target("sdcl.train", "build_lm_assets", "train.build_lm_assets"),
        Target("sdcl.train", "sample_training_batch", "train.sample_training_batch"),
        Target("sdcl.train", "_Adam.update", "train.optimizer_update"),
        Target("sdcl.encoder", "forward_features",
               _rows_split(batch_size, 1, "x", "encoder.forward_features")),
        Target("sdcl.encoder", "forward_tokens",
               _rows_split(batch_size, 1, "token_seqs", "encoder.forward_tokens")),
        Target("sdcl.encoder", "backward", _backward_split),
        Target("sdcl.objectives", "in_batch_loss", _loss_split, after=_loss_after),
        Target("sdcl.eta", "eta_for_batch", _eta_split,
               before=_pll_cache_before, after=_pll_cache_after),
        Target("sdcl.eta", "eta_of", "eta.eta_of"),
        Target("sdcl.mixture", "sample_features_for_classes",
               "mixture.sample_features_for_classes"),
        Target("sdcl.textsim", "generate_report", "textsim.generate_report"),
        Target("sdcl.textsim", "pseudo_log_likelihood", "textsim.pseudo_log_likelihood"),
        Target("sdcl.textsim", "fit_ngram", "textsim.fit_ngram"),
        Target("sdcl.textsim", "pll_table", "textsim.pll_table"),
        Target("sdcl.linear_head", "fit_softmax", "linear_head.fit_softmax", after=_fit_after),
        Target("sdcl.linear_head", "_loss_grad", _loss_grad_split, after=_loss_grad_after),
        Target("sdcl.evaluate", "linear_probe", "evaluate.linear_probe"),
        Target("sdcl.bounds", "verify_prop1", "bounds.verify_prop1"),
        Target("sdcl.bounds", "empirical_gap", "bounds.empirical_gap", after=_gap_after),
        Target("sdcl.bounds", "prop1_rhs", "bounds.prop1_rhs"),
        Target("sdcl.bounds", "eta_matrix", "bounds.eta_matrix"),
    ]


def ratios(counters: dict[str, float]) -> dict[str, float]:
    """The useful-work ratios from a tracer's counters (0 where no call fed them)."""
    c = counters.get

    def div(num, den):
        return c(num, 0.0) / c(den) if c(den) else 0.0

    return {
        "eta.pll_cache_hit_ratio": div("pll.hits", "pll.lookups"),
        "objectives.fallback_per_anchor": div("loss.fallbacks", "loss.anchors"),
        "objectives.clamp_fraction": div("loss.clamped", "loss.dcl_anchors"),
        "linear_head.converged_ratio": div("fit.converged", "fit.calls"),
        "linear_head.loss_grad_evals": div("loss_grad.calls", "fit.calls"),
        "bounds.empirical_gap.trials": div("gap.trials", "gap.calls"),
    }
