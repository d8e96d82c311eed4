"""Experiment pipelines: the class-imbalance analog study, the constant-eta
tradeoff study on long-tailed cross-modal data, and the randomized bound
verification sweep.

The analog study trains four objective variants (plain contrastive, debiased
with the true per-sample class probability, and debiased with each of the two
constants that are each correct for only one class group) on a Gaussian
mixture whose five "subsampled" classes have their prior scaled by r, then
compares linear probes across label fractions.  Positive pairs are two
jittered views of one draw, the augmentation analog; with independent
same-class redraws the false-negative correction has nothing to repair (the
pair itself carries the full class signal) and the variants are
indistinguishable.

The tradeoff study trains cross-modal text/image encoders on a long-tailed
prior (two head classes at 0.25, eight tails) and sweeps the constant
correction strength against the language-model estimate, scoring head-class
prompt classification and tail-class retrieval.

Each study decodes its variant names in one table, ``analog_train_config``
or ``tradeoff_train_config``: a name maps to its cell's eta (None for plain
``cl``), and ``dcl_eta_lm`` also to the LM it reads, fit and calibrated there.
``tradeoff_study`` builds every cell's setup once, before any cell trains,
and trains ``cl`` first; the summary reads ``tradeoff_variants``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import encoder as enc
from . import evaluate as ev
from . import mixture as mix
from . import textsim as ts
from . import train as tr
from .bounds import verify_prop1
from .eta import ETA_MAX, ETA_MIN, EtaConfig, calibrate_log_linear, make_provider
from .fields import ConfigError, check_fields
from .rngstream import stream

# ---------------------------------------------------------------------------
# Class-imbalance analog (10-class Gaussian mixture, subsampled prior)
# ---------------------------------------------------------------------------

ANALOG_VARIANTS = ("cl", "dcl_eta_true", "dcl_eta_rare", "dcl_eta_common")


@dataclass(frozen=True)
class AnalogConfig:
    n_classes: int = 10
    dim: int = 16
    separation: float = 3.0
    sigma: float = 0.8
    spec_seed: int = 123
    subsampled: tuple[int, ...] = (0, 1, 2, 3, 4)
    view_noise: float = 0.05
    batch_size: int = 128
    epochs: int = 40
    samples_per_epoch: int = 2048
    learning_rate: float = 1e-3
    gamma: float = math.sqrt(2.0)
    n_probe: int = 40000
    n_test_per_class: int = 300
    label_fractions: tuple[float, ...] = (0.01, 0.1, 1.0)
    r_values: tuple[float, ...] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        check_fields(self)
        for name in ("label_fractions", "r_values"):
            values = getattr(self, name)
            if not values or not all(0.0 < v <= 1.0 for v in values):
                raise ValueError(f"{name} must be non-empty and lie in (0, 1]")
        if self.n_probe < 1 or self.n_test_per_class < 1:
            raise ValueError("n_probe and n_test_per_class must be >= 1")
        if not self.sigma >= 0:  # nan fails too
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # the rare eta reads a subsampled class and the common eta one left out
        if not (self.subsampled and all(0 <= c < self.n_classes for c in self.subsampled)
                and len(set(self.subsampled)) < self.n_classes):
            raise ValueError(f"subsampled must name at least one class in [0, {self.n_classes}) "
                             f"and leave at least one out")
        # the probe's labeled subset, as linear_probe sizes it, must be able
        # to hold one row of every class
        budget = max(1, int(round(min(self.label_fractions) * self.n_probe)))
        if budget < self.n_classes:
            raise ValueError(f"the smallest label fraction labels {budget} of the n_probe = "
                             f"{self.n_probe} rows, fewer than the {self.n_classes} classes")
        _check_study(self)

    def train_fields(self) -> dict:
        """The TrainConfig fields every cell shares; a cell adds its eta
        and seed."""
        return dict(
            mode="view",
            view_noise=self.view_noise,
            batch_size=self.batch_size,
            epochs=self.epochs,
            samples_per_epoch=self.samples_per_epoch,
            learning_rate=self.learning_rate,
            gamma=self.gamma,
        )


def _check_study(config) -> None:
    """Range checks a study config shares, run before any cell trains: the
    seeds, the feature dim, and the cells' TrainConfig fields through
    TrainConfig's checks."""
    if not config.seeds or min(config.seeds) < 0:
        raise ValueError("seeds must be non-empty and >= 0")
    if config.dim < 1:
        raise ValueError("dim must be >= 1")
    tr.TrainConfig(**config.train_fields())


def analog_spec(config: AnalogConfig = AnalogConfig()) -> mix.MixtureSpec:
    """Uniform 10-class mixture with random equal-norm means."""
    rng = stream(config.spec_seed, 0)
    means = rng.standard_normal((config.n_classes, config.dim))
    means *= config.separation / np.linalg.norm(means, axis=1, keepdims=True)
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(config.n_classes, 1.0 / config.n_classes)),
        conditionals=mix.GaussianConditionals(
            means=means, stddevs=np.full(config.n_classes, config.sigma)
        ),
        templates=tuple(((c,),) for c in range(config.n_classes)),
        template_weights=tuple((1.0,) for _ in range(config.n_classes)),
        vocab_size=config.n_classes,
    )


def _cell_train_config(etas: dict, variant: str, config, seed: int) -> tr.TrainConfig:
    """The TrainConfig of the study cell that ``etas`` maps ``variant`` to:
    plain contrastive for None, debiased with the EtaConfig otherwise."""
    if variant not in etas:
        raise ValueError(f"unknown variant {variant!r}; this study has {list(etas)}")
    return tr.TrainConfig(eta=etas[variant], seed=seed, **config.train_fields())


def analog_train_config(
    variant: str, sub: mix.MixtureSpec, config: AnalogConfig, seed: int
) -> tr.TrainConfig:
    """The cell's TrainConfig: each name in ANALOG_VARIANTS maps to its eta
    on the subsampled prior ``sub``, and ``cl`` to none."""
    probs = sub.class_dist.probs
    common = next(c for c in range(sub.num_classes) if c not in config.subsampled)
    etas = {
        "cl": None,
        "dcl_eta_true": EtaConfig(kind="true_oracle"),
        "dcl_eta_rare": EtaConfig(kind="constant", value=float(probs[config.subsampled[0]])),
        "dcl_eta_common": EtaConfig(kind="constant", value=float(probs[common])),
    }
    return _cell_train_config(etas, variant, config, seed)


def run_analog_cell(
    base_spec: mix.MixtureSpec, config: AnalogConfig, r: float, variant: str, seed: int
) -> dict:
    """Train one variant at one r and probe it across label fractions.

    The probe pool is drawn from the (nonuniform) training marginal; the test
    set is balanced across classes, mirroring subsampled-train/full-test
    evaluation.
    """
    sub = mix.subsample_classes(base_spec, config.subsampled, r)
    result = tr.train(sub, analog_train_config(variant, sub, config, seed))
    # where this is built relative to the pool does not move the peak RSS:
    # building it after the probe gave the same peak under PYTHONHASHSEED 1-4
    trace = result.trace_array()

    # the pool's raw features, 5 MB at 40k rows, are freed once embedded
    pool_rng = stream(seed, 2, 0)
    pool_classes = mix.sample_class_array(sub.class_dist, config.n_probe, pool_rng)
    pool_emb = enc.embed_features(
        result.params, mix.sample_features_for_classes(sub, pool_classes, pool_rng)[0]
    )
    test_classes = np.repeat(np.arange(base_spec.num_classes), config.n_test_per_class)
    test_x, _ = mix.sample_features_for_classes(base_spec, test_classes, stream(seed, 2, 1))
    test_emb = enc.embed_features(result.params, test_x)

    accuracies, probe = {}, {}
    for fraction in config.label_fractions:
        accuracy, converged, evaluations = ev.linear_probe(
            pool_emb, pool_classes, test_emb, test_classes, fraction, stream(seed, 2, 2)
        )
        accuracies[fraction] = accuracy
        probe[fraction] = (converged, evaluations)
    return {
        "r": r,
        "variant": variant,
        "seed": seed,
        "accuracies": accuracies,
        "probe": probe,  # fraction -> (converged, evaluations) of its fit
        "params": result.params,
        "trace": trace,
    }


def analog_study(config: AnalogConfig = AnalogConfig()) -> list[dict]:
    """Full grid of (r, variant, seed) cells, in grid order, without their
    params and traces."""
    base = analog_spec(config)
    cells = (run_analog_cell(base, config, r, variant, seed)
             for r in config.r_values for variant in ANALOG_VARIANTS for seed in config.seeds)
    return [{k: v for k, v in cell.items() if k not in ("params", "trace")} for cell in cells]


def analog_means(rows: list[dict], r: float, fraction: float) -> dict:
    """Seed-averaged probe accuracy per variant at one r and label fraction."""
    return {
        variant: float(np.mean([
            row["accuracies"][fraction]
            for row in rows
            if row["variant"] == variant and row["r"] == r
        ]))
        for variant in ANALOG_VARIANTS
    }


def analog_gaps(rows: list[dict], r: float, fraction: float) -> float:
    """Seed-averaged accuracy edge of the true-eta variant over the best
    alternative, in accuracy points (x100)."""
    means = analog_means(rows, r, fraction)
    others = max(means[v] for v in ANALOG_VARIANTS if v != "dcl_eta_true")
    return 100.0 * (means["dcl_eta_true"] - others)


def analog_spread(rows: list[dict], r: float, fraction: float) -> float:
    """Max minus min seed-averaged accuracy across the four variants (x100)."""
    means = analog_means(rows, r, fraction).values()
    return 100.0 * (max(means) - min(means))


# ---------------------------------------------------------------------------
# Constant-eta tradeoff on long-tailed cross-modal data
# ---------------------------------------------------------------------------

FILLER_A, FILLER_B = 10, 11


@dataclass(frozen=True)
class TradeoffConfig:
    dim: int = 16
    head_shell: float = 3.0
    head_split: float = 1.2
    head_sigma: float = 0.5
    tail_radius: float = 3.4
    tail_sigma: float = 0.6
    spec_seed: int = 321
    vocab_size: int = 24
    perturb_prob: float = 0.05
    batch_size: int = 128
    epochs: int = 60
    samples_per_epoch: int = 2048
    learning_rate: float = 5e-4
    gamma: float = 4.0
    lm_corpus_size: int = 2000
    calibration_range: tuple[float, ...] = (0.01, 0.2)
    calibration_quantiles: tuple[float, ...] = (0.25, 0.75)
    constant_etas: tuple[float, ...] = (0.01, 0.05, 0.1, 0.2)
    retrieval_per_class: int = 20
    retrieval_ks: tuple[int, ...] = (10, 50, 100)
    prompt_images_per_side: int = 100
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        check_fields(self)
        etas, quantiles = self.calibration_range, self.calibration_quantiles
        if not (len(etas) == 2 and 0.0 < etas[0] < etas[1] < 1.0):
            raise ValueError("calibration_range must be two increasing values in (0, 1)")
        if not (len(quantiles) == 2 and 0.0 <= quantiles[0] < quantiles[1] <= 1.0):
            raise ValueError("calibration_quantiles must be two increasing values in [0, 1]")
        if self.retrieval_per_class < 1 or self.prompt_images_per_side < 1:
            raise ValueError("retrieval_per_class and prompt_images_per_side must be >= 1")
        if not self.retrieval_ks or min(self.retrieval_ks) < 1:
            raise ValueError("retrieval_ks must be non-empty and every k >= 1")
        # eta_for_batch would clip a study cell's constant outside this range
        if not self.constant_etas or not all(ETA_MIN <= v <= ETA_MAX for v in self.constant_etas):
            raise ValueError(f"constant_etas must be non-empty and lie in [{ETA_MIN}, {ETA_MAX}]")
        if len(set(self.constant_etas)) < len(self.constant_etas):
            raise ValueError("constant_etas must not repeat a value")
        for name in ("head_sigma", "tail_sigma"):
            if not getattr(self, name) >= 0:  # nan fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.perturb_prob <= 1.0:
            raise ValueError(f"perturb_prob must lie in [0, 1], got {self.perturb_prob}")
        if self.vocab_size < 22:  # the templates' largest token is 12 + 9
            raise ValueError(f"vocab_size must be >= 22 to hold the templates' tokens, "
                             f"got {self.vocab_size}")
        _check_study(self)

    def train_fields(self) -> dict:
        """The TrainConfig fields every cell shares; a cell adds its eta
        and seed."""
        return dict(
            mode="cross_modal",
            batch_size=self.batch_size,
            epochs=self.epochs,
            samples_per_epoch=self.samples_per_epoch,
            learning_rate=self.learning_rate,
            gamma=self.gamma,
            gamma_trainable=True,
            lm_corpus_size=self.lm_corpus_size,
        )

    @property
    def head_classes(self) -> tuple:
        return (0, 1)

    @property
    def tail_classes(self) -> tuple:
        return tuple(range(2, 10))


def tradeoff_spec(config: TradeoffConfig = TradeoffConfig()) -> mix.MixtureSpec:
    """Long-tailed cross-modal toy: two common confusable head classes on a
    shared shell direction, eight rarer tails, one template per class."""
    rng = stream(config.spec_seed, 0)
    dim = config.dim
    u = rng.standard_normal(dim)
    u *= config.head_shell / np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u / (u @ u)
    v *= (config.head_split / 2) / np.linalg.norm(v)
    means = np.zeros((10, dim))
    means[0] = u + v
    means[1] = u - v
    for c in range(2, 10):
        w = rng.standard_normal(dim)
        means[c] = w * config.tail_radius / np.linalg.norm(w)
    stddevs = np.array([config.head_sigma] * 2 + [config.tail_sigma] * 8)
    probs = np.array([0.25, 0.25] + [0.0625] * 8)
    templates = tuple(((FILLER_A, c, 12 + c, FILLER_B),) for c in range(10))
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.GaussianConditionals(means=means, stddevs=stddevs),
        templates=templates,
        template_weights=tuple((1.0,) for _ in range(10)),
        vocab_size=config.vocab_size,
        report_perturb_prob=config.perturb_prob,
    )


def class_prompts(spec: mix.MixtureSpec, c: int, sibling: int) -> tuple:
    """(negative, positive) prompt pair for a head task: the sibling head's
    canonical template describes the contrasting common state."""
    return spec.templates[sibling][0], spec.templates[c][0]


def tradeoff_variants(config: TradeoffConfig) -> tuple[str, ...]:
    """The summary's variants: each constant eta as ``str(v)``, then the LM's."""
    return tuple(str(v) for v in config.constant_etas) + ("dcl_eta_lm",)


def tradeoff_train_config(
    variant: str, spec: mix.MixtureSpec, config: TradeoffConfig, seed: int
) -> tuple[tr.TrainConfig, ts.NGramLM | None]:
    """The cell's TrainConfig and the LM its eta reads: ``cl`` trains plain
    contrastive, ``str(v)`` debiases with the constant v, and ``dcl_eta_lm``
    fits the bigram LM and calibrates eta_LM's (a, k) on its PLL quantiles."""
    etas = {"cl": None, **{str(v): EtaConfig(kind="constant", value=v)
                           for v in config.constant_etas},
            "dcl_eta_lm": EtaConfig(kind="lm_log_linear")}
    train_config = _cell_train_config(etas, variant, config, seed)
    if variant != "dcl_eta_lm":
        return train_config, None
    lm = tr.build_lm_assets(spec, train_config)
    rng = stream(seed, 11)
    reports = mix.sample_reports(spec, mix.sample_class_array(spec.class_dist, 1000, rng), rng)
    try:
        a, k = calibrate_log_linear(ts.pseudo_log_likelihood(lm, *reports),
                                    config.calibration_range, config.calibration_quantiles)
    except ValueError as exc:
        raise ConfigError(f"tradeoff.calibration_quantiles "
                          f"{list(config.calibration_quantiles)} at seed {seed}: {exc}") from exc
    return replace(train_config, eta=EtaConfig(kind="lm_log_linear", a=a, k=k)), lm


def run_tradeoff_cell(spec: mix.MixtureSpec, config: TradeoffConfig, variant: str, seed: int,
                      *, setup: tuple[tr.TrainConfig, ts.NGramLM | None] | None = None) -> dict:
    """Train one variant and score head prompt accuracy plus tail retrieval.
    ``setup`` is the cell's ``tradeoff_train_config``, built here when None."""
    if setup is None:
        setup = tradeoff_train_config(variant, spec, config, seed)
    train_config, lm = setup
    params = tr.train(spec, train_config, lm=lm).params

    # tail-class retrieval over a balanced text/image gallery
    rng = stream(seed, 3, 0)
    classes = np.repeat(np.arange(spec.num_classes), config.retrieval_per_class)
    feats, _ = mix.sample_features_for_classes(spec, classes, rng)
    texts = mix.sample_reports(spec, classes, rng)
    img_emb = enc.embed_features(params, feats)
    txt_emb, _ = enc.forward_tokens(params, *texts)
    retrieval = ev.retrieval_metrics(txt_emb, img_emb, ks=config.retrieval_ks)
    tail_mask = np.isin(classes, config.tail_classes)
    tail_vals = [
        float(np.mean(ranks[tail_mask] <= k))
        for ranks in retrieval.ranks.values()
        for k in config.retrieval_ks
    ]
    tail_recall = float(np.mean(tail_vals))

    # head prompt classification: each head against its confusable sibling
    prompt_rng = stream(seed, 3, 1)
    head_accs = {}
    n_side = config.prompt_images_per_side
    for c in config.head_classes:
        sibling = config.head_classes[1 - config.head_classes.index(c)]
        test_classes = np.concatenate([np.full(n_side, c), np.full(n_side, sibling)])
        x, _ = mix.sample_features_for_classes(spec, test_classes, prompt_rng)
        embs = enc.embed_features(params, x)
        head_accs[c] = ev.prompt_accuracy(
            embs, test_classes, c, class_prompts(spec, c, sibling), params
        )
    return {
        "variant": variant,
        "seed": seed,
        "head_accuracy": float(np.mean(list(head_accs.values()))),
        "tail_avg_recall": tail_recall,
        "avg_recall": retrieval.avg_recall,
        "gamma_final": float(params.gamma),
        # only eta_LM calibrates (a, k); a cell without an LM has none
        "eta_a": train_config.eta.a if lm is not None else None,
        "eta_k": train_config.eta.k if lm is not None else None,
    }


def tradeoff_study(config: TradeoffConfig = TradeoffConfig()) -> list[dict]:
    """Every (variant, seed) cell: plain contrastive first, which the summary
    does not read, then the tradeoff_variants.  Every cell's setup is built
    first, each seed's LM fit and calibrated once on its own streams, so a
    degenerate calibration fails before any cell trains."""
    spec = tradeoff_spec(config)
    cells = [(variant, seed, tradeoff_train_config(variant, spec, config, seed))
             for variant in ("cl",) + tradeoff_variants(config) for seed in config.seeds]
    return [run_tradeoff_cell(spec, config, variant, seed, setup=setup)
            for variant, seed, setup in cells]


def _spearman(a, b) -> float:
    """Spearman's rank correlation: Pearson's correlation of the average
    ranks (tied values share their mean rank); nan when either column is
    constant, which has no rank correlation."""
    centered = []
    for values in (a, b):
        v = np.asarray(values, dtype=np.float64)[:, None]
        ranks = (v > v.T).sum(axis=1) + ((v == v.T).sum(axis=1) + 1) / 2.0
        centered.append(ranks - ranks.mean())
    ra, rb = centered
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    return float(np.clip(ra @ rb / denom, -1.0, 1.0)) if denom > 0 else float("nan")


def tradeoff_summary(rows: list[dict], config: TradeoffConfig = TradeoffConfig()) -> dict:
    """Seed-averaged metrics per variant plus the monotonicity statistics."""

    def mean_metric(variant, key):
        return float(np.mean([r[key] for r in rows if r["variant"] == variant]))

    *constants, lm = tradeoff_variants(config)
    head = [mean_metric(v, "head_accuracy") for v in constants]
    tail = [mean_metric(v, "tail_avg_recall") for v in constants]
    etas = list(config.constant_etas)
    return {
        "constant_etas": etas,
        "head_accuracy": head,
        "tail_avg_recall": tail,
        "head_spearman": _spearman(etas, head),
        "tail_spearman": _spearman(etas, tail),
        "lm_head_accuracy": mean_metric(lm, "head_accuracy"),
        "lm_tail_avg_recall": mean_metric(lm, "tail_avg_recall"),
        "best_constant_head": max(head),
        "best_constant_tail": max(tail),
    }


# ---------------------------------------------------------------------------
# Randomized bound-verification sweep
# ---------------------------------------------------------------------------

BOUND_ETA_VARIANTS = ("constant_0.05", "constant_0.5", "true_oracle", "lm_log_linear")


@dataclass(frozen=True)
class BoundSweepConfig:
    n_configs: int = 50
    seed: int = 7
    trials: int = 200
    max_trials: int = 6400
    constants: str = "proof"
    n_grid: tuple[int, ...] = (4, 16, 64, 256)
    m_grid: tuple[int, ...] = (1, 4, 16)
    max_classes: int = 8
    max_points: int = 32

    def __post_init__(self):
        check_fields(self)
        if self.n_configs < 1:
            raise ValueError("n_configs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 2 <= self.trials <= self.max_trials:
            raise ValueError("need 2 <= trials <= max_trials")
        for name in ("n_grid", "m_grid"):
            grid = getattr(self, name)
            if not (grid and min(grid) >= 1):
                raise ValueError(f"{name} must be a non-empty list of values >= 1")
        if not 2 <= self.max_classes <= self.max_points or self.max_points < 4:
            raise ValueError("need 2 <= max_classes <= max_points and max_points >= 4")
        if self.constants not in ("proof", "statement"):
            raise ValueError("constants must be 'proof' or 'statement'")


def _random_discrete_spec(rng: np.random.Generator, config: BoundSweepConfig) -> mix.MixtureSpec:
    k = int(rng.integers(2, config.max_classes + 1))
    p = int(rng.integers(max(4, k), config.max_points + 1))
    dim = int(rng.integers(3, 7))
    vocab = 12
    probs = rng.random(k) + 0.15
    probs /= probs.sum()
    pmfs = rng.random((k, p)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    point_tokens = tuple(tuple(row) for row in rng.integers(0, vocab, size=(p, 4)).tolist())
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.DiscreteConditionals(
            points=rng.standard_normal((p, dim)), pmfs=pmfs
        ),
        templates=tuple(((int(rng.integers(0, vocab)),),) for _ in range(k)),
        template_weights=tuple((1.0,) for _ in range(k)),
        vocab_size=vocab,
        point_tokens=point_tokens,
    )


def _bound_provider(variant: str, spec: mix.MixtureSpec, rng: np.random.Generator):
    if variant == "constant_0.05":
        return make_provider(EtaConfig(kind="constant", value=0.05))
    if variant == "constant_0.5":
        return make_provider(EtaConfig(kind="constant", value=0.5))
    if variant == "true_oracle":
        return make_provider(EtaConfig(kind="true_oracle"), spec=spec)
    marginal = mix.exact_marginal_pmf(spec)
    corpus_idx = rng.choice(len(spec.point_tokens), size=400, p=marginal)
    corpus = [spec.point_tokens[i] for i in corpus_idx]
    lm = ts.fit_ngram(*mix.pad_tokens(corpus), alpha=tr.LM_ALPHA, vocab_size=spec.vocab_size)
    return make_provider(EtaConfig(kind="lm_log_linear"), lm=lm)


def bound_sweep(config: BoundSweepConfig = BoundSweepConfig()) -> list[dict]:
    """Randomized configurations cycling the eta variants and (N, M) grid;
    one row per configuration: its ``BoundReport`` fields and what it drew."""
    reports = []
    for i in range(config.n_configs):
        rng = stream(config.seed, 5, i)
        spec = _random_discrete_spec(rng, config)
        params = enc.init_params(
            spec.dim, int(rng.integers(4, 10)), int(rng.integers(3, 8)), rng, gamma=1.0
        )
        variant = BOUND_ETA_VARIANTS[i % len(BOUND_ETA_VARIANTS)]
        provider = _bound_provider(variant, spec, rng)
        n = int(config.n_grid[i % len(config.n_grid)])
        m = int(config.m_grid[i % len(config.m_grid)])
        report = verify_prop1(
            spec,
            params,
            provider,
            n=n,
            m=m,
            rng=stream(config.seed, 6, i),
            trials=config.trials,
            max_trials=config.max_trials,
            constants=config.constants,
        )
        row = asdict(report)
        row.update({"config_index": i, "eta_variant": variant,
                    "classes": spec.num_classes, "points": spec.conditionals.num_points})
        reports.append(row)
    return reports
