"""Optimization loop producing encoders under any objective configuration.

Every batch is freshly simulated: anchors and positives are independent
same-class draws (unimodal) or a report/feature pair (cross-modal), and each
anchor's negatives are the other positives in the batch.  Runs are
bit-reproducible given the seed: every epoch/batch owns a counter-based
stream derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import encoder as enc
from . import mixture as mix
from . import textsim
from .eta import EtaConfig, eta_for_batch, make_provider
from .objectives import NegativeHandling, in_batch_loss
from .rngstream import stream


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "dcl"  # cl | dcl
    eta: EtaConfig = field(default_factory=EtaConfig)
    handling: NegativeHandling = field(default_factory=NegativeHandling)
    mode: str = "unimodal"  # unimodal | cross_modal
    positive_mode: str = "redraw"  # redraw | view
    view_noise: float = 0.05
    batch_size: int = 128
    n_negatives: Optional[int] = None  # cap on the in-batch pool; default batch_size - 1
    m_positives: int = 1
    hidden_dim: int = 64
    embed_dim: int = 32
    gamma: float = math.sqrt(2.0)
    gamma_trainable: bool = False
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    epochs: int = 50
    samples_per_epoch: int = 2048
    optimizer: str = "adam"  # adam | sgd
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    cosine_schedule: bool = False
    seed: int = 0
    lm_corpus_size: int = 2000
    lm_alpha: float = 1.0

    def __post_init__(self):
        if self.objective not in ("cl", "dcl"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.mode not in ("unimodal", "cross_modal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.positive_mode not in ("redraw", "view"):
            raise ValueError(f"unknown positive_mode {self.positive_mode!r}")
        if self.positive_mode == "view" and self.mode == "cross_modal":
            raise ValueError("view positives only apply to unimodal feature pairs")
        if self.view_noise < 0:
            raise ValueError("view_noise must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (in-batch negatives)")
        if self.n_negatives is not None and not 1 <= self.n_negatives <= self.batch_size - 1:
            raise ValueError("n_negatives must lie in [1, batch_size - 1]")
        pool = self.n_negatives or self.batch_size - 1
        if self.handling.kind == "resample_by_sim" and self.handling.keep_count > pool:
            raise ValueError(f"keep_count {self.handling.keep_count} exceeds the {pool}-negative pool")
        if self.m_positives != 1:
            raise ValueError("training reuses the positive as the single same-class sample")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


# one training step; fallback_count is the number of anchors whose handled
# negative set came out empty
TRACE_DTYPE = np.dtype([
    ("step", np.int64),
    ("loss", np.float64),
    ("clamp_fraction", np.float64),
    ("mean_eta", np.float64),
    ("fallback_count", np.int64),
])


@dataclass
class TrainResult:
    params: enc.EncoderParams
    trace: np.recarray  # one TRACE_DTYPE record per step: trace[-1].loss, trace.loss
    lm: Optional[textsim.NGramLM] = None
    pll_table: Optional[dict] = None

    def trace_array(self) -> np.ndarray:
        """The trace as a float matrix, one column per TRACE_DTYPE field."""
        return np.column_stack([self.trace[name] for name in TRACE_DTYPE.names])


class _Adam:
    def __init__(self, config: TrainConfig):
        self.cfg = config
        self.m: dict[str, np.ndarray | float] = {}
        self.v: dict[str, np.ndarray | float] = {}
        self.t = 0

    def update(self, params: enc.EncoderParams, grads: enc.EncoderGrads, lr: float) -> None:
        cfg = self.cfg
        self.t += 1
        names = params.array_fields()
        for name in names:
            g = getattr(grads, name)
            p = getattr(params, name)
            if cfg.optimizer == "adam":
                m = self.m.get(name, np.zeros_like(p))
                v = self.v.get(name, np.zeros_like(p))
                m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
                v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
                self.m[name], self.v[name] = m, v
                mhat = m / (1 - cfg.adam_beta1**self.t)
                vhat = v / (1 - cfg.adam_beta2**self.t)
                p -= lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            else:
                p -= lr * g
            p -= lr * cfg.weight_decay * p
        if params.gamma_trainable:
            g = grads.gamma
            if cfg.optimizer == "adam":
                m = cfg.adam_beta1 * self.m.get("gamma", 0.0) + (1 - cfg.adam_beta1) * g
                v = cfg.adam_beta2 * self.v.get("gamma", 0.0) + (1 - cfg.adam_beta2) * g * g
                self.m["gamma"], self.v["gamma"] = m, v
                mhat = m / (1 - cfg.adam_beta1**self.t)
                vhat = v / (1 - cfg.adam_beta2**self.t)
                params.gamma -= lr * mhat / (math.sqrt(vhat) + cfg.adam_eps)
            else:
                params.gamma -= lr * g
            params.gamma -= lr * cfg.weight_decay * params.gamma


def build_lm_assets(spec: mix.MixtureSpec, config: TrainConfig):
    """Corpus, fitted bigram model, and precomputed PLL table for eta_LM."""
    rng = stream(config.seed, 10)
    corpus = []
    for _ in range(config.lm_corpus_size):
        c = mix.sample_class(spec.class_dist, rng)
        corpus.append(textsim.generate_report(spec, c, rng))
    lm = textsim.fit_ngram(corpus, config.lm_alpha, spec.vocab_size)
    table = textsim.pll_table(lm, corpus)
    return lm, table


def sample_training_batch(
    spec: mix.MixtureSpec, config: TrainConfig, rng: np.random.Generator,
    with_tokens: bool = False,
):
    """Classes, anchor inputs, and positive features for one batch.

    Positives are independent same-class redraws by default; ``view`` mode
    instead emits two jittered views of one underlying draw, the augmentation
    analog where the pair carries no class information beyond the instance.
    Anchor tokens are generated in cross-modal mode (they are the anchor
    input) and whenever the eta strategy scores text.
    """
    classes = mix.sample_class_array(spec.class_dist, config.batch_size, rng)
    anchors = None
    anchor_tokens = None
    if config.mode == "unimodal":
        if config.positive_mode == "view":
            base, _ = mix.sample_features_for_classes(spec, classes, rng)
            anchors = base + config.view_noise * rng.standard_normal(base.shape)
            positives = base + config.view_noise * rng.standard_normal(base.shape)
        else:
            anchors, _ = mix.sample_features_for_classes(spec, classes, rng)
            positives, _ = mix.sample_features_for_classes(spec, classes, rng)
        if with_tokens:
            anchor_tokens = [textsim.generate_report(spec, int(c), rng) for c in classes]
    else:
        anchor_tokens = [textsim.generate_report(spec, int(c), rng) for c in classes]
        positives, _ = mix.sample_features_for_classes(spec, classes, rng)
    return classes, anchors, anchor_tokens, positives


def train(
    spec: mix.MixtureSpec,
    config: TrainConfig,
    lm_assets: Optional[tuple] = None,
) -> TrainResult:
    """Run the configured number of epochs over freshly simulated batches."""
    if config.mode == "cross_modal" and spec.vocab_size < 1:
        raise ValueError("cross-modal training needs a vocabulary")

    lm = table = None
    if config.eta.kind == "lm_log_linear" and config.objective == "dcl":
        lm, table = lm_assets if lm_assets is not None else build_lm_assets(spec, config)
    provider = None
    if config.objective == "dcl":
        provider = make_provider(config.eta, spec=spec, lm=lm, pll_table=table)

    init_rng = stream(config.seed, 0)
    params = enc.init_params(
        input_dim=spec.dim,
        hidden_dim=config.hidden_dim,
        embed_dim=config.embed_dim,
        rng=init_rng,
        gamma=config.gamma,
        gamma_trainable=config.gamma_trainable,
        vocab_size=spec.vocab_size if config.mode == "cross_modal" else None,
    )
    optimizer = _Adam(config)
    batches_per_epoch = max(1, config.samples_per_epoch // config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    needs_tokens = config.objective == "dcl" and config.eta.kind == "lm_log_linear"
    trace = np.recarray(total_steps, dtype=TRACE_DTYPE)
    step = 0
    for epoch in range(config.epochs):
        for batch in range(batches_per_epoch):
            rng = stream(config.seed, 1, epoch, batch)
            classes, anchors, anchor_tokens, positives = sample_training_batch(
                spec, config, rng, with_tokens=needs_tokens
            )
            if config.mode == "unimodal":
                a_emb, a_cache = enc.forward_features(params, anchors)
            else:
                a_emb, a_cache = enc.forward_tokens(params, anchor_tokens)
            p_emb, p_cache = enc.forward_features(params, positives)

            etas = None
            if config.objective == "dcl":
                etas = eta_for_batch(provider, classes=classes, token_seqs=anchor_tokens)

            result = in_batch_loss(
                a_emb,
                p_emb,
                objective=config.objective,
                gamma=params.gamma,
                etas=etas,
                handling=config.handling,
                classes=classes,
                max_negatives=config.n_negatives,
            )
            if not math.isfinite(result.loss):
                raise RuntimeError(
                    f"non-finite loss at step {step} (epoch {epoch}, batch {batch}, "
                    f"batch seed path ({config.seed}, 1, {epoch}, {batch}))"
                )
            grads = enc.backward(params, a_cache, result.d_anchor)
            grads.add_(enc.backward(params, p_cache, result.d_positive))
            grads.gamma += result.d_gamma

            lr = config.learning_rate
            if config.cosine_schedule:
                lr = lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))
            optimizer.update(params, grads, lr)
            trace[step] = (step, result.loss, result.clamp_fraction, result.mean_eta,
                           result.fallback_count)
            step += 1
    return TrainResult(params=params, trace=trace, lm=lm, pll_table=table)
