"""Optimization loop producing encoders under any objective configuration.

Every batch is freshly simulated: anchors and positives are independent
same-class draws (``redraw``), two jittered views of one draw (``view``) or
a report/feature pair (``cross_modal``), and each anchor's negatives are the
other positives in the batch.  A config with an eta trains the debiased
objective; ``eta=None`` trains plain contrastive, its eta = 0 reduction.
Runs are bit-reproducible given the seed: every epoch/batch owns a
counter-based stream derived from it.
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
from .fields import check_fields
from .objectives import NegativeHandling, in_batch_loss
from .rngstream import stream

# every study trains with Adam plus decoupled weight decay at these constants
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WEIGHT_DECAY = 1e-6
LM_ALPHA = 1.0  # add-alpha smoothing of the eta_LM bigram model


@dataclass(frozen=True)
class TrainConfig:
    eta: Optional[EtaConfig] = field(default_factory=EtaConfig)  # None: plain contrastive
    handling: NegativeHandling = field(default_factory=NegativeHandling)
    mode: str = "redraw"  # redraw | view | cross_modal
    view_noise: float = 0.05
    batch_size: int = 128
    n_negatives: Optional[int] = None  # cap on the in-batch pool; default batch_size - 1
    hidden_dim: int = 64
    embed_dim: int = 32
    gamma: float = math.sqrt(2.0)
    gamma_trainable: bool = False
    learning_rate: float = 1e-3
    epochs: int = 50
    samples_per_epoch: int = 2048
    seed: int = 0
    lm_corpus_size: int = 2000

    def __post_init__(self):
        check_fields(self)
        if self.mode not in ("redraw", "view", "cross_modal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.view_noise < 0:
            raise ValueError("view_noise must be nonnegative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (in-batch negatives)")
        if self.n_negatives is not None and not 1 <= self.n_negatives <= self.batch_size - 1:
            raise ValueError("n_negatives must lie in [1, batch_size - 1]")
        pool = self.n_negatives or self.batch_size - 1
        if self.handling.kind == "resample_by_sim" and self.handling.keep_count > pool:
            raise ValueError(f"keep_count {self.handling.keep_count} exceeds the {pool}-negative pool")
        for name in ("epochs", "hidden_dim", "embed_dim", "lm_corpus_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and nonnegative")


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

    def trace_array(self) -> np.ndarray:
        """The trace as a float matrix, one column per TRACE_DTYPE field."""
        return np.column_stack([self.trace[name] for name in TRACE_DTYPE.names])


class _Adam:
    """Adam plus decoupled weight decay over one flat vector that holds every
    parameter array: binding to ``params`` makes each of its arrays a view of
    the vector, and ``update`` reads ``encoder.backward``'s vector in that
    layout.  Gamma is last, so it moves only when ``train_gamma`` is set."""

    def __init__(self, params: enc.EncoderParams, train_gamma: bool):
        self.flat = enc.params_to_flat(params)
        for name, view in enc.split_flat(self.flat, params.array_shapes()).items():
            setattr(params, name, view)
        self.size = self.flat.size - (0 if train_gamma else 1)
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)
        self.t = 0

    def update(self, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        g, m, v, p = grads[: self.size], self.m, self.v, self.flat[: self.size]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1**self.t)
        vhat = v / (1 - ADAM_BETA2**self.t)
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        p -= lr * WEIGHT_DECAY * p


def build_lm_assets(spec: mix.MixtureSpec, config: TrainConfig) -> textsim.NGramLM:
    """The bigram model behind eta_LM, fit to a corpus of simulated reports."""
    ids, mask = mix.sample_marginal_reports(spec, config.lm_corpus_size, stream(config.seed, 10))
    return textsim.fit_ngram(ids, mask, LM_ALPHA, spec.vocab_size)


def sample_training_batch(
    spec: mix.MixtureSpec, config: TrainConfig, rng: np.random.Generator,
    with_tokens: bool = False,
):
    """Classes, anchor inputs, and positive features for one batch.

    Positives are independent same-class redraws in ``redraw`` mode;
    ``view`` mode instead emits two jittered views of one underlying draw,
    the augmentation analog where the pair carries no class information
    beyond the instance.  Anchor tokens, a padded ``(ids, mask)`` batch, are
    generated in ``cross_modal`` mode (they are the anchor input) and
    whenever the eta strategy scores text.
    """
    classes = mix.sample_class_array(spec.class_dist, config.batch_size, rng)
    anchors = anchor_tokens = None
    if config.mode == "view":
        base, _ = mix.sample_features_for_classes(spec, classes, rng)
        anchors = base + config.view_noise * rng.standard_normal(base.shape)
        positives = base + config.view_noise * rng.standard_normal(base.shape)
    elif config.mode == "redraw":
        anchors, _ = mix.sample_features_for_classes(spec, classes, rng)
        positives, _ = mix.sample_features_for_classes(spec, classes, rng)
    else:
        anchor_tokens = mix.sample_reports(spec, classes, rng)
        positives, _ = mix.sample_features_for_classes(spec, classes, rng)
    if with_tokens and anchor_tokens is None:
        anchor_tokens = mix.sample_reports(spec, classes, rng)
    return classes, anchors, anchor_tokens, positives


def train(
    spec: mix.MixtureSpec,
    config: TrainConfig,
    lm: Optional[textsim.NGramLM] = None,
) -> TrainResult:
    """Run the configured number of epochs over freshly simulated batches;
    eta_LM fits its bigram model here unless ``lm`` is given."""
    if config.mode == "cross_modal" and spec.vocab_size < 1:
        raise ValueError("cross-modal training needs a vocabulary")

    needs_tokens = config.eta is not None and config.eta.kind == "lm_log_linear"
    if needs_tokens and lm is None:
        lm = build_lm_assets(spec, config)
    provider = None if config.eta is None else make_provider(config.eta, spec=spec, lm=lm)

    init_rng = stream(config.seed, 0)
    params = enc.init_params(
        input_dim=spec.dim,
        hidden_dim=config.hidden_dim,
        embed_dim=config.embed_dim,
        rng=init_rng,
        gamma=config.gamma,
        vocab_size=spec.vocab_size if config.mode == "cross_modal" else None,
    )
    optimizer = _Adam(params, config.gamma_trainable)
    batches_per_epoch = max(1, config.samples_per_epoch // config.batch_size)
    total_steps = config.epochs * batches_per_epoch
    trace = np.recarray(total_steps, dtype=TRACE_DTYPE)
    step = 0
    for epoch in range(config.epochs):
        for batch in range(batches_per_epoch):
            rng = stream(config.seed, 1, epoch, batch)
            classes, anchors, anchor_tokens, positives = sample_training_batch(
                spec, config, rng, with_tokens=needs_tokens
            )
            if config.mode == "cross_modal":
                a_emb, a_cache = enc.forward_tokens(params, *anchor_tokens)
            else:
                a_emb, a_cache = enc.forward_features(params, anchors)
            p_emb, p_cache = enc.forward_features(params, positives)

            etas = None
            if provider is not None:
                etas = eta_for_batch(provider, classes=classes, tokens=anchor_tokens)

            result = in_batch_loss(
                a_emb,
                p_emb,
                objective="cl" if provider is None else "dcl",
                gamma=float(params.gamma),
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
            grads += enc.backward(params, p_cache, result.d_positive)
            grads[-1] += result.d_gamma  # gamma is last

            optimizer.update(grads, config.learning_rate)
            trace[step] = (step, result.loss, result.clamp_fraction, result.mean_eta,
                           result.fallback_count)
            step += 1
    return TrainResult(params=params, trace=trace)
