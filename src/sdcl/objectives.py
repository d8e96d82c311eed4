"""Contrastive loss variants and false-negative handling strategies.

The vanilla loss contrasts one positive score against N negative scores:

    -log[ e^{s+} / (e^{s+} + sum_n e^{s_n}) ].

The debiased variant replaces the plain negative sum with N * g, where g
estimates the clean-negative expectation from N marginal scores and M
same-class scores:

    g0 = (1/(1-eta)) * mean_n e^{s_n}  -  (eta/(1-eta)) * mean_m e^{t_m},
    g  = max(g0, e^{-gamma^2}),

with eta the (possibly sample-specific) class-probability estimate.  The
clamp floor is the theoretical minimum of the estimated expectation; the
subgradient through an active clamp is taken from the constant side, so
scores get zero gradient there while the floor's own gamma dependence is
kept.

``in_batch_loss`` assembles either objective over a batch with in-batch
negatives (every other positive in the batch) as one B x B computation:
every negative-handling rule becomes a weight matrix from
``negative_weights``.  It returns exact gradients with respect to all
embeddings, including through similarity-derived reweighting factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SCORE_SLACK = 1e-9


@dataclass(frozen=True)
class EstimatorInputs:
    """Scores and parameters feeding one estimator/loss evaluation."""

    pos_score: float
    neg_scores: np.ndarray
    pos_set_scores: np.ndarray
    eta: float
    gamma: float

    def __post_init__(self):
        neg = np.asarray(self.neg_scores, dtype=np.float64)
        pos_set = np.asarray(self.pos_set_scores, dtype=np.float64)
        if neg.ndim != 1 or neg.size < 1:
            raise ValueError("need at least one negative score")
        if pos_set.ndim != 1 or pos_set.size < 1:
            raise ValueError("need at least one positive-set score")
        bound = self.gamma**2 + SCORE_SLACK
        all_scores = np.concatenate([neg, pos_set, [self.pos_score]])
        if np.any(np.abs(all_scores) > bound):
            raise ValueError("scores exceed the gamma^2 bound")
        object.__setattr__(self, "neg_scores", neg)
        object.__setattr__(self, "pos_set_scores", pos_set)


@dataclass(frozen=True)
class NegativeHandling:
    """Tagged strategy for filtering or reweighting the negative set."""

    kind: str = "none"  # none | remove_by_sim | reweight_by_sim | resample_by_sim | remove_by_label
    threshold: float = np.inf
    temperature: float = 1.0
    keep_count: int = 1

    def __post_init__(self):
        kinds = {"none", "remove_by_sim", "reweight_by_sim", "resample_by_sim", "remove_by_label"}
        if self.kind not in kinds:
            raise ValueError(f"unknown negative handling kind {self.kind!r}")
        if self.kind == "remove_by_sim" and not np.isfinite(self.threshold):
            if self.threshold != np.inf:
                raise ValueError("threshold must be finite or +inf (identity)")
        if self.kind == "reweight_by_sim" and self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.keep_count < 1:
            raise ValueError("keep_count must be >= 1")


def contrastive_loss(pos_score: float, neg_scores: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> float:
    """Vanilla contrastive loss; ``weights`` cover the reweighting baseline."""
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if neg_scores.size < 1:
        raise ValueError("need at least one negative score")
    expn = np.exp(neg_scores)
    z = float(np.sum(expn if weights is None else np.asarray(weights) * expn))
    return float(np.log(np.exp(pos_score) + z) - pos_score)


def g_estimate(inputs: EstimatorInputs) -> float:
    """Clean-negative expectation estimate, clamped at its minimum e^{-gamma^2}."""
    eta = inputs.eta
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    g0 = (np.mean(np.exp(inputs.neg_scores)) - eta * np.mean(np.exp(inputs.pos_set_scores))) / (
        1.0 - eta
    )
    return float(max(g0, np.exp(-inputs.gamma**2)))


def g_estimate_many(
    neg_scores: np.ndarray,
    pos_set_scores: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray | float,
) -> np.ndarray:
    """Vectorized ``g_estimate`` over rows; used by the bound verifier and fuzz tests."""
    eta = np.asarray(eta, dtype=np.float64)
    if np.any(eta < 0.0) or np.any(eta >= 1.0):
        raise ValueError("eta must lie in [0, 1)")
    mean_neg = np.exp(np.asarray(neg_scores, dtype=np.float64)).mean(axis=-1)
    mean_pos = np.exp(np.asarray(pos_set_scores, dtype=np.float64)).mean(axis=-1)
    g0 = (mean_neg - eta * mean_pos) / (1.0 - eta)
    return np.maximum(g0, np.exp(-np.asarray(gamma, dtype=np.float64) ** 2))


def debiased_loss(inputs: EstimatorInputs) -> float:
    """Debiased loss -log[e^{s+} / (e^{s+} + N*g)].

    N*g0 is assembled from sums rather than means so that eta = 0 with an
    inactive clamp reproduces ``contrastive_loss`` bitwise.
    """
    eta = inputs.eta
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must lie in [0, 1), got {eta}")
    n = inputs.neg_scores.size
    m = inputs.pos_set_scores.size
    sum_neg = float(np.sum(np.exp(inputs.neg_scores)))
    sum_pos = float(np.sum(np.exp(inputs.pos_set_scores)))
    n_g0 = sum_neg / (1.0 - eta) - (eta / (1.0 - eta)) * (n / m) * sum_pos
    n_g = max(n_g0, n * np.exp(-inputs.gamma**2))
    return float(np.log(np.exp(inputs.pos_score) + n_g) - inputs.pos_score)


def asymptotic_loss(
    spec,
    params,
    n_negatives: int,
    mc_pairs: Optional[int] = None,
    mc_negatives: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Debiased loss in the infinite-sample limit: the denominator uses the
    exact clean-negative expectation E_{x- ~ E_c}[e^{s(x, x-)}].

    Discrete specs are enumerated exactly; continuous specs need Monte Carlo
    sizes (mc_pairs outer pairs, mc_negatives inner draws per pair).
    """
    from . import encoder as enc
    from . import mixture as mix

    if spec.num_classes < 2:
        raise ValueError("asymptotic loss needs >= 2 classes (E_c undefined otherwise)")
    if n_negatives < 1:
        raise ValueError("n_negatives must be >= 1")
    if spec.mode == "discrete":
        cond = spec.conditionals
        emb, _ = enc.forward_features(params, cond.points)
        scores = emb @ emb.T
        return float(asymptotic_loss_from_scores(scores, spec.class_dist.probs, cond.pmfs, n_negatives))
    if mc_pairs is None or mc_negatives is None or rng is None:
        raise ValueError("continuous mode needs mc_pairs, mc_negatives, and rng")
    total = 0.0
    for _ in range(mc_pairs):
        c = mix.sample_class(spec.class_dist, rng)
        x = mix.sample_conditional(spec, c, rng, with_tokens=False)
        x_pos = mix.sample_conditional(spec, c, rng, with_tokens=False)
        e_x = enc.encode(params, x)
        e_pos = enc.encode(params, x_pos)
        negs = [mix.sample_true_negative(spec, c, rng, with_tokens=False) for _ in range(mc_negatives)]
        e_negs, _ = enc.forward_features(params, np.stack([p.features for p in negs]))
        inner = float(np.mean(np.exp(e_negs @ e_x)))
        s = float(e_x @ e_pos)
        total += np.log(np.exp(s) + n_negatives * inner) - s
    return total / mc_pairs


def asymptotic_loss_from_scores(
    scores: np.ndarray, class_probs: np.ndarray, pmfs: np.ndarray, n_negatives: int
) -> float:
    """Exact enumeration of the asymptotic loss given a point score matrix."""
    exp_scores = np.exp(scores)
    total = 0.0
    for c, rho_c in enumerate(class_probs):
        neg_prior = class_probs.copy()
        neg_prior[c] = 0.0
        neg_prior /= 1.0 - rho_c
        neg_pmf = neg_prior @ pmfs
        inner = exp_scores @ neg_pmf  # per anchor point i
        loss_ij = np.log(exp_scores + n_negatives * inner[:, None]) - scores
        total += rho_c * float(pmfs[c] @ loss_ij @ pmfs[c])
    return total


def negative_weights(
    handling: NegativeHandling,
    pos_embs: np.ndarray,
    classes: Optional[np.ndarray] = None,
    max_negatives: Optional[int] = None,
) -> tuple[Optional[np.ndarray], int]:
    """Weight matrix W over every anchor's in-batch candidates, and the number
    of rows that fell back to a single negative.

    Row i's pool is every j != i, or with ``max_negatives`` = k the first k
    of them (j < k + (j > i)).  Similarity-based rules compare each negative
    P_j with the positive P_i.  A removal rule that empties a row keeps only
    the row's least similar pool entry.  The diagonal (the positive) carries
    weight 1.  ``None`` stands for unit weights on the full pool.
    """
    if handling.kind == "none" and max_negatives is None:
        return None, 0
    b = pos_embs.shape[0]
    col = np.arange(b)
    pool = col[None, :] != col[:, None]
    if max_negatives is not None:
        pool &= col[None, :] < max_negatives + (col[None, :] > col[:, None])
    n_pool = b - 1 if max_negatives is None else max_negatives
    sims = pos_embs @ pos_embs.T
    if handling.kind == "reweight_by_sim":
        # n_pool * softmax(-sims / T) over each row's pool
        weights = np.where(pool, -sims / handling.temperature, -np.inf)
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        weights *= n_pool
        np.fill_diagonal(weights, 1.0)
        return weights, 0
    pool_sims = np.where(pool, sims, np.inf)
    if handling.kind == "remove_by_sim":
        keep = pool & (sims <= handling.threshold)
    elif handling.kind == "remove_by_label":
        if classes is None:
            raise ValueError("remove_by_label needs latent classes")
        classes = np.asarray(classes)
        keep = pool & (classes[None, :] != classes[:, None])
    elif handling.kind == "resample_by_sim":
        if not 1 <= handling.keep_count <= n_pool:
            raise ValueError("keep_count must lie in [1, N]")
        lowest = np.argsort(pool_sims, axis=1, kind="stable")[:, : handling.keep_count]
        keep = np.zeros_like(pool)
        np.put_along_axis(keep, lowest, True, axis=1)
    else:  # "none" under a negative cap
        keep = pool
    empty = np.flatnonzero(~keep.any(axis=1))
    keep[empty, np.argmin(pool_sims[empty], axis=1)] = True
    weights = keep.astype(np.float64)
    np.fill_diagonal(weights, 1.0)
    return weights, int(empty.size)


# ---------------------------------------------------------------------------
# Batch objective with exact embedding gradients
# ---------------------------------------------------------------------------


@dataclass
class BatchLossResult:
    loss: float
    d_anchor: np.ndarray
    d_positive: np.ndarray
    d_gamma: float          # clamp-floor term only; embedding-path gamma grads come from the encoder
    clamp_fraction: float
    fallback_count: int
    mean_eta: float


def in_batch_loss(
    anchor_embs: np.ndarray,
    pos_embs: np.ndarray,
    *,
    objective: str,
    gamma: float,
    etas: Optional[np.ndarray] = None,
    handling: Optional[NegativeHandling] = None,
    classes: Optional[np.ndarray] = None,
    max_negatives: Optional[int] = None,
) -> BatchLossResult:
    """Mean loss over a batch where anchor i's negatives are the other
    positives {P_j : j != i}, with exact gradients w.r.t. all embeddings.

    For the debiased objective the positive itself serves as the single
    same-class sample (M = 1).  ``max_negatives`` caps each anchor's negative
    pool at its first entries (batch order is already random).  Negative
    handling enters as the weight matrix W of ``negative_weights``: row i's
    weighted negative sum is (W * E).sum(1) - e^{s_ii} with E = exp(A P^T),
    and its negative count is W.sum(1) - 1.  Reductions run in batch order so
    results are reproducible.
    """
    if objective not in ("cl", "dcl"):
        raise ValueError(f"unknown objective {objective!r}")
    a = np.asarray(anchor_embs, dtype=np.float64)
    p = np.asarray(pos_embs, dtype=np.float64)
    b = a.shape[0]
    if b < 2:
        raise ValueError("need batch size >= 2 for in-batch negatives")
    if max_negatives is not None and not 1 <= max_negatives <= b - 1:
        raise ValueError("max_negatives must lie in [1, batch_size - 1]")
    if objective == "dcl":
        if etas is None:
            raise ValueError("dcl objective needs per-sample eta values")
        etas = np.asarray(etas, dtype=np.float64)
        if np.any(etas < 0.0) or np.any(etas >= 1.0):
            raise ValueError("eta values must lie in [0, 1)")
    handling = handling or NegativeHandling()
    weights, fallbacks = negative_weights(handling, p, classes, max_negatives)
    reweight = handling.kind == "reweight_by_sim"
    floor = np.exp(-(gamma**2))

    scores = a @ p.T
    exp_scores = np.exp(scores)
    diag = np.arange(b)
    exp_pos = exp_scores[diag, diag]
    if weights is None:
        n = b - 1
        w_exp = exp_scores
    else:
        n = weights.sum(axis=1) - 1.0
        # the reweighting gradient rereads E; the other rules weight it in place
        w_exp = weights * exp_scores if reweight else np.multiply(exp_scores, weights, out=exp_scores)
    z_sum = w_exp.sum(axis=1) - exp_pos

    dl_dscores = w_exp  # computed in place: W * E is not read again
    if objective == "cl":
        denom = exp_pos + z_sum
        dl_dscores /= denom[:, None]
        dl_dscores[diag, diag] = exp_pos / denom - 1.0
        d_gamma = 0.0
        clamp_fraction = 0.0
    else:
        coef = 1.0 / (1.0 - etas)
        z0 = coef * z_sum - (etas * coef) * n * exp_pos
        z_floor = n * floor
        clamped = z0 < z_floor
        z = np.where(clamped, z_floor, z0)
        denom = exp_pos + z
        dl_dscores *= coef[:, None]
        dl_dscores /= denom[:, None]
        dl_dscores[clamped] = 0.0
        dz_da = np.where(clamped, 0.0, -(etas * coef) * n * exp_pos)
        dl_dscores[diag, diag] = (exp_pos + dz_da) / denom - 1.0
        d_gamma = float(np.sum(np.where(clamped, -2.0 * gamma * floor * n / denom, 0.0))) / b
        clamp_fraction = float(np.mean(clamped))
    loss = float(np.mean(np.log(denom) - scores[diag, diag]))

    d_a = dl_dscores @ p / b
    d_p = dl_dscores.T @ a
    if reweight:
        # W = n_pool * softmax(-sims / T) on each pool row, sims = P P^T:
        # backpropagate dL/dW through the softmax into both P_i and P_j.
        # One buffer (E's) holds dz/dW, then dL/dW, then dL/dsims.
        dsims = exp_scores
        if objective == "dcl":
            dsims *= coef[:, None]
            dsims -= (etas * coef * exp_pos)[:, None]
            dsims[clamped] = floor
        dsims /= denom[:, None]
        np.fill_diagonal(weights, 0.0)
        dsims -= ((weights * dsims).sum(axis=1) / n)[:, None]
        dsims *= weights
        dsims /= -handling.temperature
        d_p += dsims @ p
        d_p += dsims.T @ p
    d_p /= b
    return BatchLossResult(
        loss=loss,
        d_anchor=d_a,
        d_positive=d_p,
        d_gamma=d_gamma,
        clamp_fraction=clamp_fraction,
        fallback_count=fallbacks,
        mean_eta=float(np.mean(etas)) if objective == "dcl" else 0.0,
    )
