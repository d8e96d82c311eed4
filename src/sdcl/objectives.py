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
kept.  ``debiased_negatives`` is the one place N * g is assembled: training,
``bounds.empirical_gap`` and the gate's views (``debiased_loss``,
``g_estimate``, ``g_estimate_many``) call it; ``contrastive_loss``, the
reference of the eta = 0 reduction, does not.

``in_batch_loss`` runs both objectives through that kernel over a batch with
in-batch negatives (every other positive in the batch) as one B x B
computation: plain contrastive is eta = 0, whose clamp binds only on exactly
antipodal embeddings, and every negative-handling rule is a weight matrix
from ``negative_weights``.  Gradients are exact w.r.t. all embeddings,
through similarity-derived reweighting factors too.

The B x B intermediates live in reused per-batch-size buffers
(``_workspace``), which assume one thread per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import encoder as enc
from .fields import check_fields

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
        check_fields(self)
        kinds = {"none", "remove_by_sim", "reweight_by_sim", "resample_by_sim", "remove_by_label"}
        if self.kind not in kinds:
            raise ValueError(f"unknown negative handling kind {self.kind!r}")
        if self.kind == "remove_by_sim" and not np.isfinite(self.threshold):
            if self.threshold != np.inf:
                raise ValueError("threshold must be finite or +inf (identity)")
        if not self.temperature > 0:  # NaN fails too
            raise ValueError(f"temperature must be a positive number, got {self.temperature!r}")
        if self.keep_count < 1:
            raise ValueError(f"keep_count must be an integer >= 1, got {self.keep_count!r}")


NO_HANDLING = NegativeHandling()


def contrastive_loss(pos_score: float, neg_scores: np.ndarray) -> float:
    """Vanilla contrastive loss."""
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if neg_scores.size < 1:
        raise ValueError("need at least one negative score")
    expn = np.exp(neg_scores)
    z = float(np.sum(expn))
    return float(np.log(np.exp(pos_score) + z) - pos_score)


def debiased_negatives(z_sum, n, pos_sum, m, eta, floor):
    """``(z0, z, clamped)``, elementwise, from e^s summed over n negatives and
    m same-class samples: N * g0 = (z_sum - eta (n/m) pos_sum) / (1 - eta),
    N * g (z0 clamped at ``n * floor``, else z0 bit for bit) and the clamp
    mask.  Raises ValueError for eta outside [0, 1)."""
    if not np.all((eta >= 0.0) & (eta < 1.0)):  # nan fails too
        raise ValueError("eta must lie in [0, 1)")
    coef = 1.0 / (1.0 - eta)
    z0 = coef * z_sum - (eta * coef) * n * (pos_sum / m)
    clamped = z0 < n * floor
    return z0, np.where(clamped, n * floor, z0), clamped


def g_estimate(inputs: EstimatorInputs) -> float:
    """Clean-negative expectation estimate, clamped at its minimum e^{-gamma^2}."""
    return float(g_estimate_many(
        inputs.neg_scores[None], inputs.pos_set_scores[None], inputs.eta, inputs.gamma
    )[0])


def g_estimate_many(
    neg_scores: np.ndarray,
    pos_set_scores: np.ndarray,
    eta: np.ndarray,
    gamma: np.ndarray | float,
) -> np.ndarray:
    """Vectorized ``g_estimate`` over rows: the kernel's N = 1 term on the
    mean negative, so the clamp compares g itself with e^{-gamma^2}."""
    exp_pos = np.exp(np.asarray(pos_set_scores, dtype=np.float64))
    mean_neg = np.exp(np.asarray(neg_scores, dtype=np.float64)).mean(axis=-1)
    floor = np.exp(-np.asarray(gamma, dtype=np.float64) ** 2)
    return debiased_negatives(mean_neg, 1, exp_pos.sum(axis=-1), exp_pos.shape[-1],
                              np.asarray(eta, dtype=np.float64), floor)[1]


def debiased_loss(inputs: EstimatorInputs) -> float:
    """Debiased loss -log[e^{s+} / (e^{s+} + N*g)].

    N*g is assembled from sums rather than means so that eta = 0 with an
    inactive clamp reproduces ``contrastive_loss`` bitwise.
    """
    exp_neg, exp_pos = np.exp(inputs.neg_scores), np.exp(inputs.pos_set_scores)
    n_g = debiased_negatives(float(np.sum(exp_neg)), exp_neg.size, float(np.sum(exp_pos)),
                             exp_pos.size, inputs.eta, np.exp(-inputs.gamma**2))[1]
    return float(np.log(np.exp(inputs.pos_score) + n_g) - inputs.pos_score)


def asymptotic_loss(spec, params, n_negatives: int) -> float:
    """Debiased loss in the infinite-sample limit: the denominator uses the
    exact clean-negative expectation E_{x- ~ E_c}[e^{s(x, x-)}], enumerated
    over the point alphabet of a discrete spec."""
    if spec.mode != "discrete":
        raise ValueError("asymptotic loss enumerates discrete specs only")
    if spec.num_classes < 2:
        raise ValueError("asymptotic loss needs >= 2 classes (E_c undefined otherwise)")
    if n_negatives < 1:
        raise ValueError("n_negatives must be >= 1")
    cond = spec.conditionals
    emb = enc.embed_features(params, cond.points)
    scores = emb @ emb.T
    return float(asymptotic_loss_from_scores(scores, spec.class_dist.probs, cond.pmfs, n_negatives))


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


@functools.lru_cache(maxsize=8)
def _pool_masks(b: int, max_negatives: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row i's candidate pool, every j != i or with ``max_negatives`` = k the
    first k of them (j < k + (j > i)), and its complement; read-only."""
    col = np.arange(b)
    pool = col[None, :] != col[:, None]
    if max_negatives is not None:
        pool &= col[None, :] < max_negatives + (col[None, :] > col[:, None])
    outside = ~pool
    pool.flags.writeable = outside.flags.writeable = False
    return pool, outside


@functools.lru_cache(maxsize=4)
def _workspace(b: int) -> np.ndarray:
    """Three reused (b, b) buffers.  ``negative_weights`` keeps P P^T in slot
    0 and a rule's scratch in slot 1; ``in_batch_loss`` then reuses slot 0 for
    the scores and E, slot 1 for W * E, and passes slot 2 as W."""
    return np.empty((3, b, b))


def negative_weights(
    handling: NegativeHandling,
    pos_embs: np.ndarray,
    classes: Optional[np.ndarray] = None,
    max_negatives: Optional[int] = None,
    *,
    out: Optional[np.ndarray] = None,
) -> tuple[Optional[np.ndarray], int]:
    """Weight matrix W over every anchor's in-batch candidates, and the number
    of rows that fell back to a single negative.

    Row i's pool is every j != i, or with ``max_negatives`` = k the first k
    of them (j < k + (j > i)).  Similarity-based rules compare each negative
    P_j with the positive P_i.  A removal rule that empties a row keeps only
    the row's least similar pool entry.  The diagonal (the positive) carries
    weight 1.  ``None`` stands for unit weights on the full pool.

    W is written into ``out``, a (B, B) float64 array, when given (only
    ``in_batch_loss`` passes one, a reused buffer) and is a fresh array
    otherwise.  ``remove_by_label`` and a plain cap compute P P^T only when a
    row falls back.
    """
    if handling.kind == "none" and max_negatives is None:
        return None, 0
    b = pos_embs.shape[0]
    pool, outside = _pool_masks(b, max_negatives)
    n_pool = b - 1 if max_negatives is None else max_negatives
    weights = np.empty((b, b)) if out is None else out
    sims_buffer, scratch = _workspace(b)[:2]
    if handling.kind == "reweight_by_sim":
        # n_pool * softmax(-sims / T) over each row's pool; sims / -T is -sims / T exactly
        np.matmul(pos_embs, pos_embs.T, out=weights)
        np.divide(weights, -handling.temperature, out=weights)
        np.copyto(weights, -np.inf, where=outside)
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        weights *= n_pool
        np.fill_diagonal(weights, 1.0)
        return weights, 0
    sims = None
    if handling.kind in ("remove_by_sim", "resample_by_sim"):
        sims = np.matmul(pos_embs, pos_embs.T, out=sims_buffer)
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
        # each row's keep_count lowest pool entries, ties at the k-th value
        # taken in index order: the first keep_count of a stable row argsort
        k = handling.keep_count
        np.copyto(sims, np.inf, where=outside)
        np.copyto(scratch, sims)
        scratch.partition(k - 1, axis=1)
        kth = scratch[:, k - 1 : k].copy()
        keep = sims < kth
        at_kth = sims == kth
        need = k - keep.sum(axis=1)
        ties = np.flatnonzero(at_kth.sum(axis=1) > need)  # rows with more k-th values than places
        ranks = np.cumsum(at_kth[ties], axis=1, dtype=np.float64, out=scratch[: ties.size])
        at_kth[ties] &= ranks <= need[ties, None]
        keep |= at_kth
    else:  # "none" under a negative cap
        keep = pool
    np.copyto(weights, keep)
    empty = np.flatnonzero(~keep.any(axis=1))
    if empty.size:
        if sims is None:  # the same full product, so argmin sees the same bits
            sims = np.matmul(pos_embs, pos_embs.T, out=sims_buffer)
        weights[empty, np.argmin(np.where(pool[empty], sims[empty], np.inf), axis=1)] = 1.0
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

    The positive itself is the single same-class sample (M = 1).  ``cl`` is
    eta = 0 in the one kernel, bit for bit the plain loss: the gradient's
    factor is 1.0, N * g0 is the negative sum - 0.0 and dz/ds_ii is -0.0.
    Its clamp binds only if rounding pushes every kept negative's score below
    -gamma^2, which needs exactly antipodal embeddings.  ``max_negatives``
    caps each anchor's negative pool at its first entries (batch order is
    already random).  Negative handling enters as the weight matrix W of
    ``negative_weights``: row i's weighted negative sum is (W * E).sum(1) -
    e^{s_ii} with E = exp(A P^T), and its negative count is W.sum(1) - 1.
    Reductions run in batch order so results are reproducible.
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
    if objective == "dcl" and etas is None:
        raise ValueError("dcl objective needs per-sample eta values")
    etas = np.zeros(b) if objective == "cl" else np.asarray(etas, dtype=np.float64)
    handling = handling or NO_HANDLING
    work = _workspace(b)
    weights, fallbacks = negative_weights(handling, p, classes, max_negatives, out=work[2])
    reweight = handling.kind == "reweight_by_sim"
    floor = np.exp(-(gamma**2))

    exp_scores = np.matmul(a, p.T, out=work[0])  # the scores, then E in place
    diag = np.arange(b)
    pos_scores = exp_scores[diag, diag]
    np.exp(exp_scores, out=exp_scores)
    exp_pos = exp_scores[diag, diag]
    if weights is None:
        n = b - 1
        w_exp = exp_scores
    else:
        n = weights.sum(axis=1) - 1.0
        # the reweighting gradient rereads E; the other rules weight it in place
        w_exp = np.multiply(exp_scores, weights, out=work[1] if reweight else exp_scores)
    z_sum = w_exp.sum(axis=1) - exp_pos

    _, z, clamped = debiased_negatives(z_sum, n, exp_pos, 1, etas, floor)
    coef = 1.0 / (1.0 - etas)  # the gradient's factor
    denom = exp_pos + z
    dl_dscores = np.multiply(w_exp, coef[:, None], out=w_exp)  # W * E is not read again
    dl_dscores /= denom[:, None]
    dl_dscores[clamped] = 0.0
    dz_da = np.where(clamped, 0.0, -(etas * coef) * n * exp_pos)
    dl_dscores[diag, diag] = (exp_pos + dz_da) / denom - 1.0
    d_gamma = float(np.sum(np.where(clamped, -2.0 * gamma * floor * n / denom, 0.0))) / b
    loss = float(np.mean(np.log(denom) - pos_scores))

    d_a = dl_dscores @ p / b
    d_p = dl_dscores.T @ a
    if reweight:
        # W = n_pool * softmax(-sims / T) on each pool row, sims = P P^T:
        # backpropagate dL/dW through the softmax into both P_i and P_j.
        # One buffer (E's) holds dz/dW, then dL/dW, then dL/dsims.
        dsims = exp_scores
        dsims *= coef[:, None]
        dsims -= (etas * coef * exp_pos)[:, None]
        dsims[clamped] = floor
        dsims /= denom[:, None]
        np.fill_diagonal(weights, 0.0)
        # W * E's buffer is free once d_a and d_p are formed
        dsims -= (np.multiply(weights, dsims, out=w_exp).sum(axis=1) / n)[:, None]
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
        clamp_fraction=float(np.mean(clamped)),
        fallback_count=fallbacks,
        mean_eta=float(np.mean(etas)),
    )
