"""Numerical verification of the finite-sample approximation bound.

The asymptotic objective L~ uses the exact clean-negative expectation in its
denominator; the practical objective L estimates it from N marginal and M
same-class draws with a (possibly misspecified) class-probability estimate
eta(x).  The gap obeys

    |L~ - L| <= c1/sqrt(N) * E_x[1/(1-rho(c_x))]
              + c2/sqrt(M) * E_x[rho(c_x)/(1-rho(c_x))]
              + c3 * E_x[|1/(1-eta(x)) - 1/(1-rho(c_x))|].

The bound's statement and its proof disagree on (c2, c3): the statement has
(2e^2, 2e^2) while the proof's final line yields (3e^2*sqrt(pi/2), 3e^2).
Both sets are in ``CONSTANTS``.  The proof's are the default (a sound check
must use the larger set); a report carries only the name of the set it
used.  All checks rescale scores by 1/gamma^2 first, matching the proof's
gamma = 1 normalization, so the estimator clamp floor is e^{-1}.

Also here: the supervised-loss ordering l_sup <= l_sup_mu <= l_tilde for
N >= (1 - rho_min)/rho_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .eta import EtaProvider, eta_for_batch
from .linear_head import fit_softmax
from .mixture import MixtureSpec, choice_indices, choice_table, pad_tokens, require_discrete
from .objectives import asymptotic_loss, asymptotic_loss_from_scores, debiased_negatives

E2 = math.e**2
# (c1, c2, c3) of the right-hand side, by the name a report carries
CONSTANTS = {
    "proof": (3.0 * E2 * math.sqrt(math.pi / 2.0),) * 2 + (3.0 * E2,),
    "statement": (3.0 * E2 * math.sqrt(math.pi / 2.0), 2.0 * E2, 2.0 * E2),
}
# empirical_gap evaluates as many trials at once as keep its largest temporary,
# a trial's (K, P, P) log-losses or its draws, within this many elements (one
# trial at a time if one trial exceeds it)
TRIAL_BLOCK_ELEMENTS = 2**16


@dataclass
class BoundReport:
    """One bound check: gap estimate against the itemized right-hand side."""

    lhs: float
    lhs_stderr: float
    lhs_unclamped: float  # gap with the raw (unclamped) estimator; nan if undefined
    term_n: float
    term_m: float
    term_eta: float
    rhs_total: float
    holds: bool
    constants: str
    n: int
    m: int
    trials: int


@dataclass
class SupLossReport:
    l_sup: float
    l_sup_mu: float
    l_tilde: float
    n_used: int
    holds: bool
    converged: bool


def eta_matrix(spec: MixtureSpec, provider: EtaProvider) -> np.ndarray:
    """eta evaluated on every (class, point) cell of a discrete spec."""
    cond = require_discrete(spec)
    k, p = cond.num_classes, cond.num_points
    tokens = None if spec.point_tokens is None else pad_tokens(spec.point_tokens * k)
    return eta_for_batch(provider, np.repeat(np.arange(k), p), tokens).reshape(k, p)


def _joint_weights(spec: MixtureSpec) -> np.ndarray:
    """Joint pmf over (class, point): rho(c) * D_c(x)."""
    cond = require_discrete(spec)
    return spec.class_dist.probs[:, None] * cond.pmfs


def prop1_rhs(
    spec: MixtureSpec,
    etas: np.ndarray,
    n: int,
    m: int,
    constants: str = "proof",
) -> tuple[float, float, float]:
    """Itemized right-hand side (term_n, term_m, term_eta), exact enumeration;
    ``etas`` is ``eta_matrix``'s (K, P) grid."""
    if constants not in CONSTANTS:
        raise ValueError(f"constants must be one of {sorted(CONSTANTS)}")
    c1, c2, c3 = CONSTANTS[constants]
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    weights = _joint_weights(spec)
    rho = spec.class_dist.probs
    inv_one_minus_rho = 1.0 / (1.0 - rho)
    e_inv = float(weights.sum(axis=1) @ inv_one_minus_rho)
    e_ratio = float(weights.sum(axis=1) @ (rho * inv_one_minus_rho))
    mismatch = np.abs(1.0 / (1.0 - etas) - inv_one_minus_rho[:, None])
    e_eta = float(np.sum(weights * mismatch))
    return (c1 / math.sqrt(n) * e_inv, c2 / math.sqrt(m) * e_ratio, c3 * e_eta)


def _normalized_scores(spec: MixtureSpec, params: enc.EncoderParams) -> np.ndarray:
    """Pairwise point scores rescaled to the gamma = 1 convention."""
    cond = require_discrete(spec)
    emb = enc.embed_features(params, cond.points)
    return (emb @ emb.T) / params.gamma**2


def empirical_gap(
    spec: MixtureSpec,
    params: enc.EncoderParams,
    etas: np.ndarray,
    n: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """|L~ - L| with L~ enumerated exactly and L averaged over `trials`
    draws of ({u_n}, {v_m}); the outer pair expectation is enumerated
    exactly inside every trial, with ``etas``, ``eta_matrix``'s (K, P) grid,
    as each anchor's eta.

    Returns (gap, stderr_of_gap, gap_with_unclamped_estimator).  The
    unclamped variant is nan whenever some trial's denominator would go
    nonpositive without the clamp.

    A trial's sums of e^s over its draws are its point counts times the rows
    of e^S, one (k + 1, P) @ (P, P) product per trial, and N * g is
    ``objectives.debiased_negatives``'s z on them.  Every class's
    log(e^s + z) is averaged over pairs in one pass, and the pair mean of
    the scores themselves is subtracted once per class.  z equals z0 bit
    for bit on every anchor row that does not clamp, so the unclamped
    estimator rewrites only the clamped rows and re-averages only the
    (trial, class) slices holding one (a nonpositive denominator needs
    z0 < 0, a clamp).

    Trials are evaluated in blocks.  A trial draws its n marginal uniforms,
    then m per class in class order.  One ``choice_indices`` pass over the
    guide table of the K + 1 CDFs that ``rng.choice`` builds maps a block's
    draws to points, each column through its own sample set's CDF, so the
    indices, the results and the generator's state are those of one
    ``rng.choice`` call per sample set and trial.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    cond = require_discrete(spec)
    rho = spec.class_dist.probs
    pmfs = cond.pmfs
    k, p = pmfs.shape
    scores = _normalized_scores(spec, params)
    exp_scores = np.exp(scores)
    exp_rows = np.ascontiguousarray(exp_scores.T)  # row j: every anchor's score with j
    score_means = _pair_means(scores, pmfs)  # (k,)
    floor = math.exp(-1.0)
    table = choice_table(np.vstack([rho @ pmfs, pmfs]))
    sets = np.repeat(np.arange(k + 1), [n] + [m] * k)  # each column's sample set
    set_offsets = sets * p

    l_tilde = asymptotic_loss_from_scores(scores, rho, pmfs, n)

    per_trial = np.empty(trials)
    per_trial_unclamped = np.empty(trials)
    block = max(1, TRIAL_BLOCK_ELEMENTS // max(k * p * p, n + k * m))
    loss_buffer = np.empty((min(block, trials), k, p, p))  # clamped log-loss per class
    for start in range(0, trials, block):
        t = min(block, trials - start)
        draws = rng.random((t, n + k * m))
        idx = choice_indices(table, sets, draws)
        idx += set_offsets  # into (trial, sample set, point)
        idx += (np.arange(t) * ((k + 1) * p))[:, None]
        counts = np.bincount(idx.ravel(), minlength=t * (k + 1) * p).reshape(t, k + 1, p)
        sums = np.matmul(counts.astype(np.float64), exp_rows)  # (t, k + 1, P) per anchor
        z0, z, clamps = debiased_negatives(sums[:, :1], n, sums[:, 1:], m, etas, floor)
        loss = np.add(exp_scores, z[..., None], out=loss_buffer[:t])
        np.log(loss, out=loss)
        terms = rho * (_pair_means(loss, pmfs) - score_means)  # (t, k)
        per_trial[start:start + t] = terms.sum(axis=1)
        ti, ci, ai = np.nonzero(clamps)
        if ti.size == 0:
            per_trial_unclamped[start:start + t] = per_trial[start:start + t]
            continue
        denom0 = exp_scores[ai] + z0[ti, ci, ai][:, None]
        valid = np.ones(t, dtype=bool)
        valid[ti[np.any(denom0 <= 0.0, axis=1)]] = False
        ts, cs = np.nonzero(clamps.any(axis=2))
        with np.errstate(divide="ignore", invalid="ignore"):
            loss[ti, ci, ai] = np.log(denom0)
            terms[ts, cs] = rho[cs] * (_pair_means(loss[ts, cs], pmfs[cs]) - score_means[cs])
            per_trial_unclamped[start:start + t] = np.where(valid, terms.sum(axis=1), np.nan)
    l_est = float(per_trial.mean())
    stderr = float(per_trial.std(ddof=1) / math.sqrt(trials))
    if np.any(np.isnan(per_trial_unclamped)):
        gap_unclamped = float("nan")
    else:
        gap_unclamped = abs(l_tilde - float(per_trial_unclamped.mean()))
    return abs(l_tilde - l_est), stderr, gap_unclamped


def _pair_means(loss: np.ndarray, pmfs: np.ndarray) -> np.ndarray:
    """``pmfs[c] @ loss[c] @ pmfs[c]`` over the stacked (P, P) slices of
    ``loss`` and rows of ``pmfs``, with the 1-D products' roundings: a
    vector-matrix product (gemv), then one dot per slice (a plain (t, P) @
    (P,) goes through a matrix-vector product and rounds differently)."""
    return np.matmul(np.matmul(pmfs[..., None, :], loss), pmfs[..., :, None])[..., 0, 0]


def verify_prop1(
    spec: MixtureSpec,
    params: enc.EncoderParams,
    provider: EtaProvider,
    n: int,
    m: int,
    rng: np.random.Generator,
    trials: int = 200,
    constants: str = "proof",
) -> BoundReport:
    """Full bound check: eta evaluated once on the (class, point) grid, the
    right-hand side and ``trials`` Monte Carlo trials of the gap."""
    etas = eta_matrix(spec, provider)
    term_n, term_m, term_eta = prop1_rhs(spec, etas, n, m, constants)
    rhs = term_n + term_m + term_eta
    gap, stderr, gap_unclamped = empirical_gap(spec, params, etas, n, m, trials, rng)
    return BoundReport(
        lhs=gap,
        lhs_stderr=stderr,
        lhs_unclamped=gap_unclamped,
        term_n=term_n,
        term_m=term_m,
        term_eta=term_eta,
        rhs_total=rhs,
        holds=bool(gap <= rhs),
        constants=constants,
        n=n,
        m=m,
        trials=trials,
    )


# ---------------------------------------------------------------------------
# Supervised-loss ordering (mean classifier and best linear classifier)
# ---------------------------------------------------------------------------


def sup_loss_mean_classifier(spec: MixtureSpec, params: enc.EncoderParams) -> float:
    """Supervised loss, over the task of all classes, of the classifier whose
    rows are the exact class-conditional embedding means."""
    cond = require_discrete(spec)
    emb = enc.embed_features(params, cond.points)
    logits = emb @ (cond.pmfs @ emb).T  # (P, K)
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return -float(np.sum(_joint_weights(spec) * log_probs.T))


def sup_loss_best_linear(spec: MixtureSpec, params: enc.EncoderParams) -> tuple[float, bool]:
    """Supervised loss over the task of all classes, minimized over the
    weight matrix.

    Starting at the mean classifier with a monotone descent guarantees the
    result never exceeds ``sup_loss_mean_classifier``.  Returns the loss and
    whether the fit reached the gradient tolerance (a separable task has its
    infimum at infinity and reports False).
    """
    cond = require_discrete(spec)
    emb = enc.embed_features(params, cond.points)
    k = spec.num_classes
    fit = fit_softmax(
        np.tile(emb, (k, 1)),
        np.repeat(np.arange(k), cond.num_points),
        num_classes=k,
        sample_weight=_joint_weights(spec).ravel(),
        fit_intercept=False,
        init_weights=cond.pmfs @ emb,
        gtol=1e-8,
        max_iter=5000,
    )
    return fit.loss, fit.converged


def lemma_a1_threshold(spec: MixtureSpec) -> float:
    rho_min = spec.class_dist.rho_min
    return (1.0 - rho_min) / rho_min


def lemma_a1_check(
    spec: MixtureSpec,
    params: enc.EncoderParams,
    n: int,
) -> SupLossReport:
    """Check l_sup <= l_sup_mu <= l_tilde at negative count n, over the task of
    all classes, each inequality with a slack of 1e-8.

    Valid only for n >= (1 - rho_min)/rho_min; smaller n raises (the bound
    does not apply there).
    """
    threshold = lemma_a1_threshold(spec)
    if n < threshold - 1e-12:
        raise ValueError(
            f"n = {n} is below the ordering threshold (1 - rho_min)/rho_min = {threshold:.6g}"
        )
    l_tilde = asymptotic_loss(spec, params, n)
    l_sup_mu = sup_loss_mean_classifier(spec, params)
    l_sup, converged = sup_loss_best_linear(spec, params)
    holds = (l_sup <= l_sup_mu + 1e-8) and (l_sup_mu <= l_tilde + 1e-8)
    return SupLossReport(
        l_sup=l_sup,
        l_sup_mu=l_sup_mu,
        l_tilde=l_tilde,
        n_used=n,
        holds=bool(holds),
        converged=converged,
    )
