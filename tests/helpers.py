"""Shared test utilities: full-pipeline losses, finite-difference checks, and
per-anchor / per-sentence / per-report / per-trial / per-array / row-major /
out-of-place references for the batched in-batch loss, the feature forward,
token pooling, token backward, PLL, report sampling, the LM corpus, Adam, the
bound's Monte Carlo gap, bigram counting and the linear probe's softmax
loss."""

import bisect
import math
from dataclasses import replace

import numpy as np

from sdcl import bounds
from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import textsim
from sdcl.objectives import BatchLossResult, NegativeHandling, in_batch_loss
from sdcl.rngstream import stream
from sdcl.textsim import NGramLM
from sdcl.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LM_ALPHA, WEIGHT_DECAY


def unpad(ids, mask):
    """A padded ``(ids, mask)`` batch as a list of token tuples."""
    return [tuple(row[valid].tolist()) for row, valid in zip(ids, mask)]


def fit_ngram_seqs(corpus, alpha, vocab_size):
    """``textsim.fit_ngram`` on a list of token sequences."""
    return textsim.fit_ngram(*mix.pad_tokens(corpus), alpha=alpha, vocab_size=vocab_size)


def pll_seqs(lm, seqs):
    """``textsim.pseudo_log_likelihood`` on a list of token sequences."""
    return textsim.pseudo_log_likelihood(lm, *mix.pad_tokens(seqs))


def pipeline_loss_and_grads(
    params,
    anchor_x,
    pos_x,
    *,
    objective,
    etas=None,
    handling=None,
    classes=None,
    anchor_tokens=None,
):
    """Encode a batch, apply the in-batch objective, and backpropagate.

    Returns (loss, flat gradient vector) over all encoder parameter arrays,
    gamma included.
    """
    if anchor_tokens is not None:
        a_emb, a_cache = enc.forward_tokens(params, *mix.pad_tokens(anchor_tokens))
    else:
        a_emb, a_cache = enc.forward_features(params, anchor_x)
    p_emb, p_cache = enc.forward_features(params, pos_x)
    result = in_batch_loss(
        a_emb,
        p_emb,
        objective=objective,
        gamma=float(params.gamma),
        etas=etas,
        handling=handling,
        classes=classes,
    )
    grads = enc.backward(params, a_cache, result.d_anchor)
    grads.add_(enc.backward(params, p_cache, result.d_positive))
    grads.gamma += result.d_gamma
    flat = np.concatenate([getattr(grads, name).ravel() for name in params.array_fields()])
    return result.loss, flat, result


def params_at(params, flat):
    """``params`` with every array read from the flat vector ``flat``."""
    arrays = enc.split_flat(flat, params.array_shapes())
    return replace(params, **{name: a.copy() for name, a in arrays.items()})


def finite_difference_grad(params, loss_fn, step=1e-5):
    """Central differences of a scalar ``loss_fn(params)`` over flat params."""
    theta = enc.params_to_flat(params)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        fd[i] = (loss_fn(params_at(params, plus)) -
                 loss_fn(params_at(params, minus))) / (2 * step)
    return fd


def assert_grads_close(analytic, fd, rtol=1e-4, atol=1e-8):
    err = np.abs(analytic - fd)
    tol = rtol * np.maximum(np.abs(analytic), np.abs(fd)) + atol
    worst = float(np.max(err - tol))
    assert np.all(err <= tol), f"gradient mismatch; worst violation {worst:.3e}"


def selection_margins_ok(params, anchor_x, pos_x, *, handling, etas, objective, classes,
                         margin=1e-3):
    """True when no hard selection or clamp boundary sits within ``margin``
    of flipping, so central differences stay on one smooth branch."""
    a_emb, _ = enc.forward_features(params, anchor_x)
    p_emb, _ = enc.forward_features(params, pos_x)
    b = a_emb.shape[0]
    floor = np.exp(-params.gamma**2)
    for i in range(b):
        neg_idx = np.concatenate([np.arange(i), np.arange(i + 1, b)])
        sims = p_emb[neg_idx] @ p_emb[i]
        if handling is not None and handling.kind == "remove_by_sim":
            if np.min(np.abs(sims - handling.threshold)) < margin:
                return False
            kept = neg_idx[sims <= handling.threshold]
        elif handling is not None and handling.kind == "resample_by_sim":
            ordered = np.sort(sims)
            kc = handling.keep_count
            if kc < sims.size and ordered[kc] - ordered[kc - 1] < margin:
                return False
            kept = neg_idx[np.argsort(sims, kind="stable")[:kc]]
        elif handling is not None and handling.kind == "remove_by_label":
            kept = neg_idx[np.asarray(classes)[neg_idx] != classes[i]]
            if kept.size == 0:
                return False  # fallback branch: selection depends on sims
        else:
            kept = neg_idx
        if objective == "dcl" and kept.size > 0:
            eta_i = float(etas[i])
            s_neg = a_emb[i] @ p_emb[kept].T
            s_pos = float(a_emb[i] @ p_emb[i])
            if handling is not None and handling.kind == "reweight_by_sim":
                logits = -(p_emb[kept] @ p_emb[i]) / handling.temperature
                logits -= logits.max()
                w = np.exp(logits)
                w *= kept.size / w.sum()
            else:
                w = np.ones(kept.size)
            z0 = (np.sum(w * np.exp(s_neg)) - eta_i * w.sum() * np.exp(s_pos)) / (1 - eta_i)
            if abs(z0 - w.sum() * floor) < margin:
                return False
    return True


# ---------------------------------------------------------------------------
# Per-anchor reference for ``in_batch_loss``: one anchor at a time, with the
# handling rule applied to that anchor's negative list
# ---------------------------------------------------------------------------


def reference_negative_handling(strategy, anchor_emb, pos_emb, neg_embs,
                                neg_classes=None, anchor_class=None):
    """(kept indices into the negative list, weights or None, fallback flag)."""
    n = neg_embs.shape[0]
    sims = neg_embs @ pos_emb
    if strategy.kind == "none":
        return np.arange(n), None, False
    if strategy.kind == "remove_by_sim":
        kept = np.flatnonzero(sims <= strategy.threshold)
    elif strategy.kind == "resample_by_sim":
        if not 1 <= strategy.keep_count <= n:
            raise ValueError("keep_count must lie in [1, N]")
        order = np.argsort(sims, kind="stable")
        kept = np.sort(order[: strategy.keep_count])
    elif strategy.kind == "remove_by_label":
        if neg_classes is None or anchor_class is None:
            raise ValueError("remove_by_label needs latent classes")
        kept = np.flatnonzero(np.asarray(neg_classes) != anchor_class)
    elif strategy.kind == "reweight_by_sim":
        logits = -sims / strategy.temperature
        logits = logits - logits.max()
        q = np.exp(logits)
        q /= q.sum()
        return np.arange(n), n * q, False
    else:
        raise ValueError(strategy.kind)
    if kept.size == 0:
        kept = np.array([int(np.argmin(sims))])
        return kept, None, True
    return kept, None, False


def in_batch_loss_reference(anchor_embs, pos_embs, *, objective, gamma, etas=None,
                            handling=None, classes=None, max_negatives=None):
    """``in_batch_loss`` computed anchor by anchor, as a Python loop."""
    a = np.asarray(anchor_embs, dtype=np.float64)
    p = np.asarray(pos_embs, dtype=np.float64)
    b = a.shape[0]
    handling = handling or NegativeHandling()
    floor = np.exp(-(gamma**2))

    loss_total = 0.0
    d_a = np.zeros_like(a)
    d_p = np.zeros_like(p)
    d_gamma = 0.0
    clamp_hits = 0
    fallbacks = 0

    for i in range(b):
        neg_idx_all = np.concatenate([np.arange(i), np.arange(i + 1, b)])
        if max_negatives is not None:
            neg_idx_all = neg_idx_all[:max_negatives]
        kept, weights, fallback = reference_negative_handling(
            handling,
            a[i],
            p[i],
            p[neg_idx_all],
            neg_classes=None if classes is None else np.asarray(classes)[neg_idx_all],
            anchor_class=None if classes is None else int(np.asarray(classes)[i]),
        )
        fallbacks += int(fallback)
        neg_idx = neg_idx_all[kept]
        w = np.ones(neg_idx.size) if weights is None else weights
        reweight = handling.kind == "reweight_by_sim"

        s_pos = float(a[i] @ p[i])
        s_neg = a[i] @ p[neg_idx].T
        exp_neg = np.exp(s_neg)
        exp_pos = np.exp(s_pos)
        w_sum = float(w.sum())

        if objective == "cl":
            z = float(np.sum(w * exp_neg))
            dz_ds = w * exp_neg
            dz_dw = exp_neg
            dz_da_score = 0.0
            dz_dgamma = 0.0
            clamped = False
        else:
            eta_i = float(etas[i])
            coef = 1.0 / (1.0 - eta_i)
            z0 = coef * float(np.sum(w * exp_neg)) - (eta_i * coef) * w_sum * exp_pos
            z_floor = w_sum * floor
            clamped = z0 < z_floor
            if clamped:
                z = z_floor
                dz_ds = np.zeros_like(s_neg)
                dz_dw = np.full(neg_idx.size, floor)
                dz_da_score = 0.0
                dz_dgamma = -2.0 * gamma * floor * w_sum
            else:
                z = z0
                dz_ds = coef * w * exp_neg
                dz_dw = coef * exp_neg - (eta_i * coef) * exp_pos
                dz_da_score = -(eta_i * coef) * w_sum * exp_pos
                dz_dgamma = 0.0
            clamp_hits += int(clamped)

        denom = exp_pos + z
        loss_total += np.log(denom) - s_pos

        dl_dspos = (exp_pos + dz_da_score) / denom - 1.0
        dl_dsneg = dz_ds / denom
        d_gamma += dz_dgamma / denom

        d_a[i] += dl_dspos * p[i]
        d_p[i] += dl_dspos * a[i]
        d_a[i] += dl_dsneg @ p[neg_idx]
        d_p[neg_idx] += np.outer(dl_dsneg, a[i])

        if reweight:
            # w = N * softmax(-sims / T): gradients flow through the weights
            dl_dw = dz_dw / denom
            q = w / neg_idx.size  # softmax probabilities (weights sum to N)
            dl_dr = neg_idx.size * q * (dl_dw - float(q @ dl_dw))
            dsims = -dl_dr / handling.temperature
            d_p[i] += dsims @ p[neg_idx]
            d_p[neg_idx] += np.outer(dsims, p[i])

    inv_b = 1.0 / b
    return BatchLossResult(
        loss=loss_total * inv_b,
        d_anchor=d_a * inv_b,
        d_positive=d_p * inv_b,
        d_gamma=d_gamma * inv_b,
        clamp_fraction=clamp_hits * inv_b if objective == "dcl" else 0.0,
        fallback_count=fallbacks,
        mean_eta=float(np.mean(etas)) if objective == "dcl" else 0.0,
    )


def forward_features_reference(params, x):
    """``forward_features`` out of place, keeping the pre-projection u: the
    embeddings and the arrays ``(x, a1, u, norms, uhat)``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    a1 = np.tanh(x @ params.w1.T + params.b1)
    u = a1 @ params.w2.T + params.b2
    norms = np.linalg.norm(u, axis=1)
    uhat = u / norms[:, None]
    return params.gamma * uhat, (x, a1, u, norms, uhat)


# ---------------------------------------------------------------------------
# Per-sentence references for the padded token batch: pooling, the token
# gradient and PLL computed one sequence (and one token) at a time
# ---------------------------------------------------------------------------


def pool_tokens_reference(params, token_seqs):
    if params.token_embed is None:
        raise ValueError("encoder has no token embedding table")
    pooled = np.empty((len(token_seqs), params.token_embed.shape[1]), dtype=np.float64)
    for i, seq in enumerate(token_seqs):
        idx = np.asarray(seq, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("token sequence must be nonempty")
        pooled[i] = params.token_embed[idx].mean(axis=0)
    return pooled


def forward_tokens_reference(params, token_seqs):
    """``forward_tokens`` pooling row by row; the cache keeps the sequences."""
    pooled = pool_tokens_reference(params, token_seqs)
    emb, cache = enc.forward_features(params, pooled)
    cache.token_seqs = [tuple(int(t) for t in s) for s in token_seqs]
    return emb, cache


def backward_reference(params, cache, d_emb):
    """``backward`` with the token gradient added sequence by sequence, token
    by token; ``cache`` comes from ``forward_tokens_reference``."""
    d_emb = np.atleast_2d(np.asarray(d_emb, dtype=np.float64))
    radial = d_emb * cache.uhat
    # projection: du = gamma/||u|| * (dE - uhat (uhat . dE))
    inner = np.sum(radial, axis=1, keepdims=True)
    du = params.gamma / cache.norms[:, None] * (d_emb - cache.uhat * inner)
    da1 = du @ params.w2
    dz1 = da1 * (1.0 - cache.a1**2)
    d_token_embed = None if params.token_embed is None else np.zeros_like(params.token_embed)
    if cache.token_seqs is not None:
        dx = dz1 @ params.w1
        for i, seq in enumerate(cache.token_seqs):
            contribution = dx[i] / len(seq)
            for t in seq:
                d_token_embed[t] += contribution
    grads = enc.EncoderGrads(
        w1=dz1.T @ cache.x, b1=dz1.sum(axis=0), w2=du.T @ cache.a1, b2=du.sum(axis=0),
        token_embed=d_token_embed, gamma=np.asarray(np.sum(radial)),
    )
    for name in grads.array_fields():
        if not np.all(np.isfinite(getattr(grads, name))):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads


def backward_add_at(params, cache, d_emb):
    """``backward`` as it scattered the token gradient before, with one
    ``np.add.at``; ``cache`` comes from ``forward_tokens``."""
    d_emb = np.atleast_2d(np.asarray(d_emb, dtype=np.float64))
    radial = d_emb * cache.uhat
    inner = np.sum(radial, axis=1, keepdims=True)
    du = params.gamma / cache.norms[:, None] * (d_emb - cache.uhat * inner)
    da1 = du @ params.w2
    dz1 = da1 * (1.0 - cache.a1**2)
    d_token_embed = None if params.token_embed is None else np.zeros_like(params.token_embed)
    if cache.token_seqs is not None:
        # dx / length goes to each token's row, in batch then position order
        ids, mask = cache.token_seqs
        lengths = mask.sum(axis=1)
        dx = dz1 @ params.w1
        np.add.at(d_token_embed, ids[mask], np.repeat(dx / lengths[:, None], lengths, axis=0))
    return enc.EncoderGrads(
        w1=dz1.T @ cache.x, b1=dz1.sum(axis=0), w2=du.T @ cache.a1, b2=du.sum(axis=0),
        token_embed=d_token_embed, gamma=np.asarray(np.sum(radial)),
    )


def pseudo_log_likelihood_reference(lm: NGramLM, seq) -> float:
    """PLL of one sentence: log masked-conditional probabilities summed over
    its positions as Python floats."""
    seq = tuple(int(t) for t in seq)
    n = len(seq)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    if n == 1:
        return float(np.log(lm.unigram_probs()[seq[0]]))
    cond = lm.conditionals()
    total = 0.0
    for i, tok in enumerate(seq):
        if i == 0:
            weights = cond[:, seq[1]]
        elif i == n - 1:
            weights = cond[seq[n - 2], :]
        else:
            weights = cond[seq[i - 1], :] * cond[:, seq[i + 1]]
        total += float(np.log(weights[tok] / weights.sum()))
    return total


def token_batch(kind, rng, vocab, max_len=12):
    """A token batch of one shape: ``ragged`` mixes length-1 rows with longer
    ones, ``one_row`` is a single sequence, ``equal_length`` a full rectangle."""
    if kind == "one_row":
        lengths = [int(rng.integers(2, max_len + 1))]
    elif kind == "equal_length":
        lengths = [int(rng.integers(2, max_len + 1))] * 9
    else:
        lengths = [1, int(rng.integers(2, max_len + 1)), 1, max_len] + list(
            rng.integers(1, max_len + 1, size=12))
    return [tuple(int(t) for t in rng.integers(0, vocab, size=n)) for n in lengths]


# ---------------------------------------------------------------------------
# Per-report references for ``mixture.sample_reports`` and the LM corpus of
# ``train.build_lm_assets``, and the per-array Adam ``train._Adam`` replaced
# ---------------------------------------------------------------------------


def sample_reports_reference(spec, c, rng):
    weights = np.asarray(spec.template_weights[c], dtype=np.float64)
    idx = int(rng.choice(len(weights), p=weights / weights.sum()))
    tokens = list(spec.templates[c][idx])
    if spec.report_perturb_prob > 0.0 and rng.random() < spec.report_perturb_prob:
        pos = int(rng.integers(len(tokens)))
        # replace with a uniformly random *different* token so the expected
        # hamming distance to the template equals report_perturb_prob exactly
        offset = int(rng.integers(1, spec.vocab_size))
        tokens[pos] = (tokens[pos] + offset) % spec.vocab_size
    return tuple(tokens)


def sample_reports_loop(spec, classes, rng):
    """The per-report loop ``mixture.sample_reports`` replaced: a list of
    token tuples, drawn one report at a time."""
    classes = np.asarray(classes, dtype=np.int64).tolist()
    bad = [c for c in classes if not 0 <= c < spec.num_classes]
    if bad:
        raise ValueError(f"invalid class id {bad[0]}")
    cdfs = {}
    for c in set(classes):
        weights = np.asarray(spec.template_weights[c], dtype=np.float64)
        cdfs[c] = mix.choice_cdf(weights / weights.sum()).tolist()
    perturb = spec.report_perturb_prob
    n_draws = 2 if perturb > 0.0 else 1
    reports = []
    for c in classes:
        u = rng.random(n_draws).tolist()
        # bisect_right on the sorted cdf is searchsorted(side="right")
        tokens = spec.templates[c][bisect.bisect_right(cdfs[c], u[0])]
        if perturb > 0.0 and u[1] < perturb:
            tokens = list(tokens)
            pos = int(rng.integers(len(tokens)))
            # replace with a uniformly random *different* token so the expected
            # hamming distance to the template equals report_perturb_prob exactly
            offset = int(rng.integers(1, spec.vocab_size))
            tokens[pos] = (tokens[pos] + offset) % spec.vocab_size
        reports.append(tuple(tokens))
    return reports


def lm_corpus_loop(spec, size, rng):
    """The LM corpus as ``train.build_lm_assets`` drew it before: one class
    draw then one one-report sampler call per sentence."""
    corpus = []
    for _ in range(size):
        c = int(rng.choice(spec.class_dist.num_classes, p=spec.class_dist.probs))
        corpus.extend(sample_reports_loop(spec, [c], rng))
    return corpus


def build_lm_assets_loop(spec, config):
    corpus = lm_corpus_loop(spec, config.lm_corpus_size, stream(config.seed, 10))
    return fit_ngram_seqs(corpus, LM_ALPHA, spec.vocab_size)


class AdamPerArray:
    """Adam plus decoupled weight decay over every parameter array; gamma
    moves only when ``train_gamma`` is set."""

    def __init__(self, train_gamma: bool):
        self.train_gamma = train_gamma
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def update(self, params: enc.EncoderParams, grads: enc.EncoderGrads, lr: float) -> None:
        self.t += 1
        for name in params.array_fields():
            if name == "gamma" and not self.train_gamma:
                continue
            g = getattr(grads, name)
            p = getattr(params, name)
            m = self.m.get(name, np.zeros_like(p))
            v = self.v.get(name, np.zeros_like(p))
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - ADAM_BETA1**self.t)
            vhat = v / (1 - ADAM_BETA2**self.t)
            p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            p -= lr * WEIGHT_DECAY * p


# ---------------------------------------------------------------------------
# Per-trial reference for ``bounds.empirical_gap``
# ---------------------------------------------------------------------------


def empirical_gap_reference(spec, params, provider, n, m, trials, rng, clamp_log=None):
    """``empirical_gap`` one trial at a time, with ``1 + k`` ``rng.choice`` calls each.

    A list passed as ``clamp_log`` receives one (k,) bool array per trial: whether
    some anchor row of that class's estimate clamps."""
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    cond = mix.require_discrete(spec)
    rho = spec.class_dist.probs
    pmfs = cond.pmfs
    k, p = pmfs.shape
    scores = bounds._normalized_scores(spec, params)
    exp_scores = np.exp(scores)
    floor = math.exp(-1.0)
    marginal = rho @ pmfs

    l_tilde = bounds.asymptotic_loss_from_scores(scores, rho, pmfs, n)
    etas = bounds.eta_matrix(spec, provider)
    if np.any(etas >= 1.0):
        raise ValueError("eta must stay below 1")

    per_trial = np.empty(trials)
    per_trial_unclamped = np.empty(trials)
    for t in range(trials):
        u_idx = rng.choice(p, size=n, p=marginal)
        sum_u = exp_scores[:, u_idx].sum(axis=1)  # per anchor point
        z0 = np.empty((k, p))  # N * g0
        for c in range(k):
            v_idx = rng.choice(p, size=m, p=pmfs[c])
            sum_v = exp_scores[:, v_idx].sum(axis=1)
            coef = 1.0 / (1.0 - etas[c])
            z0[c] = coef * sum_u - (etas[c] * coef) * n * (sum_v / m)
        clamped = z0 < n * floor
        z = np.where(clamped, n * floor, z0)
        if clamp_log is not None:
            clamp_log.append(clamped.any(axis=1))
        total = 0.0
        total_unclamped = 0.0
        valid = True
        for c in range(k):
            denom = exp_scores + z[c][:, None]
            loss_ij = np.log(denom) - scores
            total += rho[c] * float(pmfs[c] @ loss_ij @ pmfs[c])
            denom0 = exp_scores + z0[c][:, None]
            if np.any(denom0 <= 0.0):
                valid = False
            else:
                loss0_ij = np.log(denom0) - scores
                total_unclamped += rho[c] * float(pmfs[c] @ loss0_ij @ pmfs[c])
        per_trial[t] = total
        per_trial_unclamped[t] = total_unclamped if valid else np.nan
    l_est = float(per_trial.mean())
    stderr = float(per_trial.std(ddof=1) / math.sqrt(trials))
    if np.any(np.isnan(per_trial_unclamped)):
        gap_unclamped = float("nan")
    else:
        gap_unclamped = abs(l_tilde - float(per_trial_unclamped.mean()))
    return abs(l_tilde - l_est), stderr, gap_unclamped


def fit_ngram_reference(corpus, alpha, vocab_size):
    """Bigram and unigram counts accumulated one sentence at a time."""
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    bigram = np.zeros((vocab_size, vocab_size), dtype=np.float64)
    unigram = np.zeros(vocab_size, dtype=np.float64)
    for seq in corpus:
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("corpus sentences must be nonempty")
        if arr.min() < 0 or arr.max() >= vocab_size:
            raise ValueError("token id out of vocabulary")
        np.add.at(unigram, arr, 1.0)
        if arr.size > 1:
            np.add.at(bigram, (arr[:-1], arr[1:]), 1.0)
    return NGramLM(vocab_size=vocab_size, bigram_counts=bigram, unigram_counts=unigram, alpha=alpha)


def loss_grad_reference(theta, x, y, sample_weight, k, d, fit_intercept, l2):
    """The softmax loss and gradient in the row-major (n, K) layout, with a
    one-hot label matrix."""
    n = x.shape[0]
    y_onehot = np.zeros((n, k))
    y_onehot[np.arange(n), y] = 1.0
    w = theta[: k * d].reshape(k, d)
    b = theta[k * d :] if fit_intercept else np.zeros(k)
    logits = x @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=1))
    log_probs = logits - log_z[:, None]
    loss = -float(np.sum(sample_weight * np.sum(y_onehot * log_probs, axis=1)))
    probs = np.exp(log_probs)
    delta = sample_weight[:, None] * (probs - y_onehot)
    grad_w = delta.T @ x
    if l2 > 0:
        loss += 0.5 * l2 * float(np.sum(w * w))
        grad_w += l2 * w
    if fit_intercept:
        grad = np.concatenate([grad_w.ravel(), delta.sum(axis=0)])
    else:
        grad = grad_w.ravel()
    return loss, grad
