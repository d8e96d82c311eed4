"""Shared test utilities: full-pipeline losses, finite-difference checks, and
the per-anchor reference for the batched in-batch loss."""

import numpy as np

from sdcl import encoder as enc
from sdcl.objectives import BatchLossResult, NegativeHandling, in_batch_loss


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

    Returns (loss, flat gradient vector) over all encoder parameters
    including gamma (zero for non-trainable gamma).
    """
    if anchor_tokens is not None:
        a_emb, a_cache = enc.forward_tokens(params, anchor_tokens)
    else:
        a_emb, a_cache = enc.forward_features(params, anchor_x)
    p_emb, p_cache = enc.forward_features(params, pos_x)
    result = in_batch_loss(
        a_emb,
        p_emb,
        objective=objective,
        gamma=params.gamma,
        etas=etas,
        handling=handling,
        classes=classes,
    )
    grads = enc.backward(params, a_cache, result.d_anchor)
    grads.add_(enc.backward(params, p_cache, result.d_positive))
    grads.gamma += result.d_gamma
    flat = np.concatenate(
        [getattr(grads, name).ravel() for name in params.array_fields()]
        + [np.array([grads.gamma if params.gamma_trainable else 0.0])]
    )
    return result.loss, flat, result


def finite_difference_grad(params, loss_fn, step=1e-5):
    """Central differences of a scalar ``loss_fn(params)`` over flat params."""
    theta = enc.params_to_flat(params)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        fd[i] = (loss_fn(enc.params_from_flat(params, plus)) -
                 loss_fn(enc.params_from_flat(params, minus))) / (2 * step)
    if not params.gamma_trainable:
        fd[-1] = 0.0
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
