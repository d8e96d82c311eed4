"""Weighted multinomial softmax regression on frozen embeddings.

One fitter serves both the linear probe and the best-linear supervised loss:
the objective is convex, so a deterministic full-batch quasi-Newton descent
(L-BFGS with monotone line search) from a caller-chosen start reaches any
requested gradient-norm tolerance or reports that the budget ran out.

The loss is evaluated class-major: logits, probabilities and their gradient
are ``(K, n)`` arrays, so each per-row step is a K-step loop of contiguous
length-n vector operations.  Every step repeats the rounding of the row-major
``(n, K)`` formulation, so a fit is bit for bit the one that formulation
gives (for K <= 128 and D >= 2, where OpenBLAS also blocks both matrix
products alike).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class SoftmaxFit:
    weights: np.ndarray          # (K, D)
    intercept: Optional[np.ndarray]  # (K,) or None
    loss: float
    grad_norm: float
    converged: bool


def _sum_classes(e: np.ndarray) -> np.ndarray:
    """Sum a (K, n) array over its K rows in place; returns the view ``e[0]``.

    The additions repeat numpy's pairwise order for a contiguous row of
    K <= 128 entries (``e.T.sum(axis=1)``): sequential below 8, else eight
    interleaved accumulators combined as a tree, then the rest in order.
    """
    k = e.shape[0]
    stop = 1 if k < 8 else k - k % 8
    if k >= 8:
        for i in range(8, stop, 8):
            e[:8] += e[i : i + 8]
        e[0:8:2] += e[1:8:2]
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
    for row in e[stop:]:
        e[0] += row
    return e[0]


def _loss_grad(theta, x, label_pos, sample_weight, k, d, fit_intercept, l2, work):
    """Loss and flat gradient at ``theta`` for ``x`` of shape (n, D).

    ``label_pos`` holds the flat positions ``y * n + arange(n)`` of the labels in
    a (K, n) array, and ``work`` is a (2, K, n) scratch buffer.
    """
    logits, probs = work
    w = theta[: k * d].reshape(k, d)
    np.matmul(w, x.T, out=logits)
    logits += theta[k * d :, None] if fit_intercept else np.zeros((k, 1))
    logits -= logits.max(axis=0)
    np.exp(logits, out=probs)
    log_z = _sum_classes(probs)
    logits -= np.log(log_z, out=log_z)  # now the log-probabilities
    picked = logits.ravel()[label_pos]
    if np.isneginf(logits.min()):
        # the one-hot product 0 * -inf makes a row nan wherever an
        # off-label log-probability overflowed
        off_label = np.isneginf(logits)
        off_label.ravel()[label_pos] = False
        picked[off_label.any(axis=0)] = np.nan
    loss = -float(np.sum(sample_weight * picked))
    np.exp(logits, out=probs)
    probs.ravel()[label_pos] -= 1.0
    probs *= sample_weight
    grad_w = (x.T @ probs.T).T
    if l2 > 0:
        loss += 0.5 * l2 * float(np.sum(w * w))
        grad_w += l2 * w
    if fit_intercept:
        # row-sequential, as a sum over the rows of an (n, K) array
        grad = np.concatenate([grad_w.ravel(), np.cumsum(probs, axis=1, out=logits)[:, -1]])
    else:
        grad = grad_w.ravel()
    return loss, grad


def fit_softmax(
    x: np.ndarray,
    y: np.ndarray,
    *,
    num_classes: Optional[int] = None,
    sample_weight: Optional[np.ndarray] = None,
    fit_intercept: bool = True,
    init_weights: Optional[np.ndarray] = None,
    l2: float = 0.0,
    gtol: float = 1e-6,
    max_iter: int = 2000,
) -> SoftmaxFit:
    """Minimize weighted cross-entropy; sample weights are normalized to sum 1.

    Raises ValueError for non-finite ``x``, labels outside ``[0, K)`` and
    sample weights that are not shape (n,), negative, non-finite or all zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = x.shape
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    k = int(num_classes if num_classes is not None else y.max() + 1)
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    if sample_weight is None:
        sample_weight = np.full(n, 1.0 / n)
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != (n,):
            raise ValueError(f"sample_weight must have shape ({n},), got {sample_weight.shape}")
        total = sample_weight.sum()
        if not (np.all(sample_weight >= 0) and np.isfinite(total) and total > 0):
            raise ValueError("sample weights must be finite, nonnegative and not all zero")
        sample_weight = sample_weight / total
    label_pos = y * n + np.arange(n)
    work = np.empty((2, k, n))

    w0 = np.zeros((k, d)) if init_weights is None else np.asarray(init_weights, dtype=np.float64)
    theta0 = np.concatenate([w0.ravel(), np.zeros(k)]) if fit_intercept else w0.ravel()

    # the first evaluation (at theta0) and the latest one, so that the result
    # and the guard below need no evaluation beyond the optimizer's own
    seen = {}

    def loss_grad(theta):
        out = _loss_grad(theta, x, label_pos, sample_weight, k, d, fit_intercept, l2, work)
        if len(seen) > 1:
            seen.popitem()
        seen[theta.tobytes()] = out
        return out

    # imported here: scipy.optimize takes most of a second to load, and only
    # a fit needs it
    from scipy.optimize import minimize

    result = minimize(
        loss_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": gtol, "ftol": 0.0, "maxls": 50},
    )
    theta = result.x
    loss, grad = seen.get(theta.tobytes()) or loss_grad(theta)
    # line searches are monotone, but guard against any pathological step
    loss0, grad0 = seen.get(theta0.tobytes()) or loss_grad(theta0)
    if loss > loss0:
        theta, loss, grad = theta0, loss0, grad0
    grad_norm = float(np.linalg.norm(grad, ord=np.inf))
    return SoftmaxFit(
        weights=theta[: k * d].reshape(k, d).copy(),
        intercept=theta[k * d :].copy() if fit_intercept else None,
        loss=float(loss),
        grad_norm=grad_norm,
        converged=grad_norm <= gtol,
    )


def predict_classes(fit: SoftmaxFit, x: np.ndarray) -> np.ndarray:
    logits = np.asarray(x) @ fit.weights.T
    if fit.intercept is not None:
        logits = logits + fit.intercept
    return np.argmax(logits, axis=1)
