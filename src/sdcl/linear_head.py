"""Weighted multinomial softmax regression on frozen embeddings.

One fitter serves both the linear probe and the best-linear supervised loss:
the objective is convex, so a deterministic full-batch quasi-Newton descent
(L-BFGS with monotone line search) from a caller-chosen start reaches any
requested gradient-norm tolerance or reports that the budget ran out.

The loss is evaluated class-major: logits, probabilities and their gradient
are ``(K, n)`` arrays in a buffer reused across evaluations, with one ``exp``
per evaluation, the weight gradient as ``probs @ x`` and the intercept
gradient as a row sum.  The transposed features are made contiguous once per
fit, so the logits are one ``(K, D) @ (D, n)`` product.
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
    evaluations: int  # loss-and-gradient evaluations the optimizer made


def check_labels(y, n: int) -> np.ndarray:
    """``y`` as an int64 array of shape (n,); raises ValueError for any other
    shape and for labels that are not integers (which would be truncated)."""
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {y.dtype}")
    return y.astype(np.int64, copy=False)


def _loss_grad(theta, x, xt, label_pos, sample_weight, k, d, fit_intercept, l2, work):
    """Loss and flat gradient at ``theta`` for ``x`` of shape (n, D).

    ``xt`` is ``x.T`` made C-contiguous, ``label_pos`` holds the flat
    positions ``y * n + arange(n)`` of the labels in a (K, n) array, and
    ``work`` is a (2, K, n) scratch buffer.
    """
    logits, probs = work
    w = theta[: k * d].reshape(k, d)
    np.matmul(w, xt, out=logits)
    if fit_intercept:
        logits += theta[k * d :, None]
    logits -= logits.max(axis=0)
    np.exp(logits, out=probs)
    z = probs.sum(axis=0)
    loss = -float(sample_weight @ (logits.ravel()[label_pos] - np.log(z)))
    probs /= z
    probs.ravel()[label_pos] -= 1.0
    probs *= sample_weight
    grad_w = probs @ x
    if l2 > 0:
        loss += 0.5 * l2 * float(np.sum(w * w))
        grad_w += l2 * w
    if fit_intercept:
        return loss, np.concatenate([grad_w.ravel(), probs.sum(axis=1)])
    return loss, grad_w.ravel()


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

    Raises ValueError for non-finite ``x``, labels that are not integers in
    ``[0, K)``, sample weights that are not shape (n,), negative, non-finite
    or all zero, ``init_weights`` that are not finite of shape (K, D), and an
    ``l2`` that is not finite and nonnegative.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    y = check_labels(y, n)
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if not (np.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 must be finite and nonnegative, got {l2}")
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
    if init_weights is None:
        w0 = np.zeros((k, d))
    else:
        w0 = np.asarray(init_weights, dtype=np.float64)
        if w0.shape != (k, d) or not np.all(np.isfinite(w0)):
            raise ValueError(f"init_weights must be finite with shape ({k}, {d}), got {w0.shape}")
    xt = np.ascontiguousarray(x.T)
    label_pos = y * n + np.arange(n)
    work = np.empty((2, k, n))
    theta0 = np.concatenate([w0.ravel(), np.zeros(k)]) if fit_intercept else w0.ravel()

    # the first evaluation (at theta0) and the latest one, so that the result
    # and the guard below need no evaluation beyond the optimizer's own
    seen = {}

    def loss_grad(theta):
        out = _loss_grad(theta, x, xt, label_pos, sample_weight, k, d, fit_intercept, l2, work)
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
        evaluations=int(result.nfev),
    )


def predict_classes(fit: SoftmaxFit, x: np.ndarray) -> np.ndarray:
    logits = np.asarray(x) @ fit.weights.T
    if fit.intercept is not None:
        logits = logits + fit.intercept
    return np.argmax(logits, axis=1)
