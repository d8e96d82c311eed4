"""Weighted multinomial softmax regression on frozen embeddings.

One fitter serves both the linear probe and the best-linear supervised loss:
the objective is convex, so a deterministic full-batch quasi-Newton descent
from a caller-chosen start reaches any requested gradient-norm tolerance or
reports that the budget ran out.  The optimizer is a numpy L-BFGS: the
two-loop recursion of Liu & Nocedal (1989) over the last ``LBFGS_MEMORY``
steps, with a strong-Wolfe line search that brackets and then zooms by cubic
interpolation (Nocedal & Wright, Algorithms 3.5 and 3.6).  It stops at
``max|g| <= gtol``, after ``max_iter`` iterations, or when a line search
fails; every accepted step lowers the loss.

The loss is evaluated class-major in one ``(K, n)`` buffer reused across
evaluations: the logits are one ``(K, D) @ (D, n)`` product with the
transposed features as a view, not a copy; the label logits are gathered
before one in-place ``exp`` turns the buffer into probabilities and then
their gradient; the weight gradient is ``probs @ x`` and the intercept
gradient a row sum.
"""

from __future__ import annotations

from collections import deque
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

    ``xt`` is ``x.T`` (a view will do), ``label_pos`` holds the flat
    positions ``y * n + arange(n)`` of the labels in a (K, n) array, and
    ``work`` is a (K, n) scratch buffer: the logits, then the probabilities
    and their gradient.
    """
    w = theta[: k * d].reshape(k, d)
    logits = np.matmul(w, xt, out=work)
    if fit_intercept:
        logits += theta[k * d :, None]
    logits -= logits.max(axis=0)
    label_logits = logits.ravel()[label_pos]
    probs = np.exp(logits, out=work)
    z = probs.sum(axis=0)
    loss = -float(sample_weight @ (label_logits - np.log(z)))
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


# L-BFGS settings: correction pairs kept, the strong-Wolfe constants and a
# line search's budget, the usual L-BFGS-B defaults (Moré & Thuente's search
# uses the same constants)
LBFGS_MEMORY = 10
WOLFE_C1 = 1e-3
WOLFE_C2 = 0.9
LINE_SEARCH_EVALUATIONS = 50


def _cubic_step(a, fa, da, b, fb, db):
    """Minimizer of the cubic matching value and slope at steps ``a`` and
    ``b`` (Nocedal & Wright, eq. 3.59); nan when it has none."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    square = d1 * d1 - da * db
    if not square >= 0.0:  # also false for nan
        return np.nan
    d2 = np.copysign(np.sqrt(square), b - a)
    return b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)


def _line_search(loss_grad, theta, loss, grad, direction, step):
    """A step along ``direction`` that meets the strong Wolfe conditions,
    found by bracketing and zooming with cubic interpolation (Nocedal &
    Wright, Algorithms 3.5 and 3.6).

    Returns ``(step, loss, grad, evaluations, found)``.  When the budget
    runs out, ``step`` is the lowest point found that meets the
    sufficient-decrease condition (0 if there is none) and ``found`` is False.
    """
    slope0 = grad @ direction
    lo = (0.0, loss, slope0, grad)  # lowest sufficient-decrease point so far
    hi = None  # the other end of the bracket, once there is one
    for evaluations in range(1, LINE_SEARCH_EVALUATIONS + 1):
        f, g = loss_grad(theta + step * direction)
        slope = g @ direction
        if not f <= loss + WOLFE_C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope, g)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return step, f, g, evaluations, True
        else:
            # rising toward hi (or, before a bracket, rising at all), the
            # loss has its minimum between lo and the new point
            if slope * (step - lo[0] if hi is None else hi[0] - step) >= 0:
                hi = lo
            lo = (step, f, slope, g)
        if hi is None:
            step *= 2.0
            continue
        step = _cubic_step(*lo[:3], *hi[:3])
        low, high = sorted((lo[0], hi[0]))
        margin = 0.1 * (high - low)
        if not low + margin <= step <= high - margin:
            step = 0.5 * (low + high)
    return lo[0], lo[1], lo[3], LINE_SEARCH_EVALUATIONS, False


def _lbfgs(loss_grad, theta, gtol, max_iter):
    """Minimize from ``theta`` by L-BFGS: the two-loop recursion over the
    last ``LBFGS_MEMORY`` steps (Liu & Nocedal 1989), scaled by the latest
    curvature, with strong-Wolfe line searches.

    Stops when the gradient's largest entry is at most ``gtol``, after
    ``max_iter`` iterations, or when a line search fails (keeping the lowest
    point it found).  Every accepted step lowers the loss, so the result is
    never worse than the start.  Returns ``(theta, loss, grad, evaluations)``.
    """
    loss, grad = loss_grad(theta)
    evaluations = 1
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / (s @ y)), oldest first
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= gtol:
            break
        direction = -grad
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * y
        if pairs:
            _, y, rho = pairs[-1]
            direction /= rho * (y @ y)  # the newest pair's curvature
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * (y @ direction)) * s
        if not grad @ direction < 0:  # rounding lost descent: restart
            pairs.clear()
            direction = -grad
        step = 1.0 if pairs else min(1.0, 1.0 / np.linalg.norm(grad))
        step, new_loss, new_grad, used, found = _line_search(
            loss_grad, theta, loss, grad, direction, step
        )
        evaluations += used
        if step > 0:
            s, y = step * direction, new_grad - grad
            theta, loss, grad = theta + s, new_loss, new_grad
        if not found:
            break
        pairs.append((s, y, 1.0 / (s @ y)))
    return theta, loss, grad, evaluations


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
    xt = x.T
    label_pos = y * n + np.arange(n)
    work = np.empty((k, n))
    theta0 = np.concatenate([w0.ravel(), np.zeros(k)]) if fit_intercept else w0.ravel()

    def loss_grad(theta):
        return _loss_grad(theta, x, xt, label_pos, sample_weight, k, d, fit_intercept, l2, work)

    theta, loss, grad, evaluations = _lbfgs(loss_grad, theta0, gtol, max_iter)
    grad_norm = float(np.linalg.norm(grad, ord=np.inf))
    return SoftmaxFit(
        weights=theta[: k * d].reshape(k, d).copy(),
        intercept=theta[k * d :].copy() if fit_intercept else None,
        loss=float(loss),
        grad_norm=grad_norm,
        converged=grad_norm <= gtol,
        evaluations=evaluations,
    )


def predict_classes(fit: SoftmaxFit, x: np.ndarray) -> np.ndarray:
    logits = np.asarray(x) @ fit.weights.T
    if fit.intercept is not None:
        logits = logits + fit.intercept
    return np.argmax(logits, axis=1)
