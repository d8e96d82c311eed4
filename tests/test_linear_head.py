import hashlib

import numpy as np
import pytest
import scipy.optimize

from helpers import loss_grad_reference

from sdcl import linear_head as lh


def assert_bitwise(a, b):
    """Equal bit patterns, except that any nan matches any nan."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def kernel(theta, x, y, sample_weight, k, d, fit_intercept, l2):
    n = x.shape[0]
    return lh._loss_grad(theta, x, y * n + np.arange(n), sample_weight, k, d, fit_intercept, l2,
                         np.empty((2, k, n)))


# theta = 0 is the first evaluation of every fit without init weights;
# 1e306 overflows the logits, which gives nan rows
THETA_SCALES = (0.0, 1e-3, 1.0, 1e3, 1e306)


@pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 10, 17])
def test_loss_grad_matches_row_major_reference(k, d):
    rng = np.random.default_rng([k, d])
    for n in (1, 2, 400):
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        for uniform in (True, False):
            weights = np.full(n, 1.0 / n) if uniform else rng.random(n)
            weights /= weights.sum()
            for fit_intercept in (True, False):
                size = k * d + (k if fit_intercept else 0)
                for scale in THETA_SCALES:
                    theta = rng.normal(size=size) * scale
                    for l2 in (0.0, 1e-4):
                        with np.errstate(all="ignore"):
                            want = loss_grad_reference(theta, x, y, weights, k, d, fit_intercept, l2)
                            got = kernel(theta, x, y, weights, k, d, fit_intercept, l2)
                        assert_bitwise(got[0], want[0])
                        assert_bitwise(got[1], want[1])


def test_off_label_overflow_keeps_the_reference_nan():
    # row 0's off-label logit is -2e308 below its max: log-probability -inf,
    # and the one-hot product 0 * -inf makes the reference loss nan
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([1e308, 0.0, -1e308, 0.0, 0.0, 0.0])
    y = np.array([0, 1])
    weights = np.full(2, 0.5)
    with np.errstate(all="ignore"):
        want = loss_grad_reference(theta, x, y, weights, 2, 2, True, 0.0)
        got = kernel(theta, x, y, weights, 2, 2, True, 0.0)
    assert np.isnan(want[0])
    assert_bitwise(got[0], want[0])
    assert_bitwise(got[1], want[1])


@pytest.mark.parametrize("k", list(range(1, 41)) + [64, 127, 128])
def test_sum_classes_matches_numpy_row_sum(k):
    rng = np.random.default_rng(k)
    for n in (1, 3, 1000):
        e = np.exp(rng.normal(size=(n, k)) * 4.0)
        assert lh._sum_classes(e.T.copy()).tobytes() == e.sum(axis=1).tobytes()


def pinned_problem():
    rng = np.random.default_rng(20231)
    x = rng.normal(size=(4000, 16))
    y = np.argmax(x @ rng.normal(size=(16, 10)) + rng.gumbel(size=(4000, 10)), axis=1)
    return x, y


def test_fit_softmax_is_pinned():
    # recorded with the row-major kernel and the two extra evaluations per fit
    x, y = pinned_problem()
    fit = lh.fit_softmax(x, y, num_classes=10, l2=1e-4)
    digest = hashlib.sha256()
    for part in (fit.weights, fit.intercept, np.float64(fit.loss), np.float64(fit.grad_norm)):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == "d25e04d3e10d0a695ed5f21629f6f746aec9dba672a294ad91ecb961dd45f75c"
    assert fit.converged


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_fit_reports_the_evaluation_at_its_weights(monkeypatch, fit_intercept):
    x, y = pinned_problem()
    x, y = x[:500], y[:500]
    weights = np.random.default_rng(1).random(500)
    calls, results = [], []
    kernel_fn, minimize_fn = lh._loss_grad, scipy.optimize.minimize

    def counting_kernel(*args):
        calls.append(args[0].copy())
        return kernel_fn(*args)

    def recording_minimize(*args, **kwargs):
        results.append(minimize_fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lh, "_loss_grad", counting_kernel)
    monkeypatch.setattr(scipy.optimize, "minimize", recording_minimize)
    fit = lh.fit_softmax(x, y, num_classes=10, sample_weight=weights,
                         fit_intercept=fit_intercept, l2=1e-4)
    (result,) = results
    # every evaluation is the optimizer's own: none for the result or the guard
    assert len(calls) == result.nfev
    theta = result.x
    parts = (fit.weights.ravel(), fit.intercept) if fit_intercept else (fit.weights.ravel(),)
    assert theta.tobytes() == np.concatenate(parts).tobytes()
    loss, grad = loss_grad_reference(theta, x, y, weights / weights.sum(), 10, 16, fit_intercept, 1e-4)
    assert_bitwise(fit.loss, loss)
    assert_bitwise(fit.grad_norm, np.linalg.norm(grad, ord=np.inf))
    assert_bitwise(result.fun, loss)
    assert_bitwise(result.jac, grad)


def test_fit_softmax_rejects_bad_input():
    x, y = pinned_problem()
    x, y = x[:50], y[:50]
    with pytest.raises(ValueError, match="labels"):
        lh.fit_softmax(x, np.where(y == 0, -1, y), num_classes=10)
    with pytest.raises(ValueError, match="labels"):
        lh.fit_softmax(x, y, num_classes=int(y.max()))
    with pytest.raises(ValueError, match="labels"):
        lh.fit_softmax(x, y[:49])
    for weights in (np.ones(49), np.ones((50, 1)), np.r_[-1.0, np.ones(49)],
                    np.r_[np.nan, np.ones(49)], np.r_[np.inf, np.ones(49)], np.zeros(50)):
        with pytest.raises(ValueError, match="sample"):
            lh.fit_softmax(x, y, num_classes=10, sample_weight=weights)
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = x.copy()
        x_bad[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            lh.fit_softmax(x_bad, y, num_classes=10)
