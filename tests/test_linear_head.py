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
    return lh._loss_grad(theta, x, np.ascontiguousarray(x.T), y * n + np.arange(n), sample_weight,
                         k, d, fit_intercept, l2, np.empty((k, n)))


def assert_close_to_reference(got, want):
    """The kernel's rounding differs from the row-major reference's; both
    agree to a few ulps of the loss and of the gradient's largest entry."""
    (loss, grad), (want_loss, want_grad) = got, want
    assert abs(loss - want_loss) <= 1e-13 * max(1.0, abs(want_loss))
    assert grad.shape == want_grad.shape
    assert np.max(np.abs(grad - want_grad)) <= 1e-11 * max(1.0, np.max(np.abs(want_grad)))


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
                        if scale < 1e306:
                            assert_close_to_reference(got, want)
                        else:
                            assert np.isnan(got[0]) == np.isnan(want[0])
                            assert np.array_equal(np.isnan(got[1]), np.isnan(want[1]))


@pytest.mark.parametrize("k", list(range(1, 41)) + [64, 127, 128])
def test_sum_classes_matches_numpy_row_sum(k):
    # the kernel's class-axis sums (the normalizer, the intercept gradient),
    # against the reference's numpy row sums, at every class count where
    # numpy's reduction order changes
    rng = np.random.default_rng(k)
    for n in (1, 3, 1000):
        x = rng.normal(size=(n, 4))
        y = rng.integers(0, k, size=n)
        weights = rng.random(n)
        weights /= weights.sum()
        theta = rng.normal(size=5 * k) * 4.0
        want = loss_grad_reference(theta, x, y, weights, k, 4, True, 1e-4)
        work = np.empty((k, n))
        got = lh._loss_grad(theta, x, np.ascontiguousarray(x.T), y * n + np.arange(n), weights,
                            k, 4, True, 1e-4, work)
        assert_close_to_reference(got, want)
        # the normalized probabilities sum to 1 over the classes: the
        # weighted (probs - one-hot) left in the buffer sums to ~0 per row
        residual = work.sum(axis=0)
        assert np.all(np.abs(residual) <= 8 * (k + 2) * np.finfo(float).eps * weights)


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_loss_grad_matches_central_differences(fit_intercept):
    rng = np.random.default_rng(7)
    k, d, n = 4, 3, 50
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    weights = rng.random(n)
    weights /= weights.sum()
    theta = rng.normal(size=k * d + (k if fit_intercept else 0))
    _, grad = kernel(theta, x, y, weights, k, d, fit_intercept, 1e-2)
    h = 1e-6
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        up = kernel(theta + step, x, y, weights, k, d, fit_intercept, 1e-2)[0]
        down = kernel(theta - step, x, y, weights, k, d, fit_intercept, 1e-2)[0]
        assert abs((up - down) / (2 * h) - grad[i]) < 1e-8


def test_off_label_overflow_gives_the_exact_loss():
    # row 0's off-label logit is -2e308 below its max: probability exactly 0.
    # (the row-major reference's one-hot product 0 * -inf makes its loss nan)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([1e308, 0.0, -1e308, 0.0, 0.0, 0.0])
    y = np.array([0, 1])
    weights = np.full(2, 0.5)
    with np.errstate(all="ignore"):
        loss, grad = kernel(theta, x, y, weights, 2, 2, True, 0.0)
    assert loss == 0.5 * np.log(2.0)
    assert grad.tolist() == [0.0, 0.25, 0.0, -0.25, 0.25, -0.25]


def pinned_problem():
    rng = np.random.default_rng(20231)
    x = rng.normal(size=(4000, 16))
    y = np.argmax(x @ rng.normal(size=(16, 10)) + rng.gumbel(size=(4000, 10)), axis=1)
    return x, y


def test_fit_softmax_is_pinned(monkeypatch):
    # recorded with the class-major kernel and the numpy L-BFGS
    x, y = pinned_problem()
    fit = lh.fit_softmax(x, y, num_classes=10, l2=1e-4)
    digest = hashlib.sha256()
    for part in (fit.weights, fit.intercept, np.float64(fit.loss), np.float64(fit.grad_norm)):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == "f462cdedb6e841f409e7ce439a02dffff9734227781c022122250d7e6aaf7d1a"
    assert fit.converged

    # the row-major reference, driven by the same optimizer, lands at the
    # same weights up to rounding and predicts the same classes
    def reference_kernel(theta, x, xt, label_pos, sample_weight, k, d, fit_intercept, l2, work):
        y = label_pos // x.shape[0]
        return loss_grad_reference(theta, x, y, sample_weight, k, d, fit_intercept, l2)

    monkeypatch.setattr(lh, "_loss_grad", reference_kernel)
    reference = lh.fit_softmax(x, y, num_classes=10, l2=1e-4)
    assert np.max(np.abs(reference.weights - fit.weights)) < 1e-9
    assert np.max(np.abs(reference.intercept - fit.intercept)) < 1e-9
    assert np.array_equal(lh.predict_classes(reference, x), lh.predict_classes(fit, x))


def comparison_problems():
    """The pinned problem, then three seeded random ones: weighted, with and
    without intercept, starting from given weights."""
    x, y = pinned_problem()
    yield dict(x=x, y=y, num_classes=10, l2=1e-4)
    for seed, fit_intercept in ((0, True), (1, False), (2, True)):
        rng = np.random.default_rng([seed, 77])
        n, d, k = 300, 5, 4
        x = rng.normal(size=(n, d)) * 2.0
        y = np.argmax(x @ rng.normal(size=(d, k)) + rng.gumbel(size=(n, k)), axis=1)
        yield dict(x=x, y=y, num_classes=k, sample_weight=rng.random(n) + 0.1,
                   fit_intercept=fit_intercept, init_weights=rng.normal(size=(k, d)), l2=1e-3)


def scipy_fit(x, y, num_classes, l2, gtol, sample_weight=None, fit_intercept=True,
              init_weights=None):
    """scipy's L-BFGS-B on the same loss; returns (theta, loss, grad)."""
    n, d = x.shape
    k = num_classes
    weights = np.full(n, 1.0 / n) if sample_weight is None else sample_weight / sample_weight.sum()
    w0 = np.zeros((k, d)) if init_weights is None else init_weights
    theta0 = np.concatenate([w0.ravel(), np.zeros(k)]) if fit_intercept else w0.ravel()
    result = scipy.optimize.minimize(
        lambda theta: kernel(theta, x, y, weights, k, d, fit_intercept, l2), theta0, jac=True,
        method="L-BFGS-B", options={"maxiter": 2000, "gtol": gtol, "ftol": 0.0, "maxls": 50})
    return result.x, result.fun, result.jac


@pytest.mark.parametrize("case", range(4))
def test_fit_matches_scipy_lbfgsb(case):
    problem = list(comparison_problems())[case]
    gtol = 1e-8
    fit = lh.fit_softmax(**problem, gtol=gtol)
    theta, loss, grad = scipy_fit(**problem, gtol=gtol)
    assert fit.converged and fit.grad_norm <= gtol
    assert np.max(np.abs(grad)) <= gtol
    assert abs(fit.loss - loss) <= 1e-10
    k, d = fit.weights.shape
    reference = lh.SoftmaxFit(weights=theta[: k * d].reshape(k, d),
                              intercept=theta[k * d :] if fit.intercept is not None else None,
                              loss=loss, grad_norm=0.0, converged=True, evaluations=0)
    x = problem["x"]
    assert np.array_equal(lh.predict_classes(fit, x), lh.predict_classes(reference, x))


@pytest.mark.parametrize("case", range(4))
def test_fit_out_of_iterations_is_no_worse_than_its_start(case):
    problem = list(comparison_problems())[case]
    fit = lh.fit_softmax(**problem, max_iter=3)
    assert not fit.converged
    start = lh.fit_softmax(**problem, max_iter=0)
    assert start.evaluations == 1 and not start.converged
    assert fit.loss <= start.loss


def test_separable_fit_stops_when_its_line_search_fails():
    # the infimum is at infinity: once the loss underflows no step decreases
    # it, and the fit stops there instead of running out its iterations
    x = np.random.default_rng(0).normal(size=(200, 3))
    y = (x[:, 0] > 0).astype(np.int64)
    fit = lh.fit_softmax(x, y, num_classes=2, gtol=0.0, max_iter=5000)
    assert not fit.converged
    assert fit.evaluations < 500
    assert 0.0 <= fit.loss < 1e-15
    assert np.array_equal(lh.predict_classes(fit, x), y)


@pytest.mark.parametrize("fit_intercept", [True, False])
def test_fit_reports_the_evaluation_at_its_weights(monkeypatch, fit_intercept):
    x, y = pinned_problem()
    x, y = x[:500], y[:500]
    weights = np.random.default_rng(1).random(500)
    calls = []
    kernel_fn = lh._loss_grad

    def counting_kernel(*args):
        calls.append(args[0].copy())
        return kernel_fn(*args)

    monkeypatch.setattr(lh, "_loss_grad", counting_kernel)
    fit = lh.fit_softmax(x, y, num_classes=10, sample_weight=weights,
                         fit_intercept=fit_intercept, l2=1e-4)
    # every evaluation is the optimizer's own, and each one is counted
    assert fit.evaluations == len(calls)
    parts = (fit.weights.ravel(), fit.intercept) if fit_intercept else (fit.weights.ravel(),)
    theta = np.concatenate(parts)
    # the result is an evaluated point, and its loss and gradient are that
    # evaluation's, bit for bit
    assert any(theta.tobytes() == call.tobytes() for call in calls)
    loss, grad = kernel(theta, x, y, weights / weights.sum(), 10, 16, fit_intercept, 1e-4)
    assert_bitwise(fit.loss, loss)
    assert_bitwise(fit.grad_norm, np.linalg.norm(grad, ord=np.inf))
    want = loss_grad_reference(theta, x, y, weights / weights.sum(), 10, 16, fit_intercept, 1e-4)
    assert_close_to_reference((loss, grad), want)


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


def test_fit_softmax_rejects_non_integer_labels():
    x, y = pinned_problem()
    x, y = x[:50], y[:50]
    for labels in (y + 0.5, y.astype(np.float64), y == 0):
        with pytest.raises(ValueError, match="integers"):
            lh.fit_softmax(x, labels, num_classes=10)


def test_fit_softmax_rejects_bad_init_weights():
    x, y = pinned_problem()
    x, y = x[:50, :4], y[:50] % 3
    bad_shapes = (np.zeros((3, 5)), np.zeros((3, 3)), np.zeros((2, 4)), np.zeros(12))
    for init in bad_shapes + (np.full((3, 4), np.nan), np.full((3, 4), np.inf)):
        for fit_intercept in (True, False):
            with pytest.raises(ValueError, match="init_weights"):
                lh.fit_softmax(x, y, num_classes=3, fit_intercept=fit_intercept,
                               init_weights=init)


def test_fit_softmax_rejects_bad_l2():
    x, y = pinned_problem()
    x, y = x[:50], y[:50]
    for l2 in (np.nan, np.inf, -1.0, -1e-12):
        with pytest.raises(ValueError, match="l2"):
            lh.fit_softmax(x, y, num_classes=10, l2=l2)
