import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    assert_grads_close,
    finite_difference_grad,
    in_batch_loss_reference,
    pipeline_loss_and_grads,
    selection_margins_ok,
)
from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import objectives as obj
from sdcl.eta import EtaConfig
from sdcl.rngstream import stream


def make_inputs(pos=0.0, neg=(0.0,), pos_set=(0.0,), eta=0.0, gamma=1.0):
    return obj.EstimatorInputs(
        pos_score=pos,
        neg_scores=np.array(neg, dtype=float),
        pos_set_scores=np.array(pos_set, dtype=float),
        eta=eta,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# contrastive_loss
# ---------------------------------------------------------------------------


def test_contrastive_symmetric_case():
    assert abs(obj.contrastive_loss(0.0, np.zeros(1)) - math.log(2.0)) < 1e-15


def test_contrastive_direct_evaluation():
    # s+ = gamma^2 = 1, one negative at -1: loss = log(1 + e^{-2})
    expected = math.log(1.0 + math.exp(-2.0))
    assert abs(obj.contrastive_loss(1.0, np.array([-1.0])) - expected) < 1e-15
    assert abs(expected - 0.12692801104297263) < 1e-15


def test_contrastive_requires_negatives():
    with pytest.raises(ValueError):
        obj.contrastive_loss(0.0, np.array([]))


# ---------------------------------------------------------------------------
# g_estimate
# ---------------------------------------------------------------------------


def test_g_estimate_eta_zero_is_clamped_mean():
    inputs = make_inputs(neg=(-1.0, 1.0), eta=0.0, gamma=1.0)
    expected = max(0.5 * (math.exp(-1) + math.exp(1)), math.exp(-1))
    assert abs(obj.g_estimate(inputs) - expected) < 1e-15


def test_g_estimate_clamp_activation():
    # g0 = 2 e^{-1} - e = -1.98252... -> clamped to e^{-1}
    inputs = make_inputs(neg=(-1.0,), pos_set=(1.0,), eta=0.5, gamma=1.0)
    g0 = 2 * math.exp(-1) - math.exp(1)
    assert abs(g0 - (-1.9825229461161603)) < 1e-12
    assert abs(obj.g_estimate(inputs) - math.exp(-1)) < 1e-15


def test_g_estimate_no_clamp():
    # g0 = 2 e - e^{-1} = 5.06868...
    inputs = make_inputs(neg=(1.0,), pos_set=(-1.0,), eta=0.5, gamma=1.0)
    assert abs(obj.g_estimate(inputs) - (2 * math.e - math.exp(-1))) < 1e-14
    assert abs(obj.g_estimate(inputs) - 5.068684215746648) < 1e-12


def test_g_estimate_eta_domain():
    with pytest.raises(ValueError):
        obj.g_estimate(make_inputs(eta=1.0))
    with pytest.raises(ValueError):
        obj.g_estimate(make_inputs(eta=-0.1))


def test_g_estimate_many_matches_scalar():
    rng = stream(40, 0)
    gamma = math.sqrt(2.0)
    neg = rng.uniform(-2, 2, size=(50, 7))
    pos = rng.uniform(-2, 2, size=(50, 3))
    eta = rng.uniform(0, 0.95, size=50)
    batch = obj.g_estimate_many(neg, pos, eta, gamma)
    for i in range(50):
        single = obj.g_estimate(
            make_inputs(neg=neg[i], pos_set=pos[i], eta=eta[i], gamma=gamma)
        )
        assert abs(batch[i] - single) < 1e-14


def test_clamp_invariant_quick_fuzz():
    rng = stream(41, 0)
    gamma = rng.uniform(0.5, 3.0, size=2000)
    neg = rng.uniform(-1, 1, size=(2000, 5)) * gamma[:, None] ** 2
    pos = rng.uniform(-1, 1, size=(2000, 2)) * gamma[:, None] ** 2
    eta = rng.uniform(0, 0.99, size=2000)
    g = obj.g_estimate_many(neg, pos, eta, gamma)
    assert np.all(g >= np.exp(-(gamma**2)))


@pytest.mark.parametrize("below", [True, False])
def test_kernel_clamp_edge_at_eta_max(below):
    # at eta_max a z0 one ulp below n * floor clamps to exactly n * floor, and
    # one ulp above it passes through bit for bit; n is a power of two so
    # that n * floor is the chosen edge exactly
    eta, n, m = EtaConfig().eta_max, 64, 4
    z0 = obj.debiased_negatives(200.0, n, 1.3, m, eta, 0.0)[0]
    edge = np.nextafter(z0, np.inf if below else -np.inf)
    floor = edge / n
    assert n * floor == edge
    got_z0, z, clamped = obj.debiased_negatives(200.0, n, 1.3, m, eta, floor)
    assert got_z0 == z0 > 0.0
    assert bool(clamped) == below
    assert z == (edge if below else z0)


# ---------------------------------------------------------------------------
# debiased_loss
# ---------------------------------------------------------------------------


def test_debiased_reduces_to_contrastive_bitwise():
    rng = stream(42, 0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        gamma = math.sqrt(2.0)
        pos = float(rng.uniform(-2, 2))
        neg = rng.uniform(-2, 2, size=n)
        inputs = make_inputs(pos=pos, neg=neg, pos_set=(pos,), eta=0.0, gamma=gamma)
        # clamp inactive iff sum exp(neg) > n * exp(-gamma^2); true here since
        # every term exceeds e^{-4} > e^{-2} ... keep only unclamped cases
        if np.sum(np.exp(neg)) <= n * math.exp(-(gamma**2)):
            continue
        assert obj.debiased_loss(inputs) == obj.contrastive_loss(pos, neg)


def test_debiased_clamped_composition():
    # clamped g = e^{-1}, s+ = 0, N = 1: loss = log(1 + e^{-1})
    inputs = make_inputs(pos=0.0, neg=(-1.0,), pos_set=(1.0,), eta=0.5, gamma=1.0)
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(obj.debiased_loss(inputs) - expected) < 1e-15
    assert abs(expected - 0.3132616875182228) < 1e-15


def test_g0_eta_derivative_sign():
    # d g0 / d eta has the sign of mean_u e^s - mean_v e^s
    rng = stream(43, 0)
    for _ in range(100):
        neg = rng.uniform(-1, 1, size=4)
        pos_set = rng.uniform(-1, 1, size=3)
        eta = float(rng.uniform(0.05, 0.9))
        h = 1e-6

        def g0(e):
            return (np.mean(np.exp(neg)) - e * np.mean(np.exp(pos_set))) / (1 - e)

        deriv = (g0(eta + h) - g0(eta - h)) / (2 * h)
        sign = np.sign(np.mean(np.exp(neg)) - np.mean(np.exp(pos_set)))
        assert np.sign(deriv) == sign or abs(deriv) < 1e-9


# ---------------------------------------------------------------------------
# asymptotic loss
# ---------------------------------------------------------------------------


def random_discrete_spec(seed, n_classes=3, n_points=6, dim=4):
    rng = stream(seed, 77)
    probs = rng.random(n_classes) + 0.2
    probs /= probs.sum()
    pmfs = rng.random((n_classes, n_points)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.DiscreteConditionals(
            points=rng.standard_normal((n_points, dim)), pmfs=pmfs
        ),
        templates=tuple(((c,),) for c in range(n_classes)),
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=n_classes,
    )


def test_asymptotic_needs_two_classes():
    spec = random_discrete_spec(1, n_classes=1)
    params = enc.init_params(4, 8, 5, stream(1, 0))
    with pytest.raises(ValueError):
        obj.asymptotic_loss(spec, params, 4)


def test_asymptotic_constant_encoder_closed_form():
    spec = random_discrete_spec(2)
    params = enc.init_params(4, 8, 5, stream(2, 0))
    params.w1[:] = 0.0
    params.w2[:] = 0.0  # output = gamma * b2 / ||b2|| for every input
    for n in (1, 7, 63):
        assert abs(obj.asymptotic_loss(spec, params, n) - math.log(1 + n)) < 1e-10


def test_asymptotic_matches_brute_force_enumeration():
    spec = random_discrete_spec(3)
    params = enc.init_params(4, 8, 5, stream(3, 0))
    n = 5
    emb, _ = enc.forward_features(params, spec.conditionals.points)
    scores = emb @ emb.T
    rho = spec.class_dist.probs
    pmfs = spec.conditionals.pmfs
    brute = 0.0
    for c in range(spec.num_classes):
        neg_prior = rho.copy()
        neg_prior[c] = 0.0
        neg_prior = neg_prior / (1 - rho[c])
        for i in range(pmfs.shape[1]):
            for j in range(pmfs.shape[1]):
                inner = 0.0
                for cc in range(spec.num_classes):
                    for kk in range(pmfs.shape[1]):
                        inner += neg_prior[cc] * pmfs[cc, kk] * math.exp(scores[i, kk])
                s = scores[i, j]
                brute += (
                    rho[c]
                    * pmfs[c, i]
                    * pmfs[c, j]
                    * (math.log(math.exp(s) + n * inner) - s)
                )
    assert abs(obj.asymptotic_loss(spec, params, n) - brute) < 1e-10


def test_estimator_unbiased_under_oracle_eta():
    # with eta = rho(c_x), E[g0] equals the exact clean-negative expectation
    spec = random_discrete_spec(4)
    params = enc.init_params(4, 8, 5, stream(4, 0))
    emb, _ = enc.forward_features(params, spec.conditionals.points)
    scores = emb @ emb.T
    exp_scores = np.exp(scores)
    rho = spec.class_dist.probs
    pmfs = spec.conditionals.pmfs
    marginal = rho @ pmfs
    for c in range(spec.num_classes):
        eta = rho[c]
        # E[g0] over u ~ D, v ~ D_c (linearity of expectation)
        e_g0 = (exp_scores @ marginal - eta * (exp_scores @ pmfs[c])) / (1 - eta)
        target = exp_scores @ mix.exact_negative_pmf(spec, c)
        assert np.max(np.abs(e_g0 - target)) < 1e-10


def test_asymptotic_rejects_continuous_spec():
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.array([0.5, 0.5])),
        conditionals=mix.GaussianConditionals(
            means=np.array([[1.0, 0.0], [-1.0, 0.0]]), stddevs=np.array([0.3, 0.3])
        ),
        templates=(((0,),), ((1,),)),
        template_weights=((1.0,), (1.0,)),
        vocab_size=2,
    )
    params = enc.init_params(2, 8, 4, stream(5, 0))
    with pytest.raises(ValueError, match="discrete"):
        obj.asymptotic_loss(spec, params, 8)


# ---------------------------------------------------------------------------
# negative handling: rows of the batched weight matrix
# ---------------------------------------------------------------------------


def handling_fixture(seed=50, b=6, dim=4):
    rng = stream(seed, 0)
    return rng.standard_normal((b, dim))


def off_diagonal_sims(pos, i):
    sims = pos @ pos[i]
    return np.delete(sims, i), np.delete(np.arange(pos.shape[0]), i)


def test_handling_identity_cases():
    pos = handling_fixture()
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="remove_by_sim", threshold=np.inf), pos
    )
    assert np.array_equal(weights, np.ones((6, 6)))
    assert fallbacks == 0
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="remove_by_label"), pos, classes=np.arange(6)
    )
    assert np.array_equal(weights, np.ones((6, 6)))
    assert fallbacks == 0
    assert obj.negative_weights(obj.NegativeHandling(), pos) == (None, 0)


def test_handling_remove_by_label_counts():
    pos = handling_fixture(b=4)
    classes = np.array([0, 1, 0, 2])
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="remove_by_label"), pos, classes=classes
    )
    assert weights[0].tolist() == [1.0, 1.0, 0.0, 1.0]  # keeps 1 and 3; diagonal is 1
    assert weights[2].tolist() == [0.0, 1.0, 1.0, 1.0]
    assert fallbacks == 0
    with pytest.raises(ValueError):
        obj.negative_weights(obj.NegativeHandling(kind="remove_by_label"), pos)


def test_handling_fallback_retains_least_similar():
    pos = handling_fixture(b=4)
    sims = pos @ pos.T
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="remove_by_sim", threshold=float(sims.min()) - 1.0), pos
    )
    assert fallbacks == 4
    for i in range(4):
        row_sims, _ = off_diagonal_sims(pos, i)
        assert np.flatnonzero(np.delete(weights[i], i)).tolist() == [int(np.argmin(row_sims))]
        assert weights[i, i] == 1.0
    # the fallback searches only the capped pool: the first negative of each row
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="remove_by_sim", threshold=float(sims.min()) - 1.0),
        pos, max_negatives=1,
    )
    assert fallbacks == 4
    first = np.eye(4)
    first[0, 1] = first[1:, 0] = 1.0
    assert np.array_equal(weights, first)


def test_handling_resample_keeps_lowest():
    pos = handling_fixture(b=6)
    weights, _ = obj.negative_weights(
        obj.NegativeHandling(kind="resample_by_sim", keep_count=2), pos
    )
    for i in range(6):
        row_sims, _ = off_diagonal_sims(pos, i)
        assert set(np.flatnonzero(np.delete(weights[i], i)).tolist()) == set(
            np.argsort(row_sims)[:2].tolist()
        )
    with pytest.raises(ValueError):
        obj.negative_weights(obj.NegativeHandling(kind="resample_by_sim", keep_count=9), pos)
    with pytest.raises(ValueError):
        obj.negative_weights(
            obj.NegativeHandling(kind="resample_by_sim", keep_count=3), pos, max_negatives=2
        )
    with pytest.raises(ValueError):
        obj.NegativeHandling(kind="resample_by_sim", keep_count=0)


def test_handling_reweight_sums_to_n():
    pos = handling_fixture(b=8)
    weights, fallbacks = obj.negative_weights(
        obj.NegativeHandling(kind="reweight_by_sim", temperature=0.5), pos
    )
    assert fallbacks == 0
    for i in range(8):
        assert weights[i, i] == 1.0
        row_sims, idx = off_diagonal_sims(pos, i)
        row = weights[i, idx]
        assert abs(row.sum() - 7.0) < 1e-12
        # weights decrease with similarity
        assert np.all(np.diff(row[np.argsort(row_sims)]) <= 1e-12)


# ---------------------------------------------------------------------------
# in-batch loss: values and gradients
# ---------------------------------------------------------------------------


def test_in_batch_cl_matches_scalar_ops():
    rng = stream(60, 0)
    params = enc.init_params(4, 8, 5, rng, gamma=math.sqrt(2.0))
    a_x = rng.standard_normal((5, 4))
    p_x = rng.standard_normal((5, 4))
    a_emb, _ = enc.forward_features(params, a_x)
    p_emb, _ = enc.forward_features(params, p_x)
    result = obj.in_batch_loss(a_emb, p_emb, objective="cl", gamma=params.gamma)
    manual = 0.0
    for i in range(5):
        neg = [float(a_emb[i] @ p_emb[j]) for j in range(5) if j != i]
        manual += obj.contrastive_loss(float(a_emb[i] @ p_emb[i]), np.array(neg))
    assert abs(result.loss - manual / 5) < 1e-12


def test_in_batch_dcl_matches_scalar_ops():
    rng = stream(61, 0)
    params = enc.init_params(4, 8, 5, rng, gamma=1.0)
    a_x = rng.standard_normal((4, 4))
    p_x = rng.standard_normal((4, 4))
    a_emb, _ = enc.forward_features(params, a_x)
    p_emb, _ = enc.forward_features(params, p_x)
    etas = rng.uniform(0.05, 0.5, size=4)
    result = obj.in_batch_loss(a_emb, p_emb, objective="dcl", gamma=1.0, etas=etas)
    manual = 0.0
    for i in range(4):
        neg = np.array([float(a_emb[i] @ p_emb[j]) for j in range(4) if j != i])
        pos = float(a_emb[i] @ p_emb[i])
        manual += obj.debiased_loss(
            make_inputs(pos=pos, neg=neg, pos_set=(pos,), eta=float(etas[i]), gamma=1.0)
        )
    assert abs(result.loss - manual / 4) < 1e-12


HANDLING_CASES = [
    None,
    obj.NegativeHandling(kind="remove_by_sim", threshold=0.3),
    obj.NegativeHandling(kind="reweight_by_sim", temperature=0.7),
    obj.NegativeHandling(kind="resample_by_sim", keep_count=2),
    obj.NegativeHandling(kind="remove_by_label"),
]


@pytest.mark.parametrize("objective", ["cl", "dcl"])
@pytest.mark.parametrize("handling", HANDLING_CASES)
def test_pipeline_gradients_match_fd(objective, handling):
    checked = 0
    attempt = 0
    while checked < 3 and attempt < 30:
        attempt += 1
        rng = stream(62, attempt)
        params = enc.init_params(3, 6, 4, rng, gamma=math.sqrt(2.0))
        a_x = rng.standard_normal((4, 3))
        p_x = rng.standard_normal((4, 3))
        classes = rng.integers(0, 3, size=4)
        etas = rng.uniform(0.05, 0.6, size=4) if objective == "dcl" else None
        if not selection_margins_ok(
            params, a_x, p_x, handling=handling, etas=etas,
            objective=objective, classes=classes, margin=5e-3,
        ):
            continue
        loss, analytic, _ = pipeline_loss_and_grads(
            params, a_x, p_x, objective=objective, etas=etas,
            handling=handling, classes=classes,
        )

        def loss_fn(p):
            value, _, _ = pipeline_loss_and_grads(
                p, a_x, p_x, objective=objective, etas=etas,
                handling=handling, classes=classes,
            )
            return value

        fd = finite_difference_grad(params, loss_fn)
        assert_grads_close(analytic, fd)
        checked += 1
    assert checked >= 3, "not enough well-separated configurations found"


def test_dcl_clamped_gamma_gradient():
    # drive the estimator into its clamp and check the floor's gamma term
    rng = stream(63, 0)
    params = enc.init_params(3, 6, 4, rng, gamma=1.2)
    a_x = rng.standard_normal((3, 3))
    p_x = a_x + 0.01 * rng.standard_normal((3, 3))  # high pos similarity
    etas = np.full(3, 0.85)  # heavy correction forces g0 below the floor
    loss, analytic, result = pipeline_loss_and_grads(
        params, a_x, p_x, objective="dcl", etas=etas
    )
    assert result.clamp_fraction > 0

    def loss_fn(p):
        value, _, _ = pipeline_loss_and_grads(p, a_x, p_x, objective="dcl", etas=etas)
        return value

    fd = finite_difference_grad(params, loss_fn)
    assert_grads_close(analytic, fd)


def unit_rows(rng, b, dim, radius):
    x = rng.standard_normal((b, dim))
    return x * (radius / np.linalg.norm(x, axis=1, keepdims=True))


REFERENCE_HANDLINGS = {
    "none": lambda n_pool: None,
    "remove_by_sim": lambda n_pool: obj.NegativeHandling(kind="remove_by_sim", threshold=0.3),
    # below -gamma^2 = -1.44: every row falls back to its least similar negative
    "remove_all_by_sim": lambda n_pool: obj.NegativeHandling(kind="remove_by_sim", threshold=-2.0),
    "reweight_by_sim": lambda n_pool: obj.NegativeHandling(kind="reweight_by_sim", temperature=0.7),
    "resample_by_sim": lambda n_pool: obj.NegativeHandling(
        kind="resample_by_sim", keep_count=max(1, n_pool // 2)
    ),
    "remove_by_label": lambda n_pool: obj.NegativeHandling(kind="remove_by_label"),
}


# dyadic unit rows, so every dot product is exact whatever the summation
# order; repeating them makes many similarities in a row exactly equal
TIE_ROWS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.5, 0.5, 0.0],
    [0.5, -0.5, 0.5, -0.5, 0.0],
])[[0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 0]]


def resample_by_argsort(pos, keep_count, max_negatives):
    """``resample_by_sim`` weights chosen by a stable row argsort."""
    b = pos.shape[0]
    col = np.arange(b)
    pool = col[None, :] != col[:, None]
    if max_negatives is not None:
        pool &= col[None, :] < max_negatives + (col[None, :] > col[:, None])
    pool_sims = np.where(pool, pos @ pos.T, np.inf)
    lowest = np.argsort(pool_sims, axis=1, kind="stable")[:, :keep_count]
    weights = np.zeros((b, b))
    np.put_along_axis(weights, lowest, 1.0, axis=1)
    np.fill_diagonal(weights, 1.0)
    # rows whose k-th value also sits outside the selection: ties split by index
    at_kth = pool_sims == np.take_along_axis(pool_sims, lowest[:, -1:], axis=1)
    straddled = int(np.sum(at_kth.sum(axis=1) > (at_kth & (weights == 1.0)).sum(axis=1)))
    return weights, straddled


@pytest.mark.parametrize("kind", sorted(REFERENCE_HANDLINGS))
@pytest.mark.parametrize("cap", ["full", "half"])
@pytest.mark.parametrize("objective", ["cl", "dcl"])
def test_in_batch_loss_matches_reference(objective, cap, kind):
    # the batched weight-matrix path against the per-anchor loop
    rng = stream(64, 0)
    sizes = [int(rng.integers(2, 11)) for _ in range(8)] + [128, TIE_ROWS.shape[0]]
    fallbacks_seen = 0
    for trial, b in enumerate(sizes):
        a = unit_rows(rng, b, 5, 1.2)
        p = TIE_ROWS if trial == 9 else unit_rows(rng, b, 5, 1.2)
        etas = rng.uniform(0.0, 0.9, size=b) if objective == "dcl" else None
        # the last small batch is single-class: remove_by_label falls back on every row
        classes = np.zeros(b, dtype=int) if trial == 7 else rng.integers(0, 3, size=b)
        max_negatives = None if cap == "full" else b // 2
        handling = REFERENCE_HANDLINGS[kind](max_negatives or b - 1)
        kwargs = dict(objective=objective, gamma=1.2, etas=etas, handling=handling,
                      classes=classes, max_negatives=max_negatives)
        fast = obj.in_batch_loss(a, p, **kwargs)
        ref = in_batch_loss_reference(a, p, **kwargs)
        assert abs(fast.loss - ref.loss) <= 1e-12
        assert np.max(np.abs(fast.d_anchor - ref.d_anchor)) <= 1e-12
        assert np.max(np.abs(fast.d_positive - ref.d_positive)) <= 1e-12
        assert abs(fast.d_gamma - ref.d_gamma) <= 1e-12
        # the loop forms clamps * (1/B), the matrix path clamps / B: compare the count
        assert fast.clamp_fraction == round(ref.clamp_fraction * b) / b
        assert fast.fallback_count == ref.fallback_count
        assert fast.mean_eta == ref.mean_eta
        fallbacks_seen += fast.fallback_count
        if kind == "remove_all_by_sim" or (kind == "remove_by_label" and trial == 7):
            assert fast.fallback_count == b
        if kind == "resample_by_sim":
            weights, _ = obj.negative_weights(handling, p, max_negatives=max_negatives)
            expected, straddled = resample_by_argsort(p, handling.keep_count, max_negatives)
            assert np.array_equal(weights, expected)
            if trial == 9:
                assert straddled > 0  # ties at the k-th value split by index order
    if kind in ("none", "reweight_by_sim", "resample_by_sim"):
        assert fallbacks_seen == 0


@pytest.mark.parametrize("objective", ["cl", "dcl"])
def test_identity_handlings_are_bitwise_plain(objective):
    # weights of exactly 1 on every negative reproduce the unweighted path bit for bit
    rng = stream(66, 0)
    partly_clamped = 0
    for _ in range(20):
        b = int(rng.integers(2, 40))
        a = unit_rows(rng, b, 5, 1.2)
        p = unit_rows(rng, b, 5, 1.2)
        etas = rng.uniform(0.0, 0.95, size=b) if objective == "dcl" else None
        kwargs = dict(objective=objective, gamma=1.2, etas=etas, classes=np.arange(b))
        plain = obj.in_batch_loss(a, p, **kwargs)
        partly_clamped += 0.0 < plain.clamp_fraction < 1.0
        for handling in (obj.NegativeHandling(kind="remove_by_sim", threshold=np.inf),
                         obj.NegativeHandling(kind="remove_by_label")):
            same = obj.in_batch_loss(a, p, handling=handling, **kwargs)
            assert same.loss == plain.loss
            assert np.array_equal(same.d_anchor, plain.d_anchor)
            assert np.array_equal(same.d_positive, plain.d_positive)
            assert same.d_gamma == plain.d_gamma
            assert same.clamp_fraction == plain.clamp_fraction
            assert same.fallback_count == plain.fallback_count == 0
            assert same.mean_eta == plain.mean_eta
    if objective == "dcl":
        assert partly_clamped >= 5  # rows on both sides of the clamp in one batch


def test_in_batch_loss_max_negatives():
    rng = stream(65, 0)
    params = enc.init_params(4, 8, 5, rng, gamma=1.0)
    a_emb, _ = enc.forward_features(params, rng.standard_normal((5, 4)))
    p_emb, _ = enc.forward_features(params, rng.standard_normal((5, 4)))
    result = obj.in_batch_loss(a_emb, p_emb, objective="cl", gamma=1.0, max_negatives=2)
    manual = 0.0
    for i in range(5):
        pool = [j for j in range(5) if j != i][:2]
        neg = np.array([float(a_emb[i] @ p_emb[j]) for j in pool])
        manual += obj.contrastive_loss(float(a_emb[i] @ p_emb[i]), neg)
    assert abs(result.loss - manual / 5) < 1e-12
    with pytest.raises(ValueError):
        obj.in_batch_loss(a_emb, p_emb, objective="cl", gamma=1.0, max_negatives=5)


def test_in_batch_loss_rejects_bad_inputs():
    emb = np.ones((1, 3))
    with pytest.raises(ValueError):
        obj.in_batch_loss(emb, emb, objective="cl", gamma=1.0)
    emb = np.ones((3, 3))
    with pytest.raises(ValueError):
        obj.in_batch_loss(emb, emb, objective="dcl", gamma=1.0)  # missing etas
    for bad in (1.0, np.nan):  # the kernel's domain check rejects nan too
        with pytest.raises(ValueError, match="eta must lie"):
            obj.in_batch_loss(emb, emb, objective="dcl", gamma=1.0,
                              etas=np.array([0.1, bad, 0.2]))


@pytest.mark.parametrize(
    "field, value",
    [("keep_count", 2.5), ("keep_count", True), ("keep_count", 0), ("keep_count", "3"),
     ("temperature", float("nan")), ("temperature", 0.0), ("temperature", -1.0),
     ("temperature", True), ("temperature", "1")],
)
def test_negative_handling_rejects_bad_values(field, value):
    for kind in ("resample_by_sim", "reweight_by_sim", "none"):
        with pytest.raises(ValueError, match=field):
            obj.NegativeHandling(kind=kind, **{field: value})


ALLOCATION_CASES = {
    "plain": (obj.NegativeHandling(), None),
    "remove_by_sim": (obj.NegativeHandling(kind="remove_by_sim", threshold=0.3), None),
    "reweight_by_sim": (obj.NegativeHandling(kind="reweight_by_sim", temperature=0.7), None),
    "resample_by_sim": (obj.NegativeHandling(kind="resample_by_sim", keep_count=32), None),
    "remove_by_label": (obj.NegativeHandling(kind="remove_by_label"), None),
    "max_negatives": (obj.NegativeHandling(), 64),
}


@pytest.mark.parametrize("case", sorted(ALLOCATION_CASES))
@pytest.mark.parametrize("objective", ["cl", "dcl"])
def test_in_batch_loss_allocates_no_batch_square(objective, case):
    # one (128, 128) float64 array is 128 KiB; after a warm-up call the B x B
    # intermediates live in reused buffers and only (B, D) results are new
    rng = stream(68, 0)
    b = 128
    a, p = unit_rows(rng, b, 32, 1.2), unit_rows(rng, b, 32, 1.2)
    handling, cap = ALLOCATION_CASES[case]
    kwargs = dict(objective=objective, gamma=1.2, handling=handling, max_negatives=cap,
                  etas=rng.uniform(0.0, 0.9, size=b) if objective == "dcl" else None,
                  classes=rng.integers(0, 10, size=b))
    obj.in_batch_loss(a, p, **kwargs)
    tracemalloc.start()
    try:
        obj.in_batch_loss(a, p, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 160 * 1024


def _loss_fields(result):
    return (result.loss, result.d_anchor.tobytes(), result.d_positive.tobytes(), result.d_gamma,
            result.clamp_fraction, result.fallback_count, result.mean_eta)


def test_reused_buffers_leave_results_alone():
    # calls at several (batch size, cap) shapes share the per-size buffers;
    # every result must equal the same call made on fresh buffers, and no
    # later call may write into an earlier result or weight matrix
    rng = stream(69, 0)
    calls = []
    for b, cap in [(128, None), (128, 64), (32, None), (128, None)]:
        a, p = unit_rows(rng, b, 5, 1.2), unit_rows(rng, b, 5, 1.2)
        etas = rng.uniform(0.0, 0.9, size=b)
        # one single-class batch: remove_by_label falls back on every row
        classes = np.zeros(b, dtype=int) if b == 32 else rng.integers(0, 3, size=b)
        handlings = [obj.NegativeHandling()] + [
            make(b // 4) for kind, make in sorted(REFERENCE_HANDLINGS.items()) if kind != "none"
        ]
        for objective in ("cl", "dcl"):
            for handling in handlings:
                calls.append(dict(anchor_embs=a, pos_embs=p, objective=objective, gamma=1.2,
                                  etas=etas if objective == "dcl" else None, handling=handling,
                                  classes=classes, max_negatives=cap))

    def weights_of(call):
        return obj.negative_weights(call["handling"], call["pos_embs"], call["classes"],
                                    call["max_negatives"])

    results, weights, snapshots = [], [], []
    for call in calls:
        results.append(obj.in_batch_loss(**call))
        weights.append(weights_of(call))
        w, fallbacks = weights[-1]
        snapshots.append((_loss_fields(results[-1]), None if w is None else w.copy(), fallbacks))
    assert sum(r.fallback_count for r in results) > 0
    for result, (w, fallbacks), (fields, w_then, fallbacks_then) in zip(results, weights, snapshots):
        assert _loss_fields(result) == fields
        assert fallbacks == fallbacks_then
        assert (w is None and w_then is None) or w.tobytes() == w_then.tobytes()
    for i in reversed(range(len(calls))):
        obj._workspace.cache_clear()
        obj._pool_masks.cache_clear()
        obj._workspace(calls[i]["pos_embs"].shape[0]).fill(np.nan)  # nothing stale to lean on
        assert _loss_fields(obj.in_batch_loss(**calls[i])) == snapshots[i][0]
        w, fallbacks = weights_of(calls[i])
        assert fallbacks == snapshots[i][2]
        assert (w is None and snapshots[i][1] is None) or w.tobytes() == snapshots[i][1].tobytes()
