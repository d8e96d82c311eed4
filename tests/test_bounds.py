import itertools
import math

import numpy as np
import pytest

from helpers import empirical_gap_reference, fit_ngram_seqs
from sdcl import bounds
from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import objectives as obj
from sdcl import pipelines as pl
from sdcl.eta import EtaConfig, make_provider
from sdcl.rngstream import stream


def discrete_spec(seed=0, n_classes=3, n_points=8, dim=4, with_point_tokens=False, vocab=8):
    rng = stream(seed, 55)
    probs = rng.random(n_classes) + 0.3
    probs /= probs.sum()
    pmfs = rng.random((n_classes, n_points)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    point_tokens = None
    if with_point_tokens:
        point_tokens = tuple(
            tuple(int(t) for t in rng.integers(0, vocab, size=4)) for _ in range(n_points)
        )
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.DiscreteConditionals(
            points=rng.standard_normal((n_points, dim)), pmfs=pmfs
        ),
        templates=tuple(((c % vocab,),) for c in range(n_classes)),
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=vocab,
        point_tokens=point_tokens,
    )


def uniform_spec(n_classes=10, n_points=16, dim=4, seed=1):
    rng = stream(seed, 56)
    pmfs = rng.random((n_classes, n_points)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(n_classes, 1.0 / n_classes)),
        conditionals=mix.DiscreteConditionals(
            points=rng.standard_normal((n_points, dim)), pmfs=pmfs
        ),
        templates=tuple(((0,),) for _ in range(n_classes)),
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=2,
    )


def encoder_for(spec, seed=0, gamma=1.0, **kwargs):
    return enc.init_params(spec.dim, 8, 5, stream(seed, 66), gamma=gamma, **kwargs)


# ---------------------------------------------------------------------------
# prop1_rhs
# ---------------------------------------------------------------------------


def test_term_eta_vanishes_for_oracle():
    spec = discrete_spec(0)
    provider = make_provider(EtaConfig(kind="true_oracle"), spec=spec)
    _, _, term_eta = bounds.prop1_rhs(spec, provider, n=16, m=4)
    assert term_eta <= 1e-15


def test_term_eta_positive_for_off_constant():
    spec = discrete_spec(0)
    assert not np.any(np.isclose(spec.class_dist.probs, 0.05))
    provider = make_provider(EtaConfig(kind="constant", value=0.05))
    _, _, term_eta = bounds.prop1_rhs(spec, provider, n=16, m=4)
    assert term_eta > 0.0


def test_term_n_uniform_plug_in():
    # uniform prior over 10 classes, N = 254: (3 e^2 sqrt(pi/2) / sqrt(254)) / 0.9
    spec = uniform_spec()
    provider = make_provider(EtaConfig(kind="true_oracle"), spec=spec)
    term_n, _, _ = bounds.prop1_rhs(spec, provider, n=254, m=1)
    expected = 3 * math.e**2 * math.sqrt(math.pi / 2) / math.sqrt(254) / 0.9
    assert abs(term_n - expected) < 1e-12


def test_terms_scale_as_inverse_sqrt():
    spec = discrete_spec(1)
    provider = make_provider(EtaConfig(kind="constant", value=0.2))
    for n, m in ((4, 1), (16, 4), (64, 16)):
        t_n, t_m, _ = bounds.prop1_rhs(spec, provider, n=n, m=m)
        t_n4, t_m4, _ = bounds.prop1_rhs(spec, provider, n=4 * n, m=4 * m)
        assert abs(t_n4 / t_n - 0.5) <= 1e-12
        assert abs(t_m4 / t_m - 0.5) <= 1e-12


def test_statement_constants_are_smaller():
    spec = discrete_spec(2)
    provider = make_provider(EtaConfig(kind="constant", value=0.3))
    proof = bounds.prop1_rhs(spec, provider, n=8, m=2, constants="proof")
    stmt = bounds.prop1_rhs(spec, provider, n=8, m=2, constants="statement")
    assert proof[0] == stmt[0]
    assert proof[1] > stmt[1]
    assert proof[2] > stmt[2]
    with pytest.raises(ValueError):
        bounds.prop1_rhs(spec, provider, n=8, m=2, constants="folklore")


def test_prop1_requires_discrete():
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.array([0.5, 0.5])),
        conditionals=mix.GaussianConditionals(means=np.zeros((2, 3)), stddevs=np.ones(2)),
        templates=(((0,),), ((0,),)),
        template_weights=((1.0,), (1.0,)),
        vocab_size=1,
    )
    provider = make_provider(EtaConfig(kind="constant", value=0.1))
    with pytest.raises(ValueError):
        bounds.prop1_rhs(spec, provider, n=4, m=1)


# ---------------------------------------------------------------------------
# empirical gap
# ---------------------------------------------------------------------------


def test_gap_zero_for_constant_encoder():
    spec = discrete_spec(3)
    params = encoder_for(spec, seed=3)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    provider = make_provider(EtaConfig(kind="constant", value=0.3))
    gap, stderr, gap_unclamped = bounds.empirical_gap(
        spec, params, provider, n=8, m=2, trials=20, rng=stream(3, 1)
    )
    assert gap < 1e-10
    assert stderr < 1e-12
    assert gap_unclamped < 1e-10


@pytest.mark.parametrize("n, m", [(0, 4), (4, 0), (-1, 4)])
def test_gap_rejects_empty_sample_sets(n, m):
    spec = discrete_spec(3)
    provider = make_provider(EtaConfig(kind="constant", value=0.3))
    with pytest.raises(ValueError, match="n and m"):
        bounds.empirical_gap(spec, encoder_for(spec), provider, n=n, m=m, trials=4,
                             rng=stream(3, 1))


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def _assert_gap_matches_reference(spec, params, provider, n, m, trials, seed):
    rng, rng_ref = stream(seed, 9), stream(seed, 9)
    result = bounds.empirical_gap(spec, params, provider, n, m, trials, rng)
    expected = empirical_gap_reference(spec, params, provider, n, m, trials, rng_ref)
    assert _bits(result) == _bits(expected), (n, m, trials, result, expected)
    assert rng.random() == rng_ref.random()
    return result


@pytest.mark.parametrize("variant", pl.BOUND_ETA_VARIANTS)
def test_empirical_gap_matches_reference(variant):
    # bound_sweep's specs, eta providers and (N, M) grid; 23 trials is not a
    # multiple of the block size wherever a block holds fewer trials than that
    config = pl.BoundSweepConfig()
    variant_index = pl.BOUND_ETA_VARIANTS.index(variant)
    for i, (n, m) in enumerate(itertools.product(config.n_grid, config.m_grid)):
        rng = stream(17, variant_index, i)
        spec = pl._random_discrete_spec(rng, config)
        params = enc.init_params(spec.dim, 6, 4, rng, gamma=1.0)
        provider = pl._bound_provider(variant, spec, rng)
        _assert_gap_matches_reference(spec, params, provider, n, m, trials=23, seed=i)


def test_empirical_gap_matches_reference_across_blocks():
    # 4 classes of 32 points make blocks of 16 trials: 16 + 16 + 5
    spec = discrete_spec(6, n_classes=4, n_points=32)
    params = encoder_for(spec, seed=6)
    provider = make_provider(EtaConfig(kind="constant", value=0.2))
    assert bounds.TRIAL_BLOCK_ELEMENTS // (4 * 32 * 32) == 16
    _assert_gap_matches_reference(spec, params, provider, n=256, m=16, trials=37, seed=6)


def _block_size_cases():
    config = pl.BoundSweepConfig()
    for variant_index, variant in enumerate(pl.BOUND_ETA_VARIANTS):
        for i, (n, m) in enumerate([(4, 1), (64, 16), (256, 4)]):
            rng = stream(19, variant_index, i)
            spec = pl._random_discrete_spec(rng, config)
            params = enc.init_params(spec.dim, 6, 4, rng, gamma=1.0)
            yield spec, params, pl._bound_provider(variant, spec, rng), n, m
    constant = [make_provider(EtaConfig(kind="constant", value=v)) for v in (0.5, 0.2, 0.3)]
    spec = discrete_spec(0)  # nonpositive unclamped denominators
    yield spec, encoder_for(spec, gamma=2.0), constant[0], 4, 1
    spec = discrete_spec(6, n_classes=4, n_points=32)  # default blocks of 16 + 16 + 5
    yield spec, encoder_for(spec, seed=6), constant[1], 256, 16
    spec = uniform_spec(n_classes=10)  # more than 8 classes summed per trial
    yield spec, encoder_for(spec), constant[2], 16, 4


def test_empirical_gap_is_independent_of_the_block_size(monkeypatch):
    # one trial per block, the default blocks and one block for every trial
    # give the same bits and leave the generator in the same state
    default = bounds.TRIAL_BLOCK_ELEMENTS
    nans = 0
    for case, (spec, params, provider, n, m) in enumerate(_block_size_cases()):
        seen = set()
        for elements in (1, default, 2**40):
            monkeypatch.setattr(bounds, "TRIAL_BLOCK_ELEMENTS", elements)
            rng = stream(case, 9)
            result = bounds.empirical_gap(spec, params, provider, n, m, 37, rng)
            seen.add((_bits(result), rng.random()))
        assert len(seen) == 1, (case, seen)
        nans += math.isnan(result[2])
    assert 0 < nans < case + 1  # some cases, not all, have an invalid unclamped trial


def _gathered_gap(spec, params, provider, n, m, trials, rng):
    """The gap's arithmetic before counted sums: each trial's sums gathered
    from the drawn columns of e^S, and the scores subtracted from every
    class's log-loss before its pair mean."""
    rho, pmfs = spec.class_dist.probs, spec.conditionals.pmfs
    k, p = pmfs.shape
    scores = bounds._normalized_scores(spec, params)
    exp_scores = np.exp(scores)
    etas = bounds.eta_matrix(spec, provider)
    per_trial = np.empty((2, trials))  # clamped, unclamped
    for t in range(trials):
        sum_u = exp_scores[:, rng.choice(p, size=n, p=rho @ pmfs)].sum(axis=1)
        sum_v = np.stack([exp_scores[:, rng.choice(p, size=m, p=pmf)].sum(axis=1) for pmf in pmfs])
        z0, z, _ = obj.debiased_negatives(sum_u, n, sum_v, m, etas, math.exp(-1.0))
        for row, z in enumerate((z, z0)):
            with np.errstate(divide="ignore", invalid="ignore"):
                loss = np.log(exp_scores + z[:, :, None]) - scores
            per_trial[row, t] = sum(rho[c] * (pmfs[c] @ loss[c] @ pmfs[c]) for c in range(k))
    l_tilde = bounds.asymptotic_loss_from_scores(scores, rho, pmfs, n)
    gaps = np.abs(l_tilde - per_trial.mean(axis=1))
    return gaps[0], per_trial[0].std(ddof=1) / math.sqrt(trials), gaps[1]


@pytest.mark.parametrize("variant", pl.BOUND_ETA_VARIANTS)
def test_empirical_gap_matches_the_gathered_sums(variant):
    # counted sums and one subtraction of the scores' pair mean per class
    # round differently from the gathered arithmetic, by far less than 1e-9
    config = pl.BoundSweepConfig()
    variant_index = pl.BOUND_ETA_VARIANTS.index(variant)
    for i, (n, m) in enumerate(itertools.product(config.n_grid, config.m_grid)):
        rng = stream(23, variant_index, i)
        spec = pl._random_discrete_spec(rng, config)
        params = enc.init_params(spec.dim, 6, 4, rng, gamma=1.0)
        provider = pl._bound_provider(variant, spec, rng)
        result = bounds.empirical_gap(spec, params, provider, n, m, 40, stream(i, 9))
        expected = _gathered_gap(spec, params, provider, n, m, 40, stream(i, 9))
        np.testing.assert_allclose(result, expected, rtol=1e-9, atol=0.0, err_msg=str((n, m)))


def test_empirical_gap_matches_reference_on_invalid_trials():
    provider = make_provider(EtaConfig(kind="constant", value=0.5))
    spec = discrete_spec(0)
    params = encoder_for(spec, seed=0, gamma=2.0)
    # the first two trials are valid unclamped, a later one is not
    assert math.isfinite(_assert_gap_matches_reference(spec, params, provider, 4, 1, 2, 0)[2])
    assert math.isnan(_assert_gap_matches_reference(spec, params, provider, 4, 1, 40, 0)[2])
    # already invalid in the first two trials
    provider = make_provider(EtaConfig(kind="constant", value=0.9))
    assert math.isnan(_assert_gap_matches_reference(spec, params, provider, 4, 1, 2, 0)[2])


@pytest.mark.parametrize("eta, n, m, expect", [
    (0.3, 16, 4, "mixed"), (0.0, 16, 4, "unclamped"), (0.5, 4, 1, "invalid"),
])
def test_empirical_gap_matches_reference_on_clamped_and_unclamped_slices(eta, n, m, expect):
    # the unclamped term is the clamped one on a (trial, class) slice that does
    # not clamp, and is evaluated again on one that does
    spec = discrete_spec(1)
    params = encoder_for(spec, seed=1)
    provider = make_provider(EtaConfig(kind="constant", value=eta))
    clamps = []  # per trial, whether each class's slice clamps
    empirical_gap_reference(spec, params, provider, n, m, 40, stream(1, 9), clamps)
    shares = np.mean(clamps, axis=0)
    gap, _, gap_unclamped = _assert_gap_matches_reference(spec, params, provider, n, m, 40, 1)
    if expect == "unclamped":  # z0 >= n e^{-1} everywhere at eta = 0
        assert shares.max() == 0.0
        assert _bits(gap_unclamped) == _bits(gap)
        return
    assert 0.0 < shares.mean() < 1.0
    if expect == "mixed":  # clamped and unclamped trials in every class, all valid
        assert np.all((shares > 0.0) & (shares < 1.0))
        assert math.isfinite(gap_unclamped) and gap_unclamped != gap
    else:  # a clamped slice's nonpositive denominator invalidates its trial
        assert math.isnan(gap_unclamped)


def test_training_the_bound_and_the_gate_reach_one_estimator_kernel(monkeypatch):
    calls = []
    kernel = obj.debiased_negatives

    def counting_kernel(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(obj, "debiased_negatives", counting_kernel)
    monkeypatch.setattr(bounds, "debiased_negatives", counting_kernel)
    rng = stream(5, 0)
    emb = rng.standard_normal((6, 3))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    inputs = obj.EstimatorInputs(pos_score=0.2, neg_scores=np.array([0.1, -0.4]),
                                 pos_set_scores=np.array([0.3]), eta=0.4, gamma=1.0)
    spec = discrete_spec(2)
    provider = make_provider(EtaConfig(kind="constant", value=0.3))
    callers = {
        "in_batch_loss": lambda: obj.in_batch_loss(emb, emb[::-1], objective="dcl", gamma=1.0,
                                                   etas=np.full(6, 0.3)),
        "debiased_loss": lambda: obj.debiased_loss(inputs),
        "g_estimate": lambda: obj.g_estimate(inputs),
        "g_estimate_many": lambda: obj.g_estimate_many(np.zeros((4, 2)), np.zeros((4, 1)),
                                                       np.full(4, 0.3), 1.0),
        "empirical_gap": lambda: bounds.empirical_gap(spec, encoder_for(spec), provider, 4, 2,
                                                      3, stream(2, 9)),
    }
    for name, call in callers.items():
        before = len(calls)
        call()
        assert len(calls) > before, name


def test_verify_prop1_doubling_matches_reference(monkeypatch):
    # a tiny stderr fraction doubles the trials 16 -> 32 -> 64, drawing each
    # call's trials after the previous call's from the same generator
    monkeypatch.setattr(bounds, "STDERR_FRACTION", 1e-9)
    spec = discrete_spec(7)
    params = encoder_for(spec, seed=7)
    provider = make_provider(EtaConfig(kind="constant", value=0.2))
    rng, rng_ref = stream(7, 9), stream(7, 9)
    report = bounds.verify_prop1(spec, params, provider, n=16, m=4, rng=rng, trials=16,
                                 max_trials=64)
    for trials in (16, 32, 64):
        expected = empirical_gap_reference(spec, params, provider, 16, 4, trials, rng_ref)
    assert report.trials == 64
    assert _bits((report.lhs, report.lhs_stderr, report.lhs_unclamped)) == _bits(expected)
    assert rng.random() == rng_ref.random()


def test_verify_prop1_doubling_stops_at_max_trials(monkeypatch):
    # 16 -> 24, not 32: the last doubling is capped at max_trials
    monkeypatch.setattr(bounds, "STDERR_FRACTION", 1e-9)
    spec = discrete_spec(7)
    params = encoder_for(spec, seed=7)
    provider = make_provider(EtaConfig(kind="constant", value=0.2))
    rng, rng_ref = stream(7, 9), stream(7, 9)
    report = bounds.verify_prop1(spec, params, provider, n=16, m=4, rng=rng, trials=16,
                                 max_trials=24)
    for trials in (16, 24):
        expected = empirical_gap_reference(spec, params, provider, 16, 4, trials, rng_ref)
    assert report.trials == 24
    assert _bits((report.lhs, report.lhs_stderr, report.lhs_unclamped)) == _bits(expected)
    assert rng.random() == rng_ref.random()


def test_gap_shrinks_with_large_samples():
    spec = discrete_spec(4, n_classes=2, n_points=6)
    params = encoder_for(spec, seed=4)
    provider = make_provider(EtaConfig(kind="true_oracle"), spec=spec)
    gap, stderr, _ = bounds.empirical_gap(
        spec, params, provider, n=4096, m=4096, trials=40, rng=stream(4, 1)
    )
    assert gap < 0.02


def test_gap_below_rhs_joint():
    for seed in range(5):
        spec = discrete_spec(seed + 10, n_classes=int(2 + seed % 3))
        params = encoder_for(spec, seed=seed + 10)
        provider = make_provider(EtaConfig(kind="constant", value=0.4))
        report = bounds.verify_prop1(
            spec, params, provider, n=16, m=4, rng=stream(seed + 10, 2), trials=100
        )
        assert report.holds
        assert report.lhs_stderr < 0.05 * report.rhs_total
        assert abs(report.rhs_total - (report.term_n + report.term_m + report.term_eta)) < 1e-12


def test_eta_matrix_uses_point_tokens():
    spec = discrete_spec(5, with_point_tokens=True)
    rng = stream(5, 3)
    corpus = [spec.point_tokens[int(rng.integers(0, len(spec.point_tokens)))] for _ in range(50)]
    lm = fit_ngram_seqs(corpus, alpha=1.0, vocab_size=spec.vocab_size)
    provider = make_provider(EtaConfig(kind="lm_log_linear", a=0.2, k=0.35), lm=lm)
    etas = bounds.eta_matrix(spec, provider)
    # eta_LM depends only on the point, not the class
    assert np.allclose(etas, etas[0][None, :])
    assert np.all((etas >= 1e-4) & (etas <= 0.9))


# ---------------------------------------------------------------------------
# supervised losses and the ordering lemma
# ---------------------------------------------------------------------------


def test_mean_classifier_single_class_zero():
    spec = uniform_spec(n_classes=1, seed=6)
    params = encoder_for(spec, seed=6)
    assert abs(bounds.sup_loss_mean_classifier(spec, params)) < 1e-12


def test_mean_classifier_constant_encoder_log_k():
    # a collapsed embedding gives every class the same logit, whatever the prior
    for k in (2, 3):
        spec = discrete_spec(7, n_classes=k)
        params = encoder_for(spec, seed=7)
        params.w1[:] = 0.0
        params.w2[:] = 0.0
        assert abs(bounds.sup_loss_mean_classifier(spec, params) - math.log(k)) < 1e-12


def test_mean_classifier_separated_classes_small_loss():
    # one point per class, orthogonal features, large gamma
    k = 3
    points = np.eye(k)
    pmfs = np.eye(k)
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(k, 1 / k)),
        conditionals=mix.DiscreteConditionals(points=points, pmfs=pmfs),
        templates=tuple(((0,),) for _ in range(k)),
        template_weights=tuple((1.0,) for _ in range(k)),
        vocab_size=1,
    )
    params = enc.init_params(k, 16, 8, stream(8, 66), gamma=10.0)
    loss = bounds.sup_loss_mean_classifier(spec, params)
    # embeddings of distinct orthogonal points stay distinct; radius 10
    # separation drives the softmax loss toward 0
    assert loss < 0.25


def test_best_linear_below_mean_classifier():
    for seed in range(5):
        spec = discrete_spec(seed + 20)
        params = encoder_for(spec, seed=seed + 20)
        mu_loss = bounds.sup_loss_mean_classifier(spec, params)
        best, _ = bounds.sup_loss_best_linear(spec, params)
        assert best <= mu_loss + 1e-12


def test_best_linear_constant_encoder():
    # constant embeddings make the softmax output input-independent, so the
    # minimum is the entropy of the task prior: log K for a uniform prior
    spec = uniform_spec(n_classes=3, seed=9)
    params = encoder_for(spec, seed=9)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    value, _ = bounds.sup_loss_best_linear(spec, params)
    assert abs(value - math.log(3)) < 1e-9

    skewed = discrete_spec(9)
    params = encoder_for(skewed, seed=9)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    rho = skewed.class_dist.probs
    entropy = -float(rho @ np.log(rho))
    value, _ = bounds.sup_loss_best_linear(skewed, params)
    assert abs(value - entropy) < 1e-6


def test_lemma_threshold_and_errors():
    spec = uniform_spec()
    assert abs(bounds.lemma_a1_threshold(spec) - 9.0) < 1e-12
    params = encoder_for(spec, seed=10)
    with pytest.raises(ValueError, match="threshold"):
        bounds.lemma_a1_check(spec, params, n=8)
    spec3 = discrete_spec(11, n_classes=3)
    params3 = encoder_for(spec3, seed=11)
    params3.w1[:] = 0.0
    params3.w2[:] = 0.0
    threshold = bounds.lemma_a1_threshold(spec3)
    with pytest.raises(ValueError):
        bounds.lemma_a1_check(spec3, params3, n=max(1, int(threshold) - 2))


def test_lemma_ordering_random_encoders():
    spec = discrete_spec(12, n_classes=3)
    n = int(math.ceil(bounds.lemma_a1_threshold(spec))) + 2
    for seed in range(10):
        params = encoder_for(spec, seed=seed + 30, gamma=math.sqrt(2.0))
        report = bounds.lemma_a1_check(spec, params, n=n)
        assert report.holds, (report.l_sup, report.l_sup_mu, report.l_tilde)
