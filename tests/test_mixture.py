import json
import tracemalloc

import numpy as np
import pytest

from helpers import lm_corpus_loop, sample_reports_loop, sample_reports_reference

from sdcl import mixture as mix
from sdcl import pipelines as pl
from sdcl.rngstream import stream


def uniform_gaussian_spec(n_classes=3, dim=2, sigma=1.0, seed=0):
    rng = stream(seed, 99)
    means = rng.standard_normal((n_classes, dim))
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(n_classes, 1.0 / n_classes)),
        conditionals=mix.GaussianConditionals(means=means, stddevs=np.full(n_classes, sigma)),
        templates=tuple(((c, c + n_classes),) for c in range(n_classes)),
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=2 * n_classes,
    )


def small_discrete_spec(probs=(0.3, 0.7), seed=0):
    rng = stream(seed, 98)
    probs = np.array(probs)
    k = probs.size
    n_points = 3
    pmfs = rng.random((k, n_points))
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.DiscreteConditionals(
            points=rng.standard_normal((n_points, 2)), pmfs=pmfs
        ),
        templates=tuple(((c,),) for c in range(k)),
        template_weights=tuple((1.0,) for _ in range(k)),
        vocab_size=k,
    )


# ---------------------------------------------------------------------------
# Token batches
# ---------------------------------------------------------------------------


def test_pad_tokens_layout():
    ids, mask = mix.pad_tokens([(3, 1), (2,), np.array([4, 4, 0])])
    assert ids.dtype == np.int64 and ids.shape == mask.shape == (3, 3)
    assert ids.tolist() == [[3, 1, 0], [2, 0, 0], [4, 4, 0]]
    assert mask.tolist() == [[True, True, False], [True, False, False], [True, True, True]]
    ids, mask = mix.pad_tokens([])
    assert ids.shape == mask.shape == (0, 1)


def test_pad_tokens_rejects_empty_sequence():
    with pytest.raises(ValueError, match="nonempty"):
        mix.pad_tokens([(1, 2), ()])


# ---------------------------------------------------------------------------
# Template weights and report sampling
# ---------------------------------------------------------------------------


def three_template_spec(perturb):
    """Three classes, each with three templates of different lengths and
    uneven weights."""
    templates = tuple(((c, 3), (c, 4, 5, 6), (7 - c,)) for c in range(3))
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.array([0.2, 0.5, 0.3])),
        conditionals=mix.GaussianConditionals(means=np.zeros((3, 2)), stddevs=np.ones(3)),
        templates=templates,
        template_weights=((2.0, 1.0, 0.5), (0.1, 0.1, 0.8), (1.0, 0.0, 3.0)),
        vocab_size=8,
        report_perturb_prob=perturb,
    )


@pytest.mark.parametrize("weights", [
    (0.0, 0.0),        # no mass to draw from
    (np.inf, 1.0),
    (np.nan, 1.0),
    (-1.0,),           # a lone negative weight normalizes to 1
    (-1.0, 2.0),
    (1e308, 1e308),    # the sum overflows
])
def test_template_weights_validated_on_the_spec(weights):
    templates = tuple((0,) for _ in weights)
    with pytest.raises(ValueError, match="template weights"):
        mix.MixtureSpec(
            class_dist=mix.ClassDistribution(np.array([1.0])),
            conditionals=mix.GaussianConditionals(means=np.zeros((1, 2)), stddevs=np.ones(1)),
            templates=(templates,),
            template_weights=(weights,),
            vocab_size=1,
        )


REPORT_SPECS = {
    "tradeoff": lambda: pl.tradeoff_spec(pl.TradeoffConfig()),
    "three_templates_p0": lambda: three_template_spec(0.0),
    "three_templates_p0.05": lambda: three_template_spec(0.05),
    "three_templates_p0.3": lambda: three_template_spec(0.3),
    "three_templates_p1": lambda: three_template_spec(1.0),
    "analog": lambda: pl.analog_spec(pl.AnalogConfig()),
}


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
@pytest.mark.parametrize("name", sorted(REPORT_SPECS))
def test_sample_reports_matches_per_report_reference(name, as_array):
    spec = REPORT_SPECS[name]()
    classes = mix.sample_class_array(spec.class_dist, 600, stream(70, 0))
    if not as_array:
        classes = [int(c) for c in classes]
    batch_rng, ref_rng = stream(70, 1), stream(70, 1)
    ids, mask = mix.sample_reports(spec, classes, batch_rng)
    ref_ids, ref_mask = mix.pad_tokens(
        [sample_reports_reference(spec, int(c), ref_rng) for c in classes])
    assert ids.dtype == ref_ids.dtype and mask.dtype == ref_mask.dtype
    assert np.array_equal(ids, ref_ids) and np.array_equal(mask, ref_mask)
    # both generators are left in the same state
    assert batch_rng.random() == ref_rng.random()
    assert batch_rng.integers(2**30) == ref_rng.integers(2**30)


@pytest.mark.parametrize("size", [0, 1, 2000])
@pytest.mark.parametrize("perturb", [0.0, 0.05, 0.3, 1.0])
def test_sample_reports_matches_the_per_report_loop(perturb, size):
    # templates of unequal lengths, length-1 ones and a zero-weight one; at
    # perturb 1 every report rewinds the generator once
    spec = three_template_spec(perturb)
    classes = mix.sample_class_array(spec.class_dist, size, stream(73, size))
    rng, ref_rng = stream(73, 1), stream(73, 1)
    ids, mask = mix.sample_reports(spec, classes, rng)
    ref_ids, ref_mask = mix.pad_tokens(sample_reports_loop(spec, classes, ref_rng))
    assert ids.dtype == ref_ids.dtype and mask.dtype == ref_mask.dtype
    assert ids.shape == ref_ids.shape and mask.shape == ref_mask.shape
    assert np.array_equal(ids, ref_ids) and np.array_equal(mask, ref_mask)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("size", [0, 1, 2000])
@pytest.mark.parametrize("perturb", [0.0, 0.05, 1.0])
def test_sample_marginal_reports_matches_the_interleaved_loop(perturb, size):
    spec = three_template_spec(perturb)
    rng, ref_rng = stream(74, size), stream(74, size)
    ids, mask = mix.sample_marginal_reports(spec, size, rng)
    ref_ids, ref_mask = mix.pad_tokens(lm_corpus_loop(spec, size, ref_rng))
    assert ids.shape == ref_ids.shape and mask.shape == ref_mask.shape
    assert np.array_equal(ids, ref_ids) and np.array_equal(mask, ref_mask)
    assert rng.random() == ref_rng.random()


def test_sample_reports_rejects_invalid_class():
    spec = three_template_spec(0.3)
    ids, mask = mix.sample_reports(spec, [], stream(72, 0))
    assert ids.shape == mask.shape == (0, 1)
    for bad in ([0, 3], [-1], np.array([2, 1, 7])):
        with pytest.raises(ValueError, match="invalid class id"):
            mix.sample_reports(spec, bad, stream(72, 0))
        with pytest.raises(ValueError, match="invalid class id"):
            sample_reports_loop(spec, bad, stream(72, 0))


# ---------------------------------------------------------------------------
# ClassDistribution and sampling
# ---------------------------------------------------------------------------


def test_class_distribution_validation():
    with pytest.raises(ValueError):
        mix.ClassDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        mix.ClassDistribution(np.array([1.0, 0.0]))
    dist = mix.ClassDistribution(np.array([0.2, 0.8]))
    assert dist.rho_min == 0.2


def test_sample_class_degenerate_prior():
    dist = mix.ClassDistribution(np.array([1.0]))
    assert np.array_equal(mix.sample_class_array(dist, 50, stream(0, 1)), np.zeros(50))


@pytest.mark.parametrize("probs", [[0.1, 0.25, 0.05, 0.6], [0.1] * 10])
def test_sample_class_matches_generator_choice(probs):
    # a batch of class draws is one rng.choice(K, p=prior) per draw, in order
    dist = mix.ClassDistribution(np.array(probs))
    ours, theirs = stream(71, 0), stream(71, 0)
    draws = mix.sample_class_array(dist, 1000, ours)
    assert draws.tolist() == [int(theirs.choice(dist.num_classes, p=dist.probs))
                              for _ in range(1000)]
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("p0", [0.5, 0.2])
def test_sample_class_law_of_large_numbers(p0):
    dist = mix.ClassDistribution(np.array([p0, 1.0 - p0]))
    draws = mix.sample_class_array(dist, 10**6, stream(1, 2))
    assert abs(np.mean(draws == 0) - p0) < 0.005


def test_sample_conditional_zero_variance_hits_mean():
    spec = uniform_gaussian_spec(sigma=0.0)
    feats, points = mix.sample_features_for_classes(spec, [1, 0, 1], stream(2, 0))
    assert np.array_equal(feats, spec.conditionals.means[[1, 0, 1]])
    assert points is None


def test_continuous_features_are_means_plus_scaled_noise():
    # the in-place scale and shift equal means[c] + stddevs[c] * noise bit
    # for bit, a zero stddev included, and draw nothing beyond the noise
    rng = stream(2, 1)
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(4, 0.25)),
        conditionals=mix.GaussianConditionals(means=rng.standard_normal((4, 16)),
                                              stddevs=np.array([0.3, 1.7, 0.0, 1.0])),
        templates=tuple(((c,),) for c in range(4)),
        template_weights=tuple((1.0,) for _ in range(4)),
        vocab_size=4,
    )
    classes = rng.integers(0, 4, size=1000)
    ours, theirs = stream(2, 2), stream(2, 2)
    feats, _ = mix.sample_features_for_classes(spec, classes, ours)
    cond = spec.conditionals
    expected = cond.means[classes] + cond.stddevs[classes, None] * theirs.standard_normal(
        (classes.size, cond.dim))
    assert feats.tobytes() == expected.tobytes()
    assert ours.random() == theirs.random()


def test_sample_conditional_concentrated_pmf():
    spec = small_discrete_spec()
    pmfs = np.zeros_like(spec.conditionals.pmfs)
    pmfs[:, 1] = 1.0
    spec = mix.MixtureSpec(
        class_dist=spec.class_dist,
        conditionals=mix.DiscreteConditionals(points=spec.conditionals.points, pmfs=pmfs),
        templates=spec.templates,
        template_weights=spec.template_weights,
        vocab_size=spec.vocab_size,
    )
    feats, points = mix.sample_features_for_classes(spec, np.zeros(20, dtype=int), stream(3, 0))
    assert np.array_equal(points, np.ones(20))
    assert np.array_equal(feats, np.tile(spec.conditionals.points[1], (20, 1)))


def test_sample_conditional_clt_mean():
    # sample mean of a standard Gaussian is within 3 sigma / sqrt(n) of zero
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.array([1.0])),
        conditionals=mix.GaussianConditionals(means=np.zeros((1, 2)), stddevs=np.ones(1)),
        templates=(((0,),),),
        template_weights=((1.0,),),
        vocab_size=1,
    )
    feats, _ = mix.sample_features_for_classes(spec, np.zeros(10**5, dtype=int), stream(4, 0))
    assert np.all(np.abs(feats.mean(axis=0)) < 0.02)


def test_sample_conditional_invalid_class():
    # an id below 0 must not wrap around to the last class
    specs = (uniform_gaussian_spec(), small_discrete_spec(), pl.tradeoff_spec(pl.TradeoffConfig()))
    for spec in specs:
        k = spec.num_classes
        feats, _ = mix.sample_features_for_classes(spec, [], stream(0, 0))
        assert feats.shape == (0, spec.dim)
        for bad in ([-1], [0, k], np.array([k - 1, 7 + k, 0])):
            with pytest.raises(ValueError, match="invalid class id"):
                mix.sample_features_for_classes(spec, bad, stream(0, 0))


def test_sample_marginal_degenerate_prior_equals_conditional():
    spec = small_discrete_spec(probs=(1.0 - 1e-15, 1e-15))
    # effectively class 0 always; exact version with probs=[1,0] is invalid (entries > 0)
    rng, ref = stream(5, 0), stream(5, 0)
    classes = mix.sample_class_array(spec.class_dist, 200, rng)
    assert np.all(classes == 0)
    ref.random(200)  # the class draws
    feats, points = mix.sample_features_for_classes(spec, classes, rng)
    ref_feats, ref_points = mix.sample_features_for_classes(spec, np.zeros(200, dtype=int), ref)
    assert np.array_equal(points, ref_points) and np.array_equal(feats, ref_feats)


@pytest.mark.parametrize("seed", range(5))
def test_discrete_features_match_per_point_choice(seed):
    # one rng.choice(P, p=pmfs[c]) per point, bit for bit, zero-probability
    # points (trailing ones included) never drawn
    rng = stream(seed, 97)
    k, n_points = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    pmfs = rng.random((k, n_points)) * (rng.random((k, n_points)) < 0.6)
    pmfs[:, 0] += 1e-3  # every class keeps some mass
    pmfs[:, -1] = 0.0
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(k, 1.0 / k)),
        conditionals=mix.DiscreteConditionals(points=rng.standard_normal((n_points, 3)),
                                              pmfs=pmfs),
        templates=tuple(((0,),) for _ in range(k)),
        template_weights=tuple((1.0,) for _ in range(k)),
        vocab_size=1,
    )
    classes = rng.integers(0, k, size=500)
    ours, theirs = stream(seed, 96), stream(seed, 96)
    feats, points = mix.sample_features_for_classes(spec, classes, ours)
    expected = [int(theirs.choice(n_points, p=pmfs[c])) for c in classes]
    assert points.tolist() == expected
    assert np.all(pmfs[classes, points] > 0)
    assert feats.tobytes() == spec.conditionals.points[expected].tobytes()
    assert ours.random() == theirs.random()


def test_discrete_features_stay_linear_in_memory():
    # 200k draws at P = 32 used to peak at about 296 B per draw: an (n, P)
    # gather of the CDFs and its (n, P) comparison
    rng = stream(8, 97)
    pmfs = rng.random((4, 32))
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(4, 0.25)),
        conditionals=mix.DiscreteConditionals(points=rng.standard_normal((32, 2)), pmfs=pmfs),
        templates=tuple(((0,),) for _ in range(4)),
        template_weights=tuple((1.0,) for _ in range(4)),
        vocab_size=1,
    )
    n = 200_000
    classes = rng.integers(0, 4, size=n)
    tracemalloc.start()
    try:
        mix.sample_features_for_classes(spec, classes, stream(8, 96))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n < 100


# (probability rows, least steps): zero-mass points (repeated CDF values,
# trailing 1.0s); a cluster of tiny masses inside one bucket; one point; random rows
CHOICE_CASES = [
    ([[0.0, 0.3, 0.0, 0.0, 0.7, 0.0, 0.0], [0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]], 1),
    ([[0.5, 1e-6, 1e-6, 1e-6, 1e-6, 0.5 - 4e-6], [0.2] * 5 + [0.0]], 3),
    ([[1.0]], 0),
    (stream(9, 97).random((5, 32)), 1),
]


@pytest.mark.parametrize("probs,least_steps", CHOICE_CASES)
def test_choice_indices_match_searchsorted(probs, least_steps):
    probs = np.asarray(probs, dtype=np.float64)
    cdfs = [mix.choice_cdf(row) for row in probs]  # one rng.choice CDF per set
    s, p = probs.shape
    table = mix.choice_table(probs)
    buckets = table.lo.shape[1]
    assert buckets >= 4 * p and buckets & (buckets - 1) == 0
    assert table.steps >= least_steps
    values = np.concatenate(cdfs)
    rng, twin = stream(10, p), stream(10, p)
    u = np.concatenate([
        rng.random(2000),
        [0.0, np.nextafter(1.0, 0.0)],
        np.arange(buckets) / buckets,  # bucket edges j/G and just below them
        np.nextafter(np.arange(1, buckets + 1) / buckets, 0.0),
        values[values < 1.0],  # exact CDF values and just below them
        np.nextafter(values[values > 0.0], 0.0),
    ])
    twin.random(2000)
    for sets in (np.full(u.size, s - 1), rng.integers(0, s, size=u.size)):  # one set, mixed
        expected = [cdfs[c].searchsorted(x, side="right") for c, x in zip(sets, u)]
        assert mix.choice_indices(table, sets, u).tolist() == expected
    twin.integers(0, s, size=u.size)
    assert rng.random() == twin.random()  # the kernel draws nothing


def test_choice_indices_broadcast_sets_over_columns():
    # empirical_gap's layout: one set id per column, shared by every row
    probs = CHOICE_CASES[3][0]
    table = mix.choice_table(probs)
    u = stream(11, 0).random((7, 12))
    sets = np.repeat(np.arange(5), [4, 2, 2, 2, 2])
    expected = np.stack([mix.choice_cdf(probs[c]).searchsorted(u[:, j], side="right")
                         for j, c in enumerate(sets)], axis=1)
    assert np.array_equal(mix.choice_indices(table, sets, u), expected)


def test_sample_marginal_matches_enumerated_pmf():
    spec = small_discrete_spec()
    n = 10**6
    rng = stream(6, 0)
    classes = mix.sample_class_array(spec.class_dist, n, rng)
    _, idx = mix.sample_features_for_classes(spec, classes, rng)
    empirical = np.bincount(idx, minlength=3) / n
    expected = mix.exact_marginal_pmf(spec)
    assert np.all(np.abs(empirical - expected) < 0.003)


def test_true_negative_two_classes_always_other():
    spec = small_discrete_spec(probs=(0.4, 0.6))
    rng = stream(7, 0)
    prior = mix.true_negative_prior(spec.class_dist, 0)
    assert np.all(rng.choice(2, size=100, p=prior) == 1)


def test_true_negative_renormalized_prior():
    probs = np.array([0.5, 0.3, 0.2])
    spec = mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.GaussianConditionals(means=np.zeros((3, 2)), stddevs=np.ones(3)),
        templates=tuple(((c,),) for c in range(3)),
        template_weights=tuple((1.0,) for _ in range(3)),
        vocab_size=3,
    )
    prior = mix.true_negative_prior(spec.class_dist, 0)
    assert np.allclose(prior, [0.0, 0.6, 0.4], atol=1e-15)
    rng = stream(8, 0)
    draws = rng.choice(3, size=10**6, p=prior)
    freq = np.bincount(draws, minlength=3) / 10**6
    assert freq[0] == 0.0
    assert abs(freq[1] - 0.6) < 0.005
    assert abs(freq[2] - 0.4) < 0.005


def test_true_negative_empirical_matches_decomposition_identity():
    spec = small_discrete_spec()
    expected = mix.exact_negative_pmf(spec, 0)
    manual = (mix.exact_marginal_pmf(spec) - spec.class_dist.probs[0] * spec.conditionals.pmfs[0]) / (
        1.0 - spec.class_dist.probs[0]
    )
    assert np.allclose(expected, manual, atol=1e-15)
    # draw E_0 as the simulator composes it: a class from the renormalized
    # prior, then a point from that class's conditional
    rng = stream(9, 0)
    n = 10**5
    prior = mix.true_negative_prior(spec.class_dist, 0)
    classes = rng.choice(spec.num_classes, size=n, p=prior)
    _, idx = mix.sample_features_for_classes(spec, classes, rng)
    counts = np.bincount(idx, minlength=3)
    assert np.all(np.abs(counts / n - expected) < 0.005)


def test_true_negative_error_when_single_class():
    spec = uniform_gaussian_spec()
    dist = mix.ClassDistribution(np.array([1.0]))
    with pytest.raises(ValueError):
        mix.true_negative_prior(dist, 0)


def test_class_frequency_concentration_invariant():
    # empirical true-negative class frequencies within 3 sqrt(p(1-p)/n)
    probs = np.array([0.25, 0.4, 0.2, 0.15])
    dist = mix.ClassDistribution(probs)
    prior = mix.true_negative_prior(dist, 1)
    n = 200_000
    draws = stream(10, 0).choice(4, size=n, p=prior)
    freq = np.bincount(draws, minlength=4) / n
    for c in range(4):
        tol = 3 * np.sqrt(prior[c] * (1 - prior[c]) / n) + 1e-12
        assert abs(freq[c] - prior[c]) <= tol


# ---------------------------------------------------------------------------
# Decomposition residual: D = rho(c) D_c + (1 - rho(c)) E_c, by enumeration
# ---------------------------------------------------------------------------


def tv_distance(p, q):
    return 0.5 * float(np.abs(p - q).sum())


def decomposition_residual(spec, c):
    """TV distance between D and rho(c) * D_c + (1 - rho(c)) * E_c."""
    rho_c = spec.class_dist.probs[c]
    recon = rho_c * spec.conditionals.pmfs[c] + (1.0 - rho_c) * mix.exact_negative_pmf(spec, c)
    return tv_distance(mix.exact_marginal_pmf(spec), recon)


def test_decomposition_residual_zero_for_valid_specs():
    for seed in range(25):
        rng = stream(11, seed)
        k = int(rng.integers(2, 6))
        n_points = int(rng.integers(2, 8))
        probs = rng.random(k) + 0.1
        probs /= probs.sum()
        pmfs = rng.random((k, n_points)) + 0.05
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        spec = mix.MixtureSpec(
            class_dist=mix.ClassDistribution(probs),
            conditionals=mix.DiscreteConditionals(
                points=rng.standard_normal((n_points, 2)), pmfs=pmfs
            ),
            templates=tuple(((c % 3,),) for c in range(k)),
            template_weights=tuple((1.0,) for _ in range(k)),
            vocab_size=4,
        )
        for c in range(k):
            assert decomposition_residual(spec, c) <= 1e-12


def test_decomposition_residual_requires_discrete():
    # both exact pmfs the residual enumerates refuse a continuous spec
    with pytest.raises(ValueError, match="discrete-mode"):
        mix.exact_marginal_pmf(uniform_gaussian_spec())
    with pytest.raises(ValueError, match="discrete-mode"):
        mix.exact_negative_pmf(uniform_gaussian_spec(), 0)


def test_perturbed_negative_pmf_has_known_tv():
    # moving 0.1 of mass between two points shifts TV by exactly 0.1
    spec = small_discrete_spec(probs=(0.3, 0.7))
    e0 = mix.exact_negative_pmf(spec, 0)
    corrupted = e0.copy()
    corrupted[0] -= 0.1
    corrupted[1] += 0.1
    assert abs(tv_distance(e0, corrupted) - 0.1) < 1e-12
    rho0 = spec.class_dist.probs[0]
    recon = rho0 * spec.conditionals.pmfs[0] + (1 - rho0) * corrupted
    expected = (1 - rho0) * 0.1
    assert abs(tv_distance(mix.exact_marginal_pmf(spec), recon) - expected) < 1e-12


# ---------------------------------------------------------------------------
# Class subsampling
# ---------------------------------------------------------------------------


def test_subsample_classes_matches_closed_form():
    spec = uniform_gaussian_spec(n_classes=10)
    selected = [0, 1, 2, 3, 4]
    sub = mix.subsample_classes(spec, selected, 0.5)
    # 0.2 r / (1+r) and 0.2 / (1+r) at r = 0.5
    assert np.allclose(sub.class_dist.probs[:5], 0.2 * 0.5 / 1.5, atol=1e-12)
    assert np.allclose(sub.class_dist.probs[5:], 0.2 / 1.5, atol=1e-12)

    sub = mix.subsample_classes(spec, selected, 1.0)
    assert np.allclose(sub.class_dist.probs, 0.1, atol=1e-12)

    sub = mix.subsample_classes(spec, selected, 0.1)
    assert np.all(np.abs(sub.class_dist.probs[:5] - 0.018181818) < 1e-5)
    assert np.all(np.abs(sub.class_dist.probs[5:] - 0.181818181) < 1e-5)


def test_subsample_classes_invariants():
    spec = uniform_gaussian_spec(n_classes=6)
    sub = mix.subsample_classes(spec, [1, 4], 0.37)
    assert abs(sub.class_dist.probs.sum() - 1.0) <= 1e-12
    assert sub.conditionals is spec.conditionals
    assert sub.templates is spec.templates
    with pytest.raises(ValueError):
        mix.subsample_classes(spec, [], 0.5)
    with pytest.raises(ValueError):
        mix.subsample_classes(spec, [0], 0.0)


# ---------------------------------------------------------------------------
# In-batch false negatives
# ---------------------------------------------------------------------------


def test_false_negative_rate_matches_prior():
    # uniform prior over K classes: a marginal negative collides with the
    # anchor's class with probability 1/K
    k = 4
    spec = uniform_gaussian_spec(n_classes=k)
    rng = stream(14, 0)
    n = 10**5
    anchors = mix.sample_class_array(spec.class_dist, n, rng)
    negatives = mix.sample_class_array(spec.class_dist, n, rng)
    rate = np.mean(anchors == negatives)
    assert abs(rate - 1.0 / k) < 0.01


def test_spec_json_round_trip(tmp_path):
    for spec in (uniform_gaussian_spec(), small_discrete_spec()):
        path = tmp_path / "spec.json"
        mix.save_spec(spec, path)
        with open(path) as f:
            loaded = mix.spec_from_dict(json.load(f))
        assert loaded.mode == spec.mode
        assert np.array_equal(loaded.class_dist.probs, spec.class_dist.probs)
        assert loaded.templates == spec.templates
        if spec.mode == "discrete":
            assert np.array_equal(loaded.conditionals.pmfs, spec.conditionals.pmfs)
        else:
            assert np.array_equal(loaded.conditionals.means, spec.conditionals.means)
