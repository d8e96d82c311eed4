import numpy as np
import pytest

from helpers import fit_ngram_seqs, pll_seqs

from sdcl import eta as eta_mod
from sdcl import mixture as mix
from sdcl.rngstream import stream


def simple_spec(n_classes=10):
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(n_classes, 1.0 / n_classes)),
        conditionals=mix.GaussianConditionals(
            means=np.zeros((n_classes, 2)), stddevs=np.ones(n_classes)
        ),
        templates=tuple(((c, (c + 1) % n_classes),) for c in range(n_classes)),
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=n_classes,
    )


def test_constant_eta():
    provider = eta_mod.make_provider(eta_mod.EtaConfig(kind="constant", value=0.05))
    for cls in range(5):
        assert eta_mod.eta_of(provider, cls) == 0.05


def test_constant_eta_clamped():
    for value, clipped in ((0.95, eta_mod.ETA_MAX), (0.0, eta_mod.ETA_MIN)):
        provider = eta_mod.make_provider(eta_mod.EtaConfig(kind="constant", value=value))
        assert eta_mod.eta_of(provider, 0) == clipped


def test_true_oracle_reads_prior():
    spec = simple_spec()
    sub = mix.subsample_classes(spec, [0, 1, 2, 3, 4], 0.5)
    provider = eta_mod.make_provider(eta_mod.EtaConfig(kind="true_oracle"), spec=sub)
    assert abs(eta_mod.eta_of(provider, 0) - 0.2 * 0.5 / 1.5) < 1e-12
    assert abs(eta_mod.eta_of(provider, 7) - 0.2 / 1.5) < 1e-12
    # exact prior match across all classes
    for c in range(10):
        assert eta_mod.eta_of(provider, c) == sub.class_dist.probs[c]


def lm_provider(lm, **config):
    return eta_mod.make_provider(eta_mod.EtaConfig(kind="lm_log_linear", **config), lm=lm)


def test_lm_log_linear_at_pll_zero():
    # a near-deterministic chain pins every masked conditional, so PLL ~ 0
    # and eta ~ a
    lm = fit_ngram_seqs([tuple([0, 1, 2] * 60)], alpha=1e-10, vocab_size=3)
    provider = lm_provider(lm, a=0.2, k=0.35)
    (pll,) = pll_seqs(lm, [(0, 1, 2)])
    assert abs(pll) < 1e-6
    eta = eta_mod.eta_of(provider, 0, (0, 1, 2))
    assert eta == np.clip(0.2 * np.exp(0.35 * pll), 1e-4, 0.9)
    assert abs(eta - 0.2) < 1e-6


def test_lm_log_linear_monotone_in_pll():
    rng = stream(71, 0)
    corpus = [(0, 1, 2, 3)] * 30 + [tuple(rng.integers(0, 8, size=4)) for _ in range(30)]
    lm = fit_ngram_seqs(corpus, alpha=0.5, vocab_size=8)
    provider = lm_provider(lm, a=0.2, k=0.35)
    seqs = [tuple(int(t) for t in rng.integers(0, 8, size=rng.integers(1, 7))) for _ in range(200)]
    seqs += [(0, 1, 2, 3), (0, 1, 2)]
    plls = pll_seqs(lm, seqs)
    order = np.argsort(plls)
    assert plls[order[-1]] - plls[order[0]] > 10.0  # sentences of clearly differing PLL
    etas = eta_mod.eta_for_batch(provider, np.zeros(len(seqs), dtype=np.int64),
                                 mix.pad_tokens(seqs))
    assert np.array_equal(etas, np.clip(0.2 * np.exp(0.35 * plls), 1e-4, 0.9))
    assert np.all(np.diff(etas[order]) >= 0)
    assert np.all((etas >= 1e-4) & (etas <= 0.9))


def test_lm_log_linear_requires_tokens():
    lm = fit_ngram_seqs([(0, 1)], alpha=1.0, vocab_size=2)
    provider = eta_mod.make_provider(eta_mod.EtaConfig(kind="lm_log_linear"), lm=lm)
    with pytest.raises(ValueError):
        eta_mod.eta_of(provider, 0)


def test_eta_for_batch_matches_scalar():
    spec = simple_spec()
    lm = fit_ngram_seqs([(0, 1), (1, 2), (2, 3)], alpha=1.0, vocab_size=10)
    rng = stream(70, 0)
    classes = rng.integers(0, 10, size=20)
    token_seqs = [tuple(rng.integers(0, 10, size=3)) for _ in range(20)]
    for config in (
        eta_mod.EtaConfig(kind="constant", value=0.3),
        eta_mod.EtaConfig(kind="true_oracle"),
        eta_mod.EtaConfig(kind="lm_log_linear", a=0.2, k=0.35),
    ):
        provider = eta_mod.make_provider(config, spec=spec, lm=lm)
        batch = eta_mod.eta_for_batch(provider, classes=classes,
                                      tokens=mix.pad_tokens(token_seqs))
        for i in range(20):
            assert abs(batch[i] - eta_mod.eta_of(provider, int(classes[i]), token_seqs[i])) < 1e-15
        assert np.all(batch >= eta_mod.ETA_MIN) and np.all(batch <= eta_mod.ETA_MAX)


def test_config_validation():
    with pytest.raises(ValueError):
        eta_mod.EtaConfig(kind="mystery")
    with pytest.raises(TypeError):  # the clip range is fixed, not a field
        eta_mod.EtaConfig(eta_max=0.5)
    with pytest.raises(ValueError):
        eta_mod.EtaConfig(kind="lm_log_linear", a=-1.0)
    with pytest.raises(ValueError):
        eta_mod.make_provider(eta_mod.EtaConfig(kind="true_oracle"))
    with pytest.raises(ValueError):
        eta_mod.make_provider(eta_mod.EtaConfig(kind="lm_log_linear"))


def test_calibrate_log_linear_maps_the_quantiles_onto_the_range():
    plls = stream(72, 0).normal(-8.0, 3.0, size=500)
    for eta_range, quantiles in (((0.01, 0.2), (0.25, 0.75)), ((0.05, 0.3), (0.1, 0.9))):
        a, k = eta_mod.calibrate_log_linear(plls, eta_range, quantiles)
        mapped = a * np.exp(k * np.quantile(plls, quantiles))
        assert np.all(np.abs(mapped - eta_range) < 1e-12)


def test_calibrate_log_linear_rejects_bad_input():
    plls = np.linspace(-10.0, -2.0, 50)
    for eta_range in ((0.2, 0.1), (0.0, 0.2), (0.1, 1.0)):
        with pytest.raises(ValueError, match="eta_range"):
            eta_mod.calibrate_log_linear(plls, eta_range, (0.25, 0.75))
    with pytest.raises(ValueError, match="at least two"):
        eta_mod.calibrate_log_linear([-3.0], (0.01, 0.2), (0.25, 0.75))
    with pytest.raises(ValueError, match="degenerate"):
        eta_mod.calibrate_log_linear(np.full(50, -3.0), (0.01, 0.2), (0.25, 0.75))
