import numpy as np
import pytest

from helpers import (
    fit_ngram_reference, fit_ngram_seqs, pll_seqs, pseudo_log_likelihood_reference, token_batch,
    unpad,
)

from sdcl import mixture as mix
from sdcl import textsim as ts
from sdcl.rngstream import stream


def spec_with_templates(templates, weights, vocab_size, perturb=0.0):
    k = len(templates)
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(k, 1.0 / k)),
        conditionals=mix.GaussianConditionals(means=np.zeros((k, 2)), stddevs=np.ones(k)),
        templates=templates,
        template_weights=weights,
        vocab_size=vocab_size,
        report_perturb_prob=perturb,
    )


# ---------------------------------------------------------------------------
# fit_ngram
# ---------------------------------------------------------------------------


def test_fit_ngram_deterministic_bigram():
    lm = fit_ngram_seqs([(0, 1), (0, 1)], alpha=1e-12, vocab_size=2)
    assert abs(lm.conditionals()[0, 1] - 1.0) < 1e-10


def test_fit_ngram_unseen_context_is_uniform():
    lm = fit_ngram_seqs([(0, 0)], alpha=1.0, vocab_size=2)
    # token 1 never appears as left context: pure smoothing gives 1/V
    assert abs(lm.conditionals()[1, 0] - 0.5) < 1e-12
    assert abs(lm.conditionals()[1, 1] - 0.5) < 1e-12


def test_fit_ngram_add_one_hand_count():
    # corpus [0,1], [0,0]: bigrams (0->1) and (0->0) once each; token 0
    # occurs twice as a left context, so p(1|0) = (1+1)/(2+2) = 0.5
    lm = fit_ngram_seqs([(0, 1), (0, 0)], alpha=1.0, vocab_size=2)
    assert abs(lm.conditionals()[0, 1] - 0.5) < 1e-12
    assert lm.unigram_counts.tolist() == [3.0, 1.0]


def test_fit_ngram_errors():
    with pytest.raises(ValueError):
        fit_ngram_seqs([], alpha=1.0, vocab_size=2)
    with pytest.raises(ValueError):
        fit_ngram_seqs([(0, 5)], alpha=1.0, vocab_size=2)
    with pytest.raises(ValueError):
        ts.NGramLM(2, np.zeros((2, 2)), np.zeros(2), alpha=0.0)


def test_fit_ngram_matches_per_sentence_reference():
    rng = stream(21, 0)
    spec = spec_with_templates([((0, 1, 2), (6, 7)), ((3, 4),), ((5,),)],
                               [[1.0, 2.0], [1.0], [1.0]], 9, perturb=0.3)
    corpora = [
        unpad(*mix.sample_reports(spec, rng.integers(0, 3, size=400), rng)),
        [tuple(rng.integers(0, 9, size=rng.integers(1, 9))) for _ in range(60)],
        [(4,), (2,), (4,)],
        [np.array([0, 8, 8, 0])],
    ]
    for corpus in corpora:
        got = fit_ngram_seqs(corpus, alpha=0.5, vocab_size=9)
        want = fit_ngram_reference(corpus, alpha=0.5, vocab_size=9)
        assert got.bigram_counts.tobytes() == want.bigram_counts.tobytes()
        assert got.unigram_counts.tobytes() == want.unigram_counts.tobytes()
    for bad in ([(0, 1), ()], [(0, 9)], [(-1, 0)]):
        with pytest.raises(ValueError):
            fit_ngram_seqs(bad, alpha=0.5, vocab_size=9)
        with pytest.raises(ValueError):
            fit_ngram_reference(bad, alpha=0.5, vocab_size=9)


def test_conditionals_rows_sum_to_one():
    rng = stream(20, 0)
    corpus = [tuple(rng.integers(0, 7, size=rng.integers(1, 9))) for _ in range(40)]
    lm = fit_ngram_seqs(corpus, alpha=0.3, vocab_size=7)
    assert np.all(np.abs(lm.conditionals().sum(axis=1) - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# pseudo-log-likelihood
# ---------------------------------------------------------------------------


def test_pll_uniform_model():
    v, length = 4, 6
    lm = ts.NGramLM(v, np.zeros((v, v)), np.zeros(v), alpha=1.0)
    seqs = [tuple(i % v for i in range(n)) for n in (length, 2, 1)]
    plls = pll_seqs(lm, seqs)
    assert plls.shape == (3,)
    assert np.all(np.abs(plls - np.array([length, 2, 1]) * np.log(1.0 / v)) < 1e-12)


def test_pll_length_one_is_smoothed_unigram():
    lm = fit_ngram_seqs([(0, 1), (1, 1)], alpha=0.5, vocab_size=3)
    # unigram counts: [1, 3, 0]; p(0) = (1 + 0.5) / (4 + 1.5)
    expected = np.log(1.5 / 5.5)
    plls = pll_seqs(lm, [(0,), (0, 1), (0,)])
    assert abs(plls[0] - expected) < 1e-12 and plls[2] == plls[0]
    assert plls[1] != plls[0]


def test_pll_deterministic_chain_approaches_zero():
    # one long cyclic chain 0,1,2,0,1,2,... pins every masked conditional
    corpus = [tuple([0, 1, 2] * 60)]
    lm = fit_ngram_seqs(corpus, alpha=1e-10, vocab_size=3)
    assert np.all(np.abs(pll_seqs(lm, [(0, 1, 2), (1, 2, 0, 1)])) < 1e-6)


def test_pll_deterministic_across_runs():
    rng = stream(22, 0)
    corpus = [tuple(rng.integers(0, 6, size=5)) for _ in range(50)]
    lm = fit_ngram_seqs(corpus, alpha=1.0, vocab_size=6)
    batch = [(2, 5, 0, 1), (3,), (1, 1)]
    values = {pll_seqs(lm, batch).tobytes() for _ in range(5)}
    assert len(values) == 1


def test_pll_favors_frequent_template():
    # whenever one template dominates another 10x or more in the corpus, the
    # fit model scores the frequent one at least as high
    rng = stream(23, 0)
    for trial in range(10):
        v = 12
        frequent = tuple(rng.integers(0, v, size=5))
        rare = tuple(rng.integers(0, v, size=5))
        if frequent == rare:
            continue
        corpus = [frequent] * 200 + [rare] * 20
        lm = fit_ngram_seqs(corpus, alpha=1.0, vocab_size=v)
        pll_frequent, pll_rare = pll_seqs(lm, [frequent, rare])
        assert pll_frequent >= pll_rare


@pytest.mark.parametrize("kind", ["ragged", "one_row", "equal_length"])
def test_pll_batch_matches_per_sentence_reference(kind):
    # one batched call gives each sentence's PLL bit for bit as scoring it
    # alone, with the same float summation order
    rng = stream(28, 0)
    for trial in range(5):
        corpus = [tuple(rng.integers(0, 9, size=rng.integers(1, 8))) for _ in range(60)]
        lm = fit_ngram_seqs(corpus, alpha=0.5, vocab_size=9)
        seqs = token_batch(kind, rng, vocab=9)
        plls = pll_seqs(lm, seqs)
        expected = [pseudo_log_likelihood_reference(lm, seq) for seq in seqs]
        assert plls.tolist() == expected


def test_pll_rejects_empty_sequence():
    lm = fit_ngram_seqs([(0, 1)], alpha=1.0, vocab_size=2)
    ids, mask = mix.pad_tokens([(0, 1), (1,)])
    mask[1] = False
    with pytest.raises(ValueError, match="nonempty"):
        ts.pseudo_log_likelihood(lm, ids, mask)


# ---------------------------------------------------------------------------
# report generation
# ---------------------------------------------------------------------------


def test_generate_report_single_template_no_perturbation():
    spec = spec_with_templates((((0, 1, 2),),), ((1.0,),), vocab_size=3)
    rng = stream(24, 0)
    for _ in range(30):
        assert ts.generate_report(spec, 0, rng) == (0, 1, 2)


def test_generate_report_template_frequency():
    spec = spec_with_templates(
        (((0, 1), (2, 3)),), ((0.5, 0.5),), vocab_size=4
    )
    n = 10**5
    first = sum(r == (0, 1) for r in unpad(*mix.sample_reports(spec, [0] * n, stream(25, 0))))
    assert abs(first / n - 0.5) < 0.005


def test_generate_report_perturbation_hamming():
    template = (0, 1, 2, 3, 4)
    spec = spec_with_templates(((template,),), ((1.0,),), vocab_size=16, perturb=0.1)
    n = 10**5
    total = 0
    for report in unpad(*mix.sample_reports(spec, [0] * n, stream(26, 0))):
        total += sum(a != b for a, b in zip(report, template))
    assert abs(total / n - 0.1) < 0.01


def test_generate_report_invalid_class():
    spec = spec_with_templates((((0,),),), ((1.0,),), vocab_size=1)
    with pytest.raises(ValueError):
        ts.generate_report(spec, 3, stream(0, 0))


# ---------------------------------------------------------------------------
# tables and serialization
# ---------------------------------------------------------------------------


def test_pll_table_and_csv():
    # the CSV half is pll.csv of ``sdcl simulate``, pinned in tests/test_cli.py
    rng = stream(27, 0)
    corpus = [tuple(rng.integers(0, 4, size=3)) for _ in range(20)]
    lm = fit_ngram_seqs(corpus, alpha=1.0, vocab_size=4)
    table = ts.pll_table(lm, corpus)
    assert set(table) == set(corpus)
    assert list(table.values()) == pll_seqs(lm, list(table)).tolist()
    assert all(type(value) is float for value in table.values())
