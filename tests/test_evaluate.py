import numpy as np
import pytest

from sdcl import encoder as enc
from sdcl import evaluate as ev
from sdcl import mixture as mix
from sdcl.rngstream import stream


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------


def test_probe_separable_embeddings_perfect():
    k, per = 4, 30
    labels = np.repeat(np.arange(k), per)
    embs = np.eye(k)[labels] + 0.01 * stream(80, 0).standard_normal((k * per, k))
    acc = ev.linear_probe(embs, labels, embs, labels, 1.0, stream(80, 1)).accuracy
    assert acc == 1.0


def test_probe_random_labels_chance_level():
    # embeddings carry no label information, so accuracy sits at 1/K with
    # point-level binomial noise
    k, per = 4, 200
    rng = stream(81, 0)
    labels = rng.permutation(np.repeat(np.arange(k), per))
    embs = rng.standard_normal((k * per, 6))
    test_labels = rng.permutation(np.repeat(np.arange(k), 500))
    test_embs = rng.standard_normal((k * 500, 6))
    acc = ev.linear_probe(embs, labels, test_embs, test_labels, 1.0, stream(81, 1)).accuracy
    assert abs(acc - 1.0 / k) < 0.05


def test_probe_full_labels_beat_fraction_on_average():
    # averaged over 5 seeds, the full-label probe is at least as accurate as
    # the 10%-label probe
    k, per = 3, 120
    deltas = []
    for seed in range(5):
        rng = stream(82, seed)
        labels = np.repeat(np.arange(k), per)
        embs = np.eye(k)[labels] + 0.8 * rng.standard_normal((k * per, k))
        test_labels = np.repeat(np.arange(k), 80)
        test_embs = np.eye(k)[test_labels] + 0.8 * rng.standard_normal((k * 80, k))
        acc_small = ev.linear_probe(embs, labels, test_embs, test_labels, 0.1,
                                    stream(82, seed, 1)).accuracy
        acc_full = ev.linear_probe(embs, labels, test_embs, test_labels, 1.0,
                                   stream(82, seed, 2)).accuracy
        deltas.append(acc_full - acc_small)
    assert np.mean(deltas) >= 0.0


def test_full_label_probe_fits_the_pool_uncopied(monkeypatch):
    # every row labelled: fit_softmax gets the pool itself, C-contiguous
    # float64, and fits what the indexed copy of the pool fits
    from sdcl.linear_head import fit_softmax, predict_classes

    k, per = 3, 200
    rng = stream(84, 0)
    labels = np.repeat(np.arange(k), per)
    pool = np.eye(k)[labels] + 0.8 * rng.standard_normal((k * per, k))
    test_labels = np.repeat(np.arange(k), 100)
    test_embs = np.eye(k)[test_labels] + 0.8 * rng.standard_normal((k * 100, k))
    seen = []

    def recording_fit(x, y, **kwargs):
        seen.append(x)
        return fit_softmax(x, y, **kwargs)

    monkeypatch.setattr(ev, "fit_softmax", recording_fit)
    acc = ev.linear_probe(pool, labels, test_embs, test_labels, 1.0, stream(84, 1)).accuracy
    (x,) = seen
    assert np.shares_memory(x, pool)
    assert x.flags.c_contiguous and x.dtype == np.float64
    copied = fit_softmax(pool[np.arange(pool.shape[0])], labels, num_classes=k,
                         fit_intercept=True, gtol=1e-6, max_iter=1000, l2=1e-4)
    assert acc == float(np.mean(predict_classes(copied, test_embs) == test_labels))


def test_probe_single_item_subset_errors():
    labels = np.array([0, 0, 1, 1])
    embs = np.eye(2)[labels]
    # a one-element labeled subset can never cover two classes
    with pytest.raises(ValueError, match="resampling"):
        ev.linear_probe(embs, labels, embs, labels, 0.25, stream(83, 0))
    with pytest.raises(ValueError):
        ev.linear_probe(embs, np.zeros(4, dtype=int), embs, labels, 1.0, stream(83, 1))


def probe_problem():
    k, per = 3, 40
    rng = stream(85, 0)
    labels = np.repeat(np.arange(k), per)
    embs = np.eye(k)[labels] + 0.3 * rng.standard_normal((k * per, k))
    return embs, labels


def test_probe_reports_convergence_and_evaluations():
    embs, labels = probe_problem()
    accuracy, converged, evaluations = ev.linear_probe(embs, labels, embs, labels, 1.0,
                                                       stream(85, 1))
    assert accuracy > 0.9
    assert converged is True
    assert isinstance(evaluations, int) and evaluations > 1


def test_probe_rejects_non_finite_test_embeddings():
    embs, labels = probe_problem()
    for bad in (np.nan, np.inf):
        test_embs = embs.copy()
        test_embs[5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ev.linear_probe(embs, labels, test_embs, labels, 1.0, stream(85, 1))


def test_probe_rejects_test_embeddings_that_are_not_2d():
    embs, labels = probe_problem()
    with pytest.raises(ValueError, match="test embeddings"):
        ev.linear_probe(embs, labels, embs.ravel(), labels, 1.0, stream(85, 1))
    with pytest.raises(ValueError, match="test embeddings"):
        ev.linear_probe(embs, labels, embs[None], labels, 1.0, stream(85, 1))


def test_probe_rejects_test_embeddings_of_another_width():
    embs, labels = probe_problem()
    with pytest.raises(ValueError, match="test embeddings"):
        ev.linear_probe(embs, labels, embs[:, :2], labels, 1.0, stream(85, 1))


def test_probe_rejects_an_empty_test_set():
    embs, labels = probe_problem()
    with pytest.raises(ValueError, match="at least 1 test embedding"):
        ev.linear_probe(embs, labels, embs[:0], labels[:0], 1.0, stream(85, 1))


def test_probe_rejects_a_test_label_count_mismatch():
    embs, labels = probe_problem()
    with pytest.raises(ValueError, match="labels"):
        ev.linear_probe(embs, labels, embs, labels[:-1], 1.0, stream(85, 1))


def test_probe_rejects_non_integer_labels():
    embs, labels = probe_problem()
    with pytest.raises(ValueError, match="integers"):
        ev.linear_probe(embs, labels + 0.5, embs, labels, 1.0, stream(85, 1))
    with pytest.raises(ValueError, match="integers"):
        ev.linear_probe(embs, labels, embs, labels.astype(np.float64), 1.0, stream(85, 1))


def test_mean_classifier_accuracy():
    labels = np.array([0, 0, 1, 1])
    embs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    assert ev.mean_classifier_accuracy(embs, labels, embs, labels) == 1.0


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------


def test_retrieval_perfect_case():
    g = 12
    embs = np.eye(g)
    report = ev.retrieval_metrics(embs, embs, ks=(1, 5))
    assert report.recall_at["query_to_gallery"][1] == 1.0
    assert report.medr["query_to_gallery"] == 1
    assert report.medr["gallery_to_query"] == 1
    assert report.avg_recall == 1.0


def test_retrieval_rejects_no_queries():
    with pytest.raises(ValueError, match="at least 1 query"):
        ev.retrieval_metrics(np.empty((0, 3)), np.empty((0, 3)))


def test_retrieval_identical_embeddings_tie_break():
    g = 10
    embs = np.ones((g, 3))
    report = ev.retrieval_metrics(embs, embs, ks=(1, 5, 10))
    # all scores tie; rank of true partner i is i + 1 by index order
    assert np.array_equal(report.ranks["query_to_gallery"], np.arange(1, g + 1))
    # lower median of 1..10 is 5
    assert report.medr["query_to_gallery"] == 5
    assert report.recall_at["query_to_gallery"][10] == 1.0


def test_retrieval_avg_recall_is_mean_of_six():
    rng = stream(84, 0)
    q = rng.standard_normal((40, 8))
    g = rng.standard_normal((40, 8))
    report = ev.retrieval_metrics(q, g, ks=(10, 50, 100))
    values = [report.recall_at[d][k] for d in report.recall_at for k in (10, 50, 100)]
    assert len(values) == 6
    assert abs(report.avg_recall - np.mean(values)) < 1e-15
    # R@K nondecreasing in K, and R@G = 1
    for d in report.recall_at:
        r = report.recall_at[d]
        assert r[10] <= r[50] <= r[100]
        assert r[100] == 1.0  # gallery smaller than 100


def test_retrieval_scale_invariance():
    rng = stream(85, 0)
    q = rng.standard_normal((25, 6))
    g = rng.standard_normal((25, 6))
    r1 = ev.retrieval_metrics(q, g, ks=(1, 5))
    r2 = ev.retrieval_metrics(3.7 * q, 3.7 * g, ks=(1, 5))
    for d in r1.ranks:
        assert np.array_equal(r1.ranks[d], r2.ranks[d])
    with pytest.raises(ValueError, match="equal query/gallery sizes"):
        ev.retrieval_metrics(q, g[:-1], ks=(1, 5))


# ---------------------------------------------------------------------------
# prompt accuracy
# ---------------------------------------------------------------------------


def build_prompt_setup(k=3, seed=87):
    rng = stream(seed, 0)
    vocab = 2 * k
    params = enc.init_params(5, 8, 6, rng, gamma=1.5, vocab_size=vocab)
    prompts = {c: ((2 * c,), (2 * c + 1,)) for c in range(k)}
    return params, prompts


def test_prompt_classify_ideal_images():
    # construct image embeddings whose dot product with each class's
    # (positive - negative) prompt difference has a prescribed sign
    params, prompts = build_prompt_setup()
    k = len(prompts)
    diffs = []
    for c in range(k):
        neg_t, pos_t = prompts[c]
        embs, _ = enc.forward_tokens(params, *mix.pad_tokens([neg_t, pos_t]))
        diffs.append(embs[1] - embs[0])
    diffs = np.stack(diffs)
    gamma = params.gamma
    image_embs = []
    image_labels = []
    for c in range(k):
        target = -np.ones(k)
        target[c] = 1.0
        v = np.linalg.pinv(diffs) @ target
        image_embs.append(gamma * v / np.linalg.norm(v))
        image_labels.append(c)
    image_embs, image_labels = np.stack(image_embs), np.array(image_labels)
    for c in range(k):
        assert ev.prompt_accuracy(image_embs, image_labels, c, prompts[c], params) == 1.0


def test_prompt_classify_tie_predicts_negative():
    params, _ = build_prompt_setup()
    prompts = {0: ((0,), (0,)), 1: ((2,), (2,))}  # positive == negative prompt
    rng = stream(88, 0)
    image_embs = rng.standard_normal((20, 6))
    image_labels = rng.integers(0, 2, size=20)
    # predicting all-negative scores the negative base rate
    for c in (0, 1):
        accuracy = ev.prompt_accuracy(image_embs, image_labels, c, prompts[c], params)
        assert abs(accuracy - (image_labels != c).mean()) < 1e-12


def test_prompt_classify_missing_prompt():
    params, prompts = build_prompt_setup()
    prompts[0] = ((), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        ev.prompt_accuracy(np.zeros((2, 6)), np.zeros(2, dtype=int), 0, prompts[0], params)


# ---------------------------------------------------------------------------
# 2-d projection
# ---------------------------------------------------------------------------


def test_project_2d_collinear():
    t = np.linspace(-1, 1, 50)
    embs = np.outer(t, np.array([1.0, 2.0, -1.0]))
    proj = ev.project_2d(embs)
    assert proj.shape == (50, 2)
    assert np.var(proj[:, 1]) < 1e-10 * max(np.var(proj[:, 0]), 1e-30)


def test_project_2d_isotropic_explained_variance():
    d = 16
    x = stream(89, 0).standard_normal((4000, d))
    proj = ev.project_2d(x)
    total = np.var(x - x.mean(axis=0), axis=0).sum()
    captured = np.var(proj, axis=0).sum()
    assert abs(captured / total - 2.0 / d) < 0.02


def test_project_2d_sign_convention():
    x = stream(90, 0).standard_normal((60, 5))
    p1 = ev.project_2d(x)
    p2 = ev.project_2d(-x)
    assert np.allclose(p1, -p2, atol=1e-10)
    with pytest.raises(ValueError):
        ev.project_2d(np.ones((1, 4)))
