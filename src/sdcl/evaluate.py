"""Downstream evaluation of frozen embeddings.

Linear probing, mean-classifier accuracy, binary prompt accuracy,
cross-modal retrieval metrics (R@K, median rank, average recall over both
directions), and a deterministic 2-d principal-component projection for
plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import encoder as enc
from .linear_head import check_labels, fit_softmax, predict_classes
from .mixture import TokenSeq, pad_tokens


@dataclass
class RetrievalReport:
    recall_at: dict  # direction -> {k: fraction}
    medr: dict  # direction -> lower-median rank
    avg_recall: float
    ranks: dict  # direction -> (Q,) int array


class ProbeResult(NamedTuple):
    accuracy: float
    converged: bool  # the fit reached its gradient tolerance
    evaluations: int  # loss-and-gradient evaluations of the fit


def linear_probe(
    train_embs: np.ndarray,
    train_labels: np.ndarray,
    test_embs: np.ndarray,
    test_labels: np.ndarray,
    label_fraction: float,
    rng: np.random.Generator,
) -> ProbeResult:
    """Accuracy of a softmax head trained on a labeled fraction of the
    (frozen) training embeddings and evaluated on the test embeddings, with
    the fit's convergence flag and evaluation count.

    The labeled subset is resampled up to 10 times until it covers every
    class present in the training labels; persistent failure raises.  A weak
    ridge term keeps the optimum finite on separable embeddings.  Raises
    ValueError for labels that are not integers, one per row, and for test
    embeddings that are not finite rows as wide as the training embeddings
    or have no rows.
    """
    if not 0.0 < label_fraction <= 1.0:
        raise ValueError("label_fraction must be in (0, 1]")
    n, width = train_embs.shape
    train_labels = check_labels(train_labels, n)
    test_embs = np.asarray(test_embs, dtype=np.float64)
    if test_embs.ndim != 2 or test_embs.shape[1] != width:
        raise ValueError(f"test embeddings must have shape (m, {width}), got {test_embs.shape}")
    if test_embs.shape[0] == 0:
        raise ValueError("need at least 1 test embedding")
    if not np.all(np.isfinite(test_embs)):
        raise ValueError("test embeddings must be finite")
    test_labels = check_labels(test_labels, test_embs.shape[0])
    classes = np.unique(train_labels)
    if classes.size < 2:
        raise ValueError("need at least 2 classes in the training labels")
    n_labeled = max(1, int(round(label_fraction * n)))
    subset = None
    if n_labeled >= n:
        # the whole pool, uncopied when it is already the C-contiguous
        # float64 array that indexing would make
        subset = slice(None)
        train_embs = np.ascontiguousarray(train_embs, dtype=np.float64)
    else:
        for _ in range(10):
            candidate = rng.choice(n, size=n_labeled, replace=False)
            if np.unique(train_labels[candidate]).size == classes.size:
                subset = candidate
                break
        if subset is None:
            raise ValueError(
                f"labeled subset of size {n_labeled} missed a class in 10 resampling attempts"
            )
    fit = fit_softmax(
        train_embs[subset],
        train_labels[subset],
        num_classes=int(classes.max() + 1),
        fit_intercept=True,
        gtol=1e-6,
        max_iter=1000,
        l2=1e-4,
    )
    preds = predict_classes(fit, test_embs)
    return ProbeResult(float(np.mean(preds == test_labels)), fit.converged, fit.evaluations)


def mean_classifier_accuracy(
    train_embs: np.ndarray,
    train_labels: np.ndarray,
    test_embs: np.ndarray,
    test_labels: np.ndarray,
) -> float:
    """Accuracy of the classifier whose row c is the mean embedding of class c."""
    train_labels = np.asarray(train_labels, dtype=np.int64)
    classes = np.unique(train_labels)
    mus = np.stack([train_embs[train_labels == c].mean(axis=0) for c in classes])
    logits = test_embs @ mus.T
    preds = classes[np.argmax(logits, axis=1)]
    return float(np.mean(preds == np.asarray(test_labels)))


def _ranks_with_tie_break(scores: np.ndarray) -> np.ndarray:
    """Rank of each query's true partner (the diagonal) under descending
    score; ties are broken by gallery index order, so results are
    deterministic."""
    idx = np.arange(scores.shape[0])
    true_scores = scores[idx, idx]
    better = (scores > true_scores[:, None]).sum(axis=1)
    tied_before = ((scores == true_scores[:, None]) & (idx[None, :] < idx[:, None])).sum(axis=1)
    return 1 + better + tied_before


def _lower_median(values: np.ndarray) -> float:
    ordered = np.sort(values)
    return float(ordered[(ordered.size - 1) // 2])


def retrieval_metrics(
    query_embs: np.ndarray,
    gallery_embs: np.ndarray,
    ks: Sequence[int] = (10, 50, 100),
) -> RetrievalReport:
    """R@K, median rank, and average recall over both retrieval directions.

    Query i's true partner is gallery item i.  Median rank is the lower median.
    Raises ValueError for unequal query and gallery sizes and for no queries.
    """
    q = query_embs.shape[0]
    if q != gallery_embs.shape[0]:
        raise ValueError("retrieval needs equal query/gallery sizes")
    if q == 0:
        raise ValueError("retrieval needs at least 1 query")

    scores = query_embs @ gallery_embs.T
    ranks_fwd = _ranks_with_tie_break(scores)
    ranks_bwd = _ranks_with_tie_break(scores.T)

    recall_at = {}
    medr = {}
    ranks = {"query_to_gallery": ranks_fwd, "gallery_to_query": ranks_bwd}
    values = []
    for direction, r in ranks.items():
        recall_at[direction] = {int(k): float(np.mean(r <= k)) for k in ks}
        medr[direction] = _lower_median(r)
        values.extend(recall_at[direction].values())
    return RetrievalReport(
        recall_at=recall_at, medr=medr, avg_recall=float(np.mean(values)), ranks=ranks
    )


def prompt_accuracy(
    image_embs: np.ndarray,
    labels: np.ndarray,
    cls: int,
    prompts: tuple[TokenSeq, TokenSeq],
    params: enc.EncoderParams,
) -> float:
    """Accuracy of the binary task "is the image of class ``cls``?" from a
    ``(negative, positive)`` prompt pair: predict positive when the image
    scores higher against the positive prompt than against the negative one
    (ties predict negative)."""
    prompt_embs, _ = enc.forward_tokens(params, *pad_tokens(prompts))
    pred = image_embs @ prompt_embs[1] > image_embs @ prompt_embs[0]
    return float(np.mean(pred == (np.asarray(labels) == cls)))


def project_2d(embeddings: np.ndarray) -> np.ndarray:
    """Top-2 principal components with a deterministic sign convention: the
    largest-magnitude loading of each component is made positive."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need at least 2 embedding rows")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2].copy()
    for row in components:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return centered @ components.T
