"""Synthetic per-class token reports and a smoothed bigram language model.

The bigram model scores a sentence with a pseudo-log-likelihood (PLL): each
position is masked in turn and scored under the conditional given both
neighbors, which for a bigram factorization is the renormalized product of
the left and right bigram factors

    p(t_i | t_{i-1}, t_{i+1})  ∝  p(t_i | t_{i-1}) * p(t_{i+1} | t_i).

Boundary positions keep only the factor that exists; a length-1 sequence is
scored by its smoothed unigram probability.  PLL of frequent sentences under
a model fit to the corpus exceeds PLL of rare ones, which is what the
log-linear class-probability estimate relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .mixture import MixtureSpec, TokenSeq, pad_tokens, sample_reports


@dataclass(frozen=True)
class NGramLM:
    """Add-alpha smoothed bigram model with unigram backoff for length-1 input."""

    vocab_size: int
    bigram_counts: np.ndarray
    unigram_counts: np.ndarray
    alpha: float

    def __post_init__(self):
        v = self.vocab_size
        if self.bigram_counts.shape != (v, v) or self.unigram_counts.shape != (v,):
            raise ValueError("count shapes do not match vocab_size")
        if np.any(self.bigram_counts < 0) or np.any(self.unigram_counts < 0):
            raise ValueError("counts must be nonnegative")
        if not self.alpha > 0:
            raise ValueError("smoothing alpha must be positive")

    def conditionals(self) -> np.ndarray:
        """Row-stochastic (V, V) matrix: p(next | prev) with add-alpha smoothing.

        Rows normalize over the count of the context token in left-context
        position, so each row sums to 1 exactly.
        """
        context = self.bigram_counts.sum(axis=1, keepdims=True)
        return (self.bigram_counts + self.alpha) / (context + self.alpha * self.vocab_size)

    def unigram_probs(self) -> np.ndarray:
        total = self.unigram_counts.sum()
        return (self.unigram_counts + self.alpha) / (total + self.alpha * self.vocab_size)


def fit_ngram(ids: np.ndarray, mask: np.ndarray, alpha: float, vocab_size: int) -> NGramLM:
    """Count adjacent token pairs and single tokens over a padded corpus."""
    if len(ids) == 0:
        raise ValueError("corpus must be nonempty")
    tokens = ids[mask]
    if tokens.min() < 0 or tokens.max() >= vocab_size:
        raise ValueError("token id out of vocabulary")
    pairs = mask[:, 1:]
    bigram = np.zeros((vocab_size, vocab_size), dtype=np.float64)
    unigram = np.zeros(vocab_size, dtype=np.float64)
    np.add.at(unigram, tokens, 1.0)
    np.add.at(bigram, (ids[:, :-1][pairs], ids[:, 1:][pairs]), 1.0)
    return NGramLM(vocab_size=vocab_size, bigram_counts=bigram, unigram_counts=unigram, alpha=alpha)


def pseudo_log_likelihood(lm: NGramLM, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """PLL of each sequence of a padded batch: the sum of its log
    masked-conditional probabilities, added position by position."""
    if not mask[:, 0].all():
        raise ValueError("token sequence must be nonempty")
    rows = np.arange(len(ids))
    lengths = mask.sum(axis=1)
    cond = lm.conditionals()
    # right-hand factors p(next | t) as contiguous rows, so every row sum
    # reduces in the same order as the sum of one column of ``cond``
    cond_next = np.ascontiguousarray(cond.T)
    total = np.zeros(len(ids))
    n_pos = ids.shape[1]
    for i in range(n_pos if n_pos > 1 else 0):
        if i == 0:
            weights = cond_next[ids[:, 1]]
        elif i + 1 < n_pos:
            left = cond[ids[:, i - 1]]
            weights = np.where((i + 1 < lengths)[:, None], left * cond_next[ids[:, i + 1]], left)
        else:
            weights = cond[ids[:, i - 1]]
        term = np.log(weights[rows, ids[:, i]] / weights.sum(axis=1))
        total += np.where(mask[:, i] & (lengths > 1), term, 0.0)
    return np.where(lengths == 1, np.log(lm.unigram_probs()[ids[:, 0]]), total)


def generate_report(spec: MixtureSpec, c: int, rng: np.random.Generator) -> TokenSeq:
    """One class-c report: ``mixture.sample_reports`` on a batch of one,
    which is exactly as wide as its report."""
    return tuple(sample_reports(spec, [c], rng)[0][0].tolist())


def pll_table(lm: NGramLM, sentences: Iterable[Sequence[int]]) -> dict[TokenSeq, float]:
    """PLL of each distinct sentence (keyed by token tuple), scored in one batch."""
    keys = list(dict.fromkeys(tuple(int(t) for t in seq) for seq in sentences))
    return dict(zip(keys, pseudo_log_likelihood(lm, *pad_tokens(keys)).tolist()))

