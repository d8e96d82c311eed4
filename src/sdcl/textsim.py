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

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .mixture import MixtureSpec, TokenSeq, _sample_template_tokens

TOL = 1e-12


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


def fit_ngram(corpus: Sequence[Sequence[int]], alpha: float, vocab_size: int) -> NGramLM:
    """Count adjacent token pairs and single tokens over the corpus."""
    if len(corpus) == 0:
        raise ValueError("corpus must be nonempty")
    bigram = np.zeros((vocab_size, vocab_size), dtype=np.float64)
    unigram = np.zeros(vocab_size, dtype=np.float64)
    for seq in corpus:
        arr = np.asarray(seq, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("corpus sentences must be nonempty")
        if arr.min() < 0 or arr.max() >= vocab_size:
            raise ValueError("token id out of vocabulary")
        np.add.at(unigram, arr, 1.0)
        if arr.size > 1:
            np.add.at(bigram, (arr[:-1], arr[1:]), 1.0)
    return NGramLM(vocab_size=vocab_size, bigram_counts=bigram, unigram_counts=unigram, alpha=alpha)


def pseudo_log_likelihood(lm: NGramLM, seq: Sequence[int]) -> float:
    """Sum of log masked-conditional probabilities over all positions."""
    seq = tuple(int(t) for t in seq)
    n = len(seq)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    if n == 1:
        return float(np.log(lm.unigram_probs()[seq[0]]))
    cond = lm.conditionals()
    total = 0.0
    for i, tok in enumerate(seq):
        if i == 0:
            weights = cond[:, seq[1]]
        elif i == n - 1:
            weights = cond[seq[n - 2], :]
        else:
            weights = cond[seq[i - 1], :] * cond[:, seq[i + 1]]
        total += float(np.log(weights[tok] / weights.sum()))
    return total


def generate_report(spec: MixtureSpec, c: int, rng: np.random.Generator) -> TokenSeq:
    """Draw a class-c token sequence: weighted template choice, then (with
    probability ``spec.report_perturb_prob``) one position replaced by a
    uniformly random different token."""
    if not 0 <= c < spec.num_classes:
        raise ValueError(f"invalid class id {c}")
    return _sample_template_tokens(spec, c, rng)


def pll_table(lm: NGramLM, sentences: Iterable[Sequence[int]]) -> dict[TokenSeq, float]:
    """Precompute PLL for each distinct sentence (keyed by token tuple)."""
    table: dict[TokenSeq, float] = {}
    for seq in sentences:
        key = tuple(int(t) for t in seq)
        if key not in table:
            table[key] = pseudo_log_likelihood(lm, key)
    return table


def write_pll_csv(path, table: dict[TokenSeq, float], header_comment: str | None = None) -> None:
    """Export a PLL table as CSV rows (sentence id, tokens, pll)."""
    with open(path, "w", newline="") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        writer = csv.writer(f)
        writer.writerow(["sentence_id", "tokens", "pll"])
        for i, (tokens, pll) in enumerate(sorted(table.items())):
            writer.writerow([i, " ".join(str(t) for t in tokens), repr(pll)])


def lm_to_dict(lm: NGramLM) -> dict:
    return {
        "vocab_size": lm.vocab_size,
        "bigram_counts": lm.bigram_counts.tolist(),
        "unigram_counts": lm.unigram_counts.tolist(),
        "alpha": lm.alpha,
    }


def lm_from_dict(d: dict) -> NGramLM:
    return NGramLM(
        vocab_size=int(d["vocab_size"]),
        bigram_counts=np.array(d["bigram_counts"], dtype=np.float64),
        unigram_counts=np.array(d["unigram_counts"], dtype=np.float64),
        alpha=float(d["alpha"]),
    )
