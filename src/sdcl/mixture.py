"""Latent-class mixture simulator.

Each data point carries an unobserved class c drawn from a prior rho over a
finite alphabet; features are then drawn from the class conditional D_c, so a
training set consists of i.i.d. draws from the marginal

    D(x) = sum_c rho(c) * D_c(x).

Two modes:

* continuous — isotropic Gaussian conditionals, used for training runs;
* discrete   — categorical conditionals over a small shared point alphabet,
  so every expectation downstream can be enumerated exactly.

For an anchor of class c the clean-negative distribution E_c excludes class c
and renormalizes the prior over the remaining classes.  The marginal then
decomposes exactly as D = rho(c) * D_c + (1 - rho(c)) * E_c.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .fields import convert

TOL = 1e-12

TokenSeq = tuple[int, ...]


def pad_tokens(token_seqs: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """A token batch as one (B, L) int64 id array plus its validity mask.

    L is the longest length; padded slots hold token 0 with mask False.
    """
    lengths = np.fromiter(map(len, token_seqs), dtype=np.int64, count=len(token_seqs))
    if np.any(lengths == 0):
        raise ValueError("token sequence must be nonempty")
    mask = np.arange(lengths.max(initial=1)) < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = np.fromiter(itertools.chain.from_iterable(token_seqs), dtype=np.int64,
                            count=int(lengths.sum()))
    return ids, mask


class ReportTable(NamedTuple):
    """Every class's templates padded into one table, class after class, from
    row ``offsets[c]``; ``cdfs[c]`` is class c's template CDF, inf-padded."""

    ids: np.ndarray      # (templates, longest) int64
    mask: np.ndarray     # (templates, longest) bool
    lengths: np.ndarray  # (templates,)
    offsets: np.ndarray  # (classes,)
    cdfs: np.ndarray     # (classes, most templates of one class)


def _frozen_array(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ClassDistribution:
    """Prior over latent classes; entries strictly positive and summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen_array(self.probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("class prior must be a nonempty 1-d vector")
        if np.any(probs <= 0):
            raise ValueError("class prior entries must be strictly positive")
        if abs(probs.sum() - 1.0) > TOL:
            raise ValueError(f"class prior sums to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def num_classes(self) -> int:
        return self.probs.size

    @property
    def rho_min(self) -> float:
        return float(self.probs.min())


@dataclass(frozen=True)
class GaussianConditionals:
    """Per-class isotropic Gaussians: means (K, d), stddevs (K,)."""

    means: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        means = _frozen_array(self.means)
        stddevs = _frozen_array(self.stddevs)
        if means.ndim != 2:
            raise ValueError("means must be (num_classes, dim)")
        if stddevs.shape != (means.shape[0],):
            raise ValueError("stddevs must be one scalar per class")
        if np.any(stddevs < 0):
            raise ValueError("stddevs must be nonnegative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class DiscreteConditionals:
    """Per-class pmfs (K, P) over a shared finite point alphabet (P, d)."""

    points: np.ndarray
    pmfs: np.ndarray

    def __post_init__(self):
        points = _frozen_array(self.points)
        pmfs = _frozen_array(self.pmfs)
        if points.ndim != 2:
            raise ValueError("points must be (num_points, dim)")
        if pmfs.ndim != 2 or pmfs.shape[1] != points.shape[0]:
            raise ValueError("pmfs must be (num_classes, num_points)")
        if np.any(pmfs < 0):
            raise ValueError("pmf entries must be nonnegative")
        rowsums = pmfs.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > TOL):
            raise ValueError("each class pmf must sum to 1")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "pmfs", pmfs)

    @property
    def num_classes(self) -> int:
        return self.pmfs.shape[0]

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MixtureSpec:
    """Full generative model: prior, conditionals, and per-class text templates.

    ``templates[c]`` is a nonempty tuple of token sequences for class c and
    ``template_weights[c]`` the matching draw weights.  In discrete mode an
    optional ``point_tokens`` table fixes one token sequence per alphabet
    point, making the text a deterministic function of the point (required
    for exact enumeration of text-derived quantities).
    """

    class_dist: ClassDistribution
    conditionals: GaussianConditionals | DiscreteConditionals
    templates: tuple[tuple[TokenSeq, ...], ...]
    template_weights: tuple[tuple[float, ...], ...]
    vocab_size: int
    point_tokens: Optional[tuple[TokenSeq, ...]] = None
    report_perturb_prob: float = 0.0

    def __post_init__(self):
        k = self.class_dist.num_classes
        if self.conditionals.num_classes != k:
            raise ValueError("conditionals do not match number of classes")
        if len(self.templates) != k or len(self.template_weights) != k:
            raise ValueError("templates must be given for every class")
        counts = [len(ts) for ts in self.templates]
        cdfs = np.full((k, max(counts)), np.inf)
        for c in range(k):
            if counts[c] == 0:
                raise ValueError(f"class {c} has no templates")
            if counts[c] != len(self.template_weights[c]):
                raise ValueError(f"class {c}: template/weight length mismatch")
            weights = np.asarray(self.template_weights[c], dtype=np.float64)
            with np.errstate(over="ignore"):
                total = weights.sum()  # NaN or inf if any weight is, or on overflow
            if not (np.all(weights >= 0) and 0.0 < total < np.inf):
                raise ValueError(f"class {c}: template weights must be finite, nonnegative "
                                 f"and have a positive finite sum")
            cdfs[c, : counts[c]] = choice_cdf(weights / total)
            for seq in self.templates[c]:
                if len(seq) == 0 or any(t < 0 or t >= self.vocab_size for t in seq):
                    raise ValueError(f"class {c}: template tokens out of vocab")
        if not 0.0 <= self.report_perturb_prob <= 1.0:
            raise ValueError("report_perturb_prob must be in [0, 1]")
        if self.point_tokens is not None:
            if self.mode != "discrete":
                raise ValueError("point_tokens only apply to discrete mode")
            if len(self.point_tokens) != self.conditionals.num_points:
                raise ValueError("point_tokens must cover the full alphabet")
        ids, mask = pad_tokens([seq for ts in self.templates for seq in ts])
        object.__setattr__(self, "report_table", ReportTable(
            ids=ids, mask=mask, lengths=mask.sum(axis=1),
            offsets=np.cumsum([0] + counts[:-1]), cdfs=cdfs,
        ))

    @property
    def mode(self) -> str:
        return "discrete" if isinstance(self.conditionals, DiscreteConditionals) else "continuous"

    @property
    def num_classes(self) -> int:
        return self.class_dist.num_classes

    @property
    def dim(self) -> int:
        return self.conditionals.dim


# ---------------------------------------------------------------------------
# Sampling operations
# ---------------------------------------------------------------------------


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(n, p=probs)`` builds: for its one uniform draw u
    it returns ``cdf.searchsorted(u, side="right")``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _class_ids(spec: MixtureSpec, classes) -> np.ndarray:
    """``classes`` as an int64 array; ValueError on an id outside [0, K)."""
    classes = np.asarray(classes, dtype=np.int64)
    bad = classes[(classes < 0) | (classes >= spec.num_classes)]
    if bad.size:
        raise ValueError(f"invalid class id {bad[0]}")
    return classes


def sample_class_array(dist: ClassDistribution, size: int, rng: np.random.Generator) -> np.ndarray:
    return rng.choice(dist.num_classes, size=size, p=dist.probs)


# rows of uniforms drawn at once at a perturbation probability up to 1/2; a
# perturbed report before a block's last row rewinds and redraws the block up
# to it, so this bounds the extra draws per perturbed report
REPORT_BLOCK = 64


def _draw_reports(spec: MixtureSpec, size: int, classes: Optional[np.ndarray],
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``size`` reports as a padded ``(ids, mask)`` batch, exactly
    ``pad_tokens`` of the reports; report i has class ``classes[i]`` or,
    when ``classes`` is None, one drawn just before it as a one-draw
    ``rng.choice(K, p=prior)`` would.

    Report by report, the draws are a class uniform (drawn classes only), a
    template uniform, the perturbation coin (only when the probability is
    positive), then ``rng.integers`` for the position and the offset of a
    perturbed report.  Uniforms come a block of rows at a time:
    ``REPORT_BLOCK`` rows, or one row when the probability p exceeds 1/2.  A
    perturbed report rewinds the generator and redraws the rows up to its own
    unless it is the block's last row, then makes its two integer draws, so
    the generator ends where one call per report would leave it.
    """
    table = spec.report_table
    perturb = spec.report_perturb_prob
    lead = int(classes is None)
    width = lead + (2 if perturb > 0.0 else 1)
    class_cdf = choice_cdf(spec.class_dist.probs)
    u = np.empty((size, width))
    hits = []  # (report, position, offset) of each perturbed report
    # a rewind costs about one more block draw, so blocks of one row, which
    # never rewind, are cheaper once most reports are perturbed
    rows = size if perturb == 0.0 else 1 if perturb > 0.5 else REPORT_BLOCK
    start = 0
    while start < size:
        state = rng.bit_generator.state if rows > 1 else None
        block = rng.random((min(size - start, rows), width))
        coins = block[:, -1] < perturb
        first = int(coins.argmax())
        stop = first + 1 if coins[first] else len(block)
        u[start : start + stop] = block[:stop]
        start += stop
        if coins[first]:
            if stop < len(block):
                rng.bit_generator.state = state
                rng.random((stop, width))
            i = start - 1
            c = int(classes[i]) if classes is not None else bisect.bisect_right(class_cdf, u[i, 0])
            row = table.offsets[c] + bisect.bisect_right(table.cdfs[c], u[i, lead])
            # replace with a uniformly random *different* token so the expected
            # hamming distance to the template equals report_perturb_prob exactly
            hits.append((i, int(rng.integers(table.lengths[row])),
                         int(rng.integers(1, spec.vocab_size))))
    if classes is None:
        classes = class_cdf.searchsorted(u[:, 0], side="right")
    # counting the cdf entries <= u is bisect_right, i.e. searchsorted(side="right")
    rows = table.offsets[classes] + (table.cdfs[classes] <= u[:, lead, None]).sum(axis=1)
    longest = table.lengths[rows].max(initial=1)
    ids, mask = table.ids[rows, :longest], table.mask[rows, :longest]
    for i, pos, offset in hits:
        ids[i, pos] = (ids[i, pos] + offset) % spec.vocab_size
    return ids, mask


def sample_reports(spec: MixtureSpec, classes, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One token report per entry of ``classes``, as a padded ``(ids, mask)``
    batch: a weighted template choice, then with probability
    ``spec.report_perturb_prob`` one position replaced by a uniformly random
    different token.  The draws are exactly those of one
    ``rng.choice(p=weights)``, ``rng.random()`` coin and, when perturbed, two
    ``rng.integers`` calls per report, in report order."""
    classes = _class_ids(spec, classes)
    return _draw_reports(spec, classes.size, classes, rng)


def sample_marginal_reports(spec: MixtureSpec, size: int, rng: np.random.Generator
                            ) -> tuple[np.ndarray, np.ndarray]:
    """``size`` reports of classes drawn from the prior: the draws of ``size``
    alternating one-draw ``rng.choice(K, p=prior)`` and one-report
    ``sample_reports`` calls."""
    return _draw_reports(spec, size, None, rng)


def true_negative_prior(dist: ClassDistribution, c_x: int) -> np.ndarray:
    """Renormalized prior over classes other than c_x: rho(c) / (1 - rho(c_x))."""
    rho = dist.probs
    if not 0 <= c_x < dist.num_classes:
        raise ValueError(f"invalid class id {c_x}")
    rest = 1.0 - rho[c_x]
    if rest <= TOL:
        raise ValueError(f"class {c_x} has probability 1; no other class to draw from")
    out = rho.copy()
    out[c_x] = 0.0
    return out / rest


def sample_features_for_classes(
    spec: MixtureSpec, classes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Vectorized conditional feature draws; returns (features, point_indices).

    A discrete draw makes exactly the draw of one ``rng.choice(P, p=pmfs[c])``
    per point, in point order."""
    classes = _class_ids(spec, classes)
    if spec.mode == "continuous":
        cond = spec.conditionals
        # means[c] + stddevs[c] * noise, scaled and shifted in place
        feats = rng.standard_normal((classes.size, cond.dim))
        feats *= cond.stddevs[classes, None]
        feats += cond.means[classes]
        return feats, None
    cond = spec.conditionals
    cdfs = np.array([choice_cdf(pmf) for pmf in cond.pmfs])
    # counting the cdf entries <= u is choice's searchsorted(side="right")
    idx = (cdfs[classes] <= rng.random(classes.size)[:, None]).sum(axis=1)
    return cond.points[idx], idx


# ---------------------------------------------------------------------------
# Exact pmfs (discrete mode)
# ---------------------------------------------------------------------------


def require_discrete(spec: MixtureSpec) -> DiscreteConditionals:
    if spec.mode != "discrete":
        raise ValueError("operation requires a discrete-mode spec")
    return spec.conditionals


def exact_marginal_pmf(spec: MixtureSpec) -> np.ndarray:
    cond = require_discrete(spec)
    return spec.class_dist.probs @ cond.pmfs


def exact_negative_pmf(spec: MixtureSpec, c_x: int) -> np.ndarray:
    """Exact pmf of E_{c_x} over the point alphabet."""
    cond = require_discrete(spec)
    return true_negative_prior(spec.class_dist, c_x) @ cond.pmfs


# ---------------------------------------------------------------------------
# Spec surgery
# ---------------------------------------------------------------------------


def subsample_classes(spec: MixtureSpec, selected: Sequence[int], r: float) -> MixtureSpec:
    """Reweight the prior as if keeping an r fraction of each selected class.

    Each selected class's prior mass is scaled by r, unselected classes keep
    weight 1, and the prior is renormalized; conditionals and templates are
    preserved exactly.  From a uniform prior over 10 classes with 5 selected
    this gives 0.2*r/(1+r) per selected class and 0.2/(1+r) per other class.
    """
    selected = set(int(s) for s in selected)
    if not selected:
        raise ValueError("selected class set must be nonempty")
    if not all(0 <= s < spec.num_classes for s in selected):
        raise ValueError("selected class id out of range")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must be in (0, 1], got {r}")
    weights = np.array(
        [r if k in selected else 1.0 for k in range(spec.num_classes)], dtype=np.float64
    )
    probs = spec.class_dist.probs * weights
    probs = probs / probs.sum()
    return replace(spec, class_dist=ClassDistribution(probs))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def spec_to_dict(spec: MixtureSpec) -> dict:
    d = {
        "class_probs": spec.class_dist.probs.tolist(),
        "vocab_size": spec.vocab_size,
        "templates": [[list(t) for t in ts] for ts in spec.templates],
        "template_weights": [list(ws) for ws in spec.template_weights],
        "report_perturb_prob": spec.report_perturb_prob,
        "mode": spec.mode,
    }
    if spec.mode == "continuous":
        d["gaussian"] = {
            "means": spec.conditionals.means.tolist(),
            "stddevs": spec.conditionals.stddevs.tolist(),
        }
    else:
        d["discrete"] = {
            "points": spec.conditionals.points.tolist(),
            "pmfs": spec.conditionals.pmfs.tolist(),
        }
        if spec.point_tokens is not None:
            d["point_tokens"] = [list(t) for t in spec.point_tokens]
    return d


def spec_from_dict(d: dict) -> MixtureSpec:
    """The spec ``spec_to_dict`` wrote; each value is checked by the config
    field rule, so a fractional token id or a string number is refused."""
    row, rows = tuple[float, ...], tuple[tuple[float, ...], ...]
    seqs = tuple[tuple[int, ...], ...]

    def read(hint, section, key):
        return convert(hint, section[key], key)

    dist = ClassDistribution(np.array(read(row, d, "class_probs"), dtype=np.float64))
    if d["mode"] == "continuous":
        cond = GaussianConditionals(
            means=np.array(read(rows, d["gaussian"], "means"), dtype=np.float64),
            stddevs=np.array(read(row, d["gaussian"], "stddevs"), dtype=np.float64),
        )
        point_tokens = None
    elif d["mode"] == "discrete":
        cond = DiscreteConditionals(
            points=np.array(read(rows, d["discrete"], "points"), dtype=np.float64),
            pmfs=np.array(read(rows, d["discrete"], "pmfs"), dtype=np.float64),
        )
        point_tokens = convert(Optional[seqs], d.get("point_tokens"), "point_tokens")
    else:
        raise ValueError(f"unknown mode {d['mode']!r}")
    return MixtureSpec(
        class_dist=dist,
        conditionals=cond,
        templates=read(tuple[seqs, ...], d, "templates"),
        template_weights=read(rows, d, "template_weights"),
        vocab_size=read(int, d, "vocab_size"),
        point_tokens=point_tokens,
        report_perturb_prob=convert(float, d.get("report_perturb_prob", 0.0),
                                    "report_perturb_prob"),
    )


def save_spec(spec: MixtureSpec, path) -> None:
    with open(path, "w") as f:
        json.dump(spec_to_dict(spec), f, indent=2)
