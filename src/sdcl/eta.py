"""Per-sample class-probability estimates eta(x) in (0, 1).

Three strategies: a constant hyperparameter, the simulator-side oracle that
reads the true prior of the sample's latent class, and a log-linear map from
a language-model sentence likelihood,

    eta_LM(x) = a * p_LM(x)^k = a * exp(k * PLL(x)).

A provider is the ``EtaConfig`` it was built from plus its model (none, the
spec or the language model).  ``eta_for_batch`` clamps every variant's output
once, to the fixed [ETA_MIN, ETA_MAX] strictly inside (0, 1), because the
1/(1-eta) weights in the debiased estimator blow up as eta -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import check_fields
from .mixture import MixtureSpec, pad_tokens
from .textsim import NGramLM, pseudo_log_likelihood

ETA_MIN, ETA_MAX = 1e-4, 0.9


@dataclass(frozen=True)
class EtaConfig:
    """JSON-facing description of an eta strategy."""

    kind: str = "constant"  # constant | true_oracle | lm_log_linear
    value: float = 0.1
    a: float = 0.2
    k: float = 0.35

    def __post_init__(self):
        check_fields(self)
        if self.kind not in ("constant", "true_oracle", "lm_log_linear"):
            raise ValueError(f"unknown eta kind {self.kind!r}")
        if not all(np.isfinite(x) for x in (self.value, self.a, self.k)):
            raise ValueError("eta value, a and k must be finite")
        if self.kind == "lm_log_linear" and (self.a <= 0 or self.k <= 0):
            raise ValueError("log-linear map needs a > 0 and k > 0")


@dataclass(frozen=True)
class ConstantEta:
    config: EtaConfig


@dataclass(frozen=True)
class TrueOracleEta:
    """Reads rho(c_x) from the generating spec; simulator-side only."""

    config: EtaConfig
    spec: MixtureSpec


@dataclass(frozen=True)
class LMLogLinearEta:
    config: EtaConfig
    lm: NGramLM


EtaProvider = ConstantEta | TrueOracleEta | LMLogLinearEta


def make_provider(
    config: EtaConfig,
    spec: Optional[MixtureSpec] = None,
    lm: Optional[NGramLM] = None,
) -> EtaProvider:
    if config.kind == "constant":
        return ConstantEta(config)
    if config.kind == "true_oracle":
        if spec is None:
            raise ValueError("true_oracle provider needs the generating spec")
        return TrueOracleEta(config, spec)
    if lm is None:
        raise ValueError("lm_log_linear provider needs a fitted language model")
    return LMLogLinearEta(config, lm)


def eta_of(provider: EtaProvider, latent_class: int,
           tokens: Optional[Sequence[int]] = None) -> float:
    """eta(x) for one sample: ``eta_for_batch`` on a batch of one."""
    batch = None if tokens is None else pad_tokens([tokens])
    return float(eta_for_batch(provider, [latent_class], batch)[0])


def calibrate_log_linear(
    pll_values, eta_range: tuple[float, float], quantiles: tuple[float, float]
) -> tuple[float, float]:
    """Choose (a, k) so the given PLL quantiles map onto ``eta_range``.

    Uses only the corpus score distribution (no class information): the low
    quantile lands on the low end of the range and the high quantile on the
    high end, preserving the monotone log-linear form.
    """
    lo, hi = float(eta_range[0]), float(eta_range[1])
    if not 0.0 < lo < hi < 1.0:
        raise ValueError("eta_range must satisfy 0 < lo < hi < 1")
    values = np.asarray(list(pll_values), dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least two PLL values to calibrate")
    pll_lo, pll_hi = np.quantile(values, quantiles)
    if pll_hi - pll_lo < 1e-9:
        raise ValueError("PLL quantiles are degenerate; cannot calibrate a slope")
    k = float(np.log(hi / lo) / (pll_hi - pll_lo))
    a = float(lo * np.exp(-k * pll_lo))
    return a, k


def eta_for_batch(
    provider: EtaProvider,
    classes: Sequence[int],
    tokens: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Vectorized eta for a batch of latent classes, with its padded
    ``(ids, mask)`` token batch for the LM provider, clipped to
    ``[ETA_MIN, ETA_MAX]``."""
    config = provider.config
    if isinstance(provider, ConstantEta):
        eta = np.full(len(classes), config.value)
    elif isinstance(provider, TrueOracleEta):
        eta = provider.spec.class_dist.probs[np.asarray(classes)]
    elif tokens is None:
        raise ValueError("lm_log_linear eta needs token sequences")
    else:
        eta = config.a * np.exp(config.k * pseudo_log_likelihood(provider.lm, *tokens))
    return np.clip(eta, ETA_MIN, ETA_MAX)
