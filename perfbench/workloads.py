"""The four benchmark workloads, each a closed loop of units built from a seed.

A workload is constructed from the benchmark's ``--seed``; it derives every
unit's seeds from it and hands ``sdcl`` only configs and seeds.  The specs
stay at the study defaults (``spec_seed`` 123 for the analog, 321 for the
tradeoff study).  Units come in cycles so that every run covers each variant
equally often:

* ``analog``: one :func:`sdcl.pipelines.run_analog_cell` per analog variant;
  feature path, plain ``in_batch_loss``, Adam, and the L-BFGS probe.
* ``tradeoff``: a constant-eta cell and an LM-eta cell of
  :func:`sdcl.pipelines.run_tradeoff_cell`; the cross-modal token path,
  report sampling, the bigram LM and the PLL cache.
* ``handling``: one :func:`sdcl.train.train` per non-trivial negative
  handling mode on the analog r=0.1 spec; the per-anchor loss loop.
* ``bounds``: one 12-config :func:`sdcl.pipelines.bound_sweep` block, which
  covers every (eta variant, N) x M pairing of the cycling grid.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import pipelines as pl
from sdcl import train as tr
from sdcl.objectives import NegativeHandling

ANALOG_R = 0.1
BOUND_BLOCK = 12  # lcm of the 4 eta variants, 4 N values and 3 M values
REMOVE_THRESHOLD = -0.9  # removes ~80% of negatives, empties ~1% of anchors' sets
GAMMA_RTOL = 1e-9


@dataclass(frozen=True)
class Unit:
    """One closed-loop step: a label for reports and the seed it runs with."""

    index: int
    variant: str
    seed: int


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _norm_problems(params: enc.EncoderParams) -> list[str]:
    probe_x = np.random.default_rng(0).standard_normal((64, params.input_dim))
    emb, _ = enc.forward_features(params, probe_x)
    norms = np.linalg.norm(emb, axis=1)
    if not np.allclose(norms, params.gamma, rtol=GAMMA_RTOL, atol=0.0):
        worst = float(np.max(np.abs(norms - params.gamma)))
        return [f"embedding norms deviate from gamma by up to {worst:.3g}"]
    return []


def _trace_problems(trace: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(trace)) else ["non-finite value in the training trace"]


def _fraction_problems(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{name} {value} outside [0, 1]"]


class Workload:
    """Base: seeded unit cycles, a unit runner, output checks and summaries."""

    name = ""
    work_name = ""  # what work_per_s counts, under its own name
    quality_name = ""  # what the gated ``quality`` score is made of
    variants: tuple = ()  # one unit per variant in every cycle

    def __init__(self, seed: int, size: str = "study"):
        if size not in ("study", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self._seeds = np.random.default_rng(np.random.SeedSequence([seed, 0x5DC1]))
        self._cycles: list[list[Unit]] = []
        self.batch_size = 0  # training batch rows; the tracer splits shapes on it

    def cycle(self, i: int) -> list[Unit]:
        """Units of cycle ``i`` (one per variant); the same seed gives the same cycles."""
        while len(self._cycles) <= i:
            base = sum(len(c) for c in self._cycles)
            self._cycles.append([
                Unit(base + j, v, int(self._seeds.integers(0, 2**31 - 1)))
                for j, v in enumerate(self.variants)
            ])
        return self._cycles[i]

    def warm_up(self) -> None:
        """Run one tiny unit so lazy imports and first-call costs land in set-up."""
        tiny = type(self)(self.seed, "tiny")
        tiny.check(tiny.cycle(0)[0], tiny.run(tiny.cycle(0)[0]))

    def run(self, unit: Unit) -> Any:
        raise NotImplementedError

    def work(self, unit: Unit, output: Any) -> float:
        raise NotImplementedError

    def check(self, unit: Unit, output: Any) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output: Any) -> str:
        raise NotImplementedError

    def quality(self, outputs: list[Any]) -> dict[str, float]:
        """Per-workload quality figures; ``quality`` (higher is better) is the gated one."""
        raise NotImplementedError


class Analog(Workload):
    name = "analog"
    work_name = "pairs_per_s"
    quality_name = "probe_acc"
    variants = pl.ANALOG_VARIANTS

    def __init__(self, seed: int, size: str = "study"):
        super().__init__(seed, size)
        config = replace(pl.AnalogConfig(), label_fractions=(0.01, 1.0))
        if size == "tiny":
            config = replace(config, batch_size=32, epochs=1, samples_per_epoch=256,
                             n_probe=2000, n_test_per_class=30, label_fractions=(0.1, 1.0))
        self.config = config
        self.batch_size = config.batch_size
        self.base = pl.analog_spec(config)

    def run(self, unit):
        return pl.run_analog_cell(self.base, self.config, ANALOG_R, unit.variant, unit.seed)

    def work(self, unit, output):
        c = self.config
        return float(c.epochs * (c.samples_per_epoch // c.batch_size) * c.batch_size)

    def check(self, unit, output):
        problems = _trace_problems(output["trace"]) + _norm_problems(output["params"])
        chance = 1.0 / self.base.num_classes
        for fraction, acc in output["accuracies"].items():
            problems += _fraction_problems(f"probe accuracy at {fraction}", acc)
            if not acc > chance:
                problems.append(f"probe accuracy {acc} at {fraction} does not beat chance {chance}")
        return problems

    def fingerprint(self, output):
        return _digest(sorted(output["accuracies"].items()), output["trace"],
                       enc.params_to_flat(output["params"]))

    def quality(self, outputs):
        acc = float(np.mean([a for o in outputs for a in o["accuracies"].values()]))
        return {"probe_acc": acc, "quality": acc}


class Tradeoff(Workload):
    name = "tradeoff"
    work_name = "pairs_per_s"
    quality_name = "(head_acc + tail_recall) / 2"
    variants = ("0.05", "dcl_eta_lm")

    def __init__(self, seed: int, size: str = "study"):
        super().__init__(seed, size)
        config = replace(pl.TradeoffConfig(), epochs=20)
        if size == "tiny":
            config = replace(config, batch_size=32, epochs=1, samples_per_epoch=256,
                             lm_corpus_size=200, retrieval_per_class=5,
                             retrieval_ks=(1, 5), prompt_images_per_side=10)
        self.config = config
        self.batch_size = config.batch_size
        self.spec = pl.tradeoff_spec(config)

    def run(self, unit):
        return pl.run_tradeoff_cell(self.spec, self.config, unit.variant, unit.seed)

    def work(self, unit, output):
        c = self.config
        return float(c.epochs * (c.samples_per_epoch // c.batch_size) * c.batch_size)

    def check(self, unit, output):
        problems = _fraction_problems("head accuracy", output["head_accuracy"])
        problems += _fraction_problems("tail recall", output["tail_avg_recall"])
        gamma = output["gamma_final"]
        if not (math.isfinite(gamma) and gamma > 0):
            problems.append(f"trained gamma {gamma} is not a positive finite radius")
        return problems

    def fingerprint(self, output):
        return _digest(sorted((k, repr(v)) for k, v in output.items()))

    def quality(self, outputs):
        head = float(np.mean([o["head_accuracy"] for o in outputs]))
        tail = float(np.mean([o["tail_avg_recall"] for o in outputs]))
        return {"head_acc": head, "tail_recall": tail, "quality": (head + tail) / 2}


class Handling(Workload):
    name = "handling"
    work_name = "pairs_per_s"
    quality_name = "exp(-final_loss)"
    variants = ("remove_by_sim", "reweight_by_sim", "resample_by_sim",
                "remove_by_label", "max_negatives")

    def __init__(self, seed: int, size: str = "study"):
        super().__init__(seed, size)
        config = pl.AnalogConfig()
        if size == "tiny":
            config = replace(config, batch_size=32, samples_per_epoch=256)
        self.config = config
        self.batch_size = config.batch_size
        self.spec = mix.subsample_classes(pl.analog_spec(config), config.subsampled, ANALOG_R)
        self.epochs = 5 if size == "study" else 1

    def train_config(self, unit: Unit) -> tr.TrainConfig:
        b = self.config.batch_size
        handling = {
            "remove_by_sim": NegativeHandling(kind="remove_by_sim", threshold=REMOVE_THRESHOLD),
            "reweight_by_sim": NegativeHandling(kind="reweight_by_sim"),
            "resample_by_sim": NegativeHandling(kind="resample_by_sim", keep_count=b // 4),
            "remove_by_label": NegativeHandling(kind="remove_by_label"),
            "max_negatives": NegativeHandling(),
        }[unit.variant]
        base = pl.analog_train_config("dcl_eta_true", self.spec, self.config, unit.seed)
        return replace(
            base, epochs=self.epochs, handling=handling,
            n_negatives=b // 2 if unit.variant == "max_negatives" else None,
        )

    def run(self, unit):
        return tr.train(self.spec, self.train_config(unit))

    def work(self, unit, output):
        return float(len(output.trace) * self.config.batch_size)

    def check(self, unit, output):
        return _trace_problems(output.trace_array()) + _norm_problems(output.params)

    def fingerprint(self, output):
        return _digest(output.trace_array(), enc.params_to_flat(output.params))

    def quality(self, outputs):
        per_epoch = max(1, self.config.samples_per_epoch // self.config.batch_size)
        loss = float(np.mean([np.mean([r.loss for r in o.trace[-per_epoch:]]) for o in outputs]))
        # exp(-loss) is the softmax weight the objective gives the positive
        return {"final_loss": loss, "quality": math.exp(-loss)}


class Bounds(Workload):
    name = "bounds"
    work_name = "mc_trials_per_s"
    quality_name = "mean 1 - lhs / rhs_total"
    variants = ("block",)

    def __init__(self, seed: int, size: str = "study"):
        super().__init__(seed, size)
        self.config = pl.BoundSweepConfig(n_configs=BOUND_BLOCK)

    def warm_up(self):
        pl.bound_sweep(replace(self.config, n_configs=1, seed=self.seed))

    def run(self, unit):
        return pl.bound_sweep(replace(self.config, seed=unit.seed))

    def work(self, unit, output):
        return float(sum(row["trials"] for row in output))

    def check(self, unit, output):
        problems = []
        if len(output) != BOUND_BLOCK:
            problems.append(f"{len(output)} bound rows instead of {BOUND_BLOCK}")
        for row in output:
            if not row["holds"]:
                problems.append(f"bound fails at config {row['config_index']}")
            if not row["lhs_stderr"] < 0.05 * row["rhs_total"]:
                problems.append(f"stderr too large at config {row['config_index']}")
        return problems

    def fingerprint(self, output):
        return _digest([sorted((k, repr(v)) for k, v in row.items()) for row in output])

    def quality(self, outputs):
        rows = [r for o in outputs for r in o]
        slack = float(np.mean([1.0 - r["lhs"] / r["rhs_total"] for r in rows]))
        stderr = float(np.mean([r["lhs_stderr"] / r["rhs_total"] for r in rows]))
        return {"bound_slack": slack, "stderr_per_rhs": stderr, "quality": slack}


WORKLOADS = {w.name: w for w in (Analog, Tradeoff, Handling, Bounds)}
