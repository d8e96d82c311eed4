import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from sdcl import pipelines as pl
from sdcl import mixture as mix
from sdcl import train as tr
from sdcl.manifest import RunManifest, write_json


def tiny_analog_config(**overrides):
    base = dict(
        epochs=2,
        samples_per_epoch=128,
        batch_size=16,
        n_probe=1500,
        n_test_per_class=30,
        label_fractions=(1.0,),
        r_values=(0.5,),
        seeds=(0,),
    )
    base.update(overrides)
    return pl.AnalogConfig(**base)


def tiny_tradeoff_config(**overrides):
    base = dict(
        epochs=2,
        samples_per_epoch=128,
        batch_size=16,
        lm_corpus_size=200,
        constant_etas=(0.05, 0.1),
        retrieval_per_class=5,
        prompt_images_per_side=20,
        seeds=(0,),
    )
    base.update(overrides)
    return pl.TradeoffConfig(**base)


def test_analog_spec_structure():
    config = pl.AnalogConfig()
    spec = pl.analog_spec(config)
    assert spec.num_classes == 10
    assert spec.mode == "continuous"
    norms = np.linalg.norm(spec.conditionals.means, axis=1)
    assert np.allclose(norms, config.separation, atol=1e-9)
    sub = mix.subsample_classes(spec, config.subsampled, 0.1)
    assert abs(sub.class_dist.probs[0] - 0.2 * 0.1 / 1.1) < 1e-12


def test_analog_variant_configs():
    config = pl.AnalogConfig()
    spec = pl.analog_spec(config)
    sub = mix.subsample_classes(spec, config.subsampled, 0.1)
    cl = pl.analog_train_config("cl", sub, config, seed=0)
    assert cl.eta is None and cl.mode == "view"
    rare = pl.analog_train_config("dcl_eta_rare", sub, config, seed=0)
    assert abs(rare.eta.value - 0.2 * 0.1 / 1.1) < 1e-12
    common = pl.analog_train_config("dcl_eta_common", sub, config, seed=0)
    assert abs(common.eta.value - 0.2 / 1.1) < 1e-12


def test_analog_study_rows_and_gaps():
    config = tiny_analog_config()
    rows = pl.analog_study(config)
    assert len(rows) == len(pl.ANALOG_VARIANTS)
    for row in rows:
        assert 0.0 <= row["accuracies"][1.0] <= 1.0
    gap = pl.analog_gaps(rows, 0.5, 1.0)
    spread = pl.analog_spread(rows, 0.5, 1.0)
    assert np.isfinite(gap)
    assert spread >= 0.0


def test_analog_cell_memory_peak_at_the_study_pool():
    # the 40,000-row probe pool: embedded in row blocks, its raw features
    # freed once embedded, and one (K, n) probe buffer with no transposed
    # copy keep the traced peak near 19 MB; one-pass forwards, the kept raw
    # features, the copy and a second buffer made it 45 MB
    config = pl.AnalogConfig(epochs=1, label_fractions=(0.01, 1.0))
    base = pl.analog_spec(config)
    tracemalloc.start()
    try:
        pl.run_analog_cell(base, config, 0.1, "cl", 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_tradeoff_spec_structure():
    config = pl.TradeoffConfig()
    spec = pl.tradeoff_spec(config)
    assert np.allclose(spec.class_dist.probs[:2], 0.25)
    assert np.allclose(spec.class_dist.probs[2:], 0.0625)
    # heads sit on the same shell, split by head_split
    d_heads = np.linalg.norm(spec.conditionals.means[0] - spec.conditionals.means[1])
    assert abs(d_heads - config.head_split) < 1e-9
    for c in range(10):
        assert len(spec.templates[c]) == 1


def test_tradeoff_study_and_summary():
    config = tiny_tradeoff_config()
    rows = pl.tradeoff_study(config)
    # cl + 2 constants + lm, one seed each; every value, (a, k) included, as
    # recorded before the variant table replaced the if-chain
    assert len(rows) == 4
    flat = [sorted(row.items()) for row in rows]
    assert hashlib.sha256(repr(flat).encode()).hexdigest() == (
        "59f77bb973c7eb578cdd0c736c46fcd919ea1f7f81baae5164f7afea32921e19")
    summary = pl.tradeoff_summary(rows, config)
    assert len(summary["head_accuracy"]) == 2
    assert 0.0 <= summary["lm_tail_avg_recall"] <= 1.0
    lm_rows = [r for r in rows if r["variant"] == "dcl_eta_lm"]
    assert lm_rows[0]["eta_a"] > 0 and lm_rows[0]["eta_k"] > 0
    # the cl and constant-eta cells fit no LM, so they have no calibrated (a, k)
    others = [r for r in rows if r["variant"] != "dcl_eta_lm"]
    assert [r["variant"] for r in others] == ["cl", "0.05", "0.1"]
    assert all(r["eta_a"] is None and r["eta_k"] is None for r in others)

    # every variant of both studies builds its TrainConfig; an unknown name raises
    analog = tiny_analog_config()
    sub = mix.subsample_classes(pl.analog_spec(analog), analog.subsampled, 0.5)
    for variant in pl.ANALOG_VARIANTS:
        train_config = pl.analog_train_config(variant, sub, analog, seed=0)
        assert isinstance(train_config, tr.TrainConfig) and train_config.seed == 0
        assert (train_config.eta is None) == (variant == "cl")
    spec = pl.tradeoff_spec(config)
    for variant in ("cl",) + pl.tradeoff_variants(config):
        train_config, lm = pl.tradeoff_train_config(variant, spec, config, seed=0)
        assert isinstance(train_config, tr.TrainConfig) and train_config.seed == 0
        eta = train_config.eta
        assert (eta is None) == (variant == "cl")
        assert (lm is not None) == (eta is not None and eta.kind == "lm_log_linear")
    with pytest.raises(ValueError, match="unknown variant 'mystery'"):
        pl.analog_train_config("mystery", sub, analog, seed=0)
    # a constant outside constant_etas is unknown, not parsed
    for variant in ("mystery", "0.2"):
        with pytest.raises(ValueError, match="unknown variant"):
            pl.tradeoff_train_config(variant, spec, config, seed=0)


def test_tradeoff_study_fits_each_seed_lm_once(monkeypatch):
    # every cell's setup is built once: only dcl_eta_lm fits an LM, one per
    # seed, and its cells train with that LM
    calls = []
    build = tr.build_lm_assets

    def counted(spec, config):
        calls.append(config.seed)
        return build(spec, config)

    monkeypatch.setattr(tr, "build_lm_assets", counted)
    rows = pl.tradeoff_study(tiny_tradeoff_config(epochs=1, seeds=(0, 1)))
    assert len(rows) == 8 and sorted(calls) == [0, 1]


def test_tradeoff_summary_with_a_constant_column_is_strict_json(tmp_path):
    # a constant head-accuracy column has no rank correlation: nan in Python
    # (criterion 9 reads it), null in the written file, which strict parsers accept
    config = pl.TradeoffConfig()
    rows = [{"variant": v, "head_accuracy": 0.5, "tail_avg_recall": 0.1 * i}
            for i, v in enumerate(pl.tradeoff_variants(config))]
    summary = pl.tradeoff_summary(rows, config)
    assert math.isnan(summary["head_spearman"]) and summary["tail_spearman"] == 1.0

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    path = write_json(tmp_path / "tradeoff_summary.json", summary, RunManifest(config={}, seed=0))
    written = json.loads(path.read_text(), parse_constant=reject)
    assert written["head_spearman"] is None and written["tail_spearman"] == 1.0
    assert written["head_accuracy"] == summary["head_accuracy"]


@pytest.mark.parametrize("variant", ["0.05", "dcl_eta_lm"])
def test_tradeoff_cell_deterministic(variant):
    # the tradeoff cells are the only ones that train gamma
    config = tiny_tradeoff_config()
    spec = pl.tradeoff_spec(config)
    first = pl.run_tradeoff_cell(spec, config, variant, seed=0)
    second = pl.run_tradeoff_cell(spec, config, variant, seed=0)
    assert first == second
    assert type(first["gamma_final"]) is float
    assert first["gamma_final"] != config.gamma


def test_bound_sweep_rows():
    config = pl.BoundSweepConfig(n_configs=8, trials=60)
    rows = pl.bound_sweep(config)
    assert len(rows) == 8
    variants = {row["eta_variant"] for row in rows}
    assert variants == set(pl.BOUND_ETA_VARIANTS)
    for row in rows:
        assert row["rhs_total"] > 0
        assert row["lhs"] >= 0
        assert 2 <= row["classes"] <= 8
        assert row["points"] <= 32


def test_bound_sweep_rows_are_pinned():
    # the 50-config sweep of acceptance criterion 1; any change to the Monte
    # Carlo draws or to the order of the gap's arithmetic names itself here.
    # Recorded with the gap's sums taken from point counts and the scores'
    # pair mean subtracted once per class.
    rows = pl.bound_sweep(pl.BoundSweepConfig(n_configs=50))
    flat = [[(k, v if isinstance(v, str) else float(v)) for k, v in sorted(row.items())]
            for row in rows]
    assert hashlib.sha256(repr(flat).encode()).hexdigest() == (
        "33f92863f685a3389bfcddef9ae8e9ccf67b54c94303273d3469d7092dbdcfc6")


def test_bound_sweep_deterministic():
    config = pl.BoundSweepConfig(n_configs=3, trials=50)
    r1 = pl.bound_sweep(config)
    r2 = pl.bound_sweep(config)
    for a, b in zip(r1, r2):
        assert set(a) == set(b)
        for key in a:
            if isinstance(a[key], float) and np.isnan(a[key]):
                assert np.isnan(b[key])
            else:
                assert a[key] == b[key]


def test_spearman_matches_scipy():
    import warnings

    from scipy.stats import spearmanr

    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(2, 10))
        # continuous columns, then columns with ties, then constant columns
        a = rng.normal(size=n) if trial % 2 else rng.integers(0, 3, size=n).astype(float)
        b = rng.normal(size=n) if trial % 3 else rng.integers(0, 2, size=n).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = float(spearmanr(a, b).statistic)
        got = pl._spearman(a, b)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert abs(got - want) <= 1e-12
