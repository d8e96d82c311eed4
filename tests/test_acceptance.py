"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the two study fixtures (imbalance analog and eta tradeoff) train
dozens of small encoders and take a few minutes each.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    assert_grads_close,
    finite_difference_grad,
    pipeline_loss_and_grads,
    selection_margins_ok,
)
from sdcl import bounds
from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import objectives as obj
from sdcl import pipelines as pl
from sdcl import textsim as ts
from sdcl.eta import EtaConfig, eta_for_batch, make_provider
from sdcl.rngstream import stream


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{name}]: {status} {detail}")
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def random_discrete_spec(seed, n_classes=None, max_points=32, with_tokens=False):
    rng = stream(seed, 50)
    k = int(n_classes or rng.integers(2, 9))
    p = int(rng.integers(max(4, k), max_points + 1))
    dim = int(rng.integers(3, 7))
    vocab = 12
    probs = rng.random(k) + 0.15
    probs /= probs.sum()
    pmfs = rng.random((k, p)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    point_tokens = None
    if with_tokens:
        point_tokens = tuple(
            tuple(int(t) for t in rng.integers(0, vocab, size=4)) for _ in range(p)
        )
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(probs),
        conditionals=mix.DiscreteConditionals(points=rng.standard_normal((p, dim)), pmfs=pmfs),
        templates=tuple(((int(rng.integers(0, vocab)),),) for _ in range(k)),
        template_weights=tuple((1.0,) for _ in range(k)),
        vocab_size=vocab,
        point_tokens=point_tokens,
    )


# ---------------------------------------------------------------------------
# Study fixtures (trained once, shared across criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def analog_results():
    config = replace(pl.AnalogConfig(), label_fractions=(0.01, 1.0), r_values=(0.1, 0.9))
    start = time.monotonic()
    rows = pl.analog_study(config)
    return {"rows": rows, "elapsed": time.monotonic() - start, "config": config}


@pytest.fixture(scope="module")
def tradeoff_results():
    # criterion 9's cells alone: tradeoff_study also trains cl, which no criterion reads
    config = pl.TradeoffConfig()
    start = time.monotonic()
    spec = pl.tradeoff_spec(config)
    rows = [pl.run_tradeoff_cell(spec, config, variant, seed)
            for variant in pl.tradeoff_variants(config) for seed in config.seeds]
    summary = pl.tradeoff_summary(rows, config)
    return {"summary": summary, "elapsed": time.monotonic() - start}


# ---------------------------------------------------------------------------
# 1. finite-sample bound holds numerically
# ---------------------------------------------------------------------------


def test_criterion_1_bound_holds():
    start = time.monotonic()
    rows = pl.bound_sweep(pl.BoundSweepConfig(n_configs=50))
    elapsed = time.monotonic() - start
    held = sum(r["holds"] for r in rows)
    stderr_ok = all(r["lhs_stderr"] < 0.05 * r["rhs_total"] for r in rows)
    n_values = {r["n"] for r in rows}
    m_values = {r["m"] for r in rows}
    variants = {r["eta_variant"] for r in rows}
    ok = (
        held == len(rows) == 50
        and stderr_ok
        and elapsed < 300
        and n_values == {4, 16, 64, 256}
        and m_values == {1, 4, 16}
        and variants == set(pl.BOUND_ETA_VARIANTS)
    )
    report(1, "bound holds over sweep", ok,
           f"held {held}/{len(rows)}, stderr_ok={stderr_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. misspecification term vanishes exactly for the oracle
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_term_vanishes():
    worst_oracle = 0.0
    all_positive = True
    for seed in range(10):
        spec = random_discrete_spec(seed + 100)
        oracle = make_provider(EtaConfig(kind="true_oracle"), spec=spec)
        _, _, term_eta = bounds.prop1_rhs(spec, bounds.eta_matrix(spec, oracle), n=16, m=4)
        worst_oracle = max(worst_oracle, term_eta)
        off_value = 0.31  # strictly between typical prior entries
        assert not np.any(np.isclose(spec.class_dist.probs, off_value, atol=1e-9))
        constant = make_provider(EtaConfig(kind="constant", value=off_value))
        _, _, term_eta_const = bounds.prop1_rhs(spec, bounds.eta_matrix(spec, constant), n=16,
                                                 m=4)
        all_positive = all_positive and term_eta_const > 0.0
    ok = worst_oracle <= 1e-15 and all_positive
    report(2, "oracle term_eta vanishes", ok,
           f"max oracle term {worst_oracle:.2e}, off-constant positive={all_positive}")


# ---------------------------------------------------------------------------
# 3. estimator unbiasedness by enumeration
# ---------------------------------------------------------------------------


def test_criterion_3_estimator_unbiased():
    worst = 0.0
    for seed in range(10):
        spec = random_discrete_spec(seed + 200)
        params = enc.init_params(spec.dim, 8, 5, stream(seed + 200, 51), gamma=1.0)
        emb, _ = enc.forward_features(params, spec.conditionals.points)
        exp_scores = np.exp(emb @ emb.T)
        rho = spec.class_dist.probs
        pmfs = spec.conditionals.pmfs
        marginal = rho @ pmfs
        for c in range(spec.num_classes):
            eta = rho[c]
            e_g0 = (exp_scores @ marginal - eta * (exp_scores @ pmfs[c])) / (1 - eta)
            target = exp_scores @ mix.exact_negative_pmf(spec, c)
            worst = max(worst, float(np.max(np.abs(e_g0 - target))))
    ok = worst < 1e-10
    report(3, "oracle-eta estimator unbiased", ok, f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. reduction identity is bitwise
# ---------------------------------------------------------------------------


def test_criterion_4_reduction_identity():
    rng = stream(300, 0)
    checked = 0
    exact = True
    while checked < 500:
        n = int(rng.integers(1, 12))
        gamma = float(rng.uniform(0.7, 2.0))
        pos = float(rng.uniform(-1, 1)) * gamma**2
        neg = rng.uniform(-1, 1, size=n) * gamma**2
        if np.sum(np.exp(neg)) <= n * math.exp(-(gamma**2)):
            continue  # clamp active; identity only claimed for inactive clamp
        inputs = obj.EstimatorInputs(
            pos_score=pos, neg_scores=neg, pos_set_scores=np.array([pos]),
            eta=0.0, gamma=gamma,
        )
        exact = exact and (obj.debiased_loss(inputs) == obj.contrastive_loss(pos, neg))
        checked += 1
    report(4, "eta=0 reduction is bitwise", exact, f"{checked} cases")


# ---------------------------------------------------------------------------
# 5. clamp invariant over a million fuzzed inputs
# ---------------------------------------------------------------------------


def test_criterion_5_clamp_invariant_fuzz():
    rng = stream(400, 0)
    total = 0
    violations = 0
    for block in range(100):
        size = 10_000
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        gamma = rng.uniform(0.3, 3.0, size=size)
        bound = gamma[:, None] ** 2
        neg = rng.uniform(-1, 1, size=(size, n)) * bound
        pos = rng.uniform(-1, 1, size=(size, m)) * bound
        eta = rng.uniform(0.0, 0.999, size=size)
        g = obj.g_estimate_many(neg, pos, eta, gamma)
        violations += int(np.sum(g < np.exp(-(gamma**2)) - 1e-300))
        total += size
    # the scalar op agrees with the vectorized sweep on a sample
    sample_ok = True
    for _ in range(200):
        gamma = float(rng.uniform(0.3, 3.0))
        inputs = obj.EstimatorInputs(
            pos_score=0.0,
            neg_scores=rng.uniform(-1, 1, size=3) * gamma**2,
            pos_set_scores=rng.uniform(-1, 1, size=2) * gamma**2,
            eta=float(rng.uniform(0, 0.999)),
            gamma=gamma,
        )
        sample_ok = sample_ok and obj.g_estimate(inputs) >= np.exp(-(gamma**2))
    ok = violations == 0 and total == 10**6 and sample_ok
    report(5, "clamp invariant (1e6 fuzz)", ok, f"{total} cases, {violations} violations")


# ---------------------------------------------------------------------------
# 6. analytic gradients of every shipped objective
# ---------------------------------------------------------------------------


HANDLING_MODES = (
    obj.NegativeHandling(kind="none"),
    obj.NegativeHandling(kind="remove_by_sim", threshold=0.3),
    obj.NegativeHandling(kind="reweight_by_sim", temperature=0.7),
    obj.NegativeHandling(kind="resample_by_sim", keep_count=2),
    obj.NegativeHandling(kind="remove_by_label"),
)
ETA_SOURCES = ("constant", "true_oracle", "lm_log_linear")


def _eta_values_for(source: str, spec, classes, token_seqs, rng):
    if source == "constant":
        provider = make_provider(EtaConfig(kind="constant", value=float(rng.uniform(0.05, 0.6))))
    elif source == "true_oracle":
        provider = make_provider(EtaConfig(kind="true_oracle"), spec=spec)
    else:
        corpus = [tuple(int(t) for t in rng.integers(0, spec.vocab_size, size=4))
                  for _ in range(30)]
        lm = ts.fit_ngram(*mix.pad_tokens(corpus), alpha=1.0, vocab_size=spec.vocab_size)
        provider = make_provider(EtaConfig(kind="lm_log_linear", a=0.2, k=0.35), lm=lm)
    return eta_for_batch(provider, classes=classes, tokens=mix.pad_tokens(token_seqs))


def test_criterion_6_gradient_checks():
    checked = 0
    eta_cycle = 0
    for handling in HANDLING_MODES:
        for objective in ("cl", "dcl"):
            done = 0
            attempt = 0
            while done < 10 and attempt < 60:
                attempt += 1
                rng = stream(500, checked + attempt * 1000)
                spec = random_discrete_spec(checked + attempt, n_classes=3)
                params = enc.init_params(3, 5, 4, rng, gamma=float(rng.uniform(1.0, 1.8)))
                b = 4
                a_x = rng.standard_normal((b, 3))
                p_x = rng.standard_normal((b, 3))
                classes = rng.integers(0, 3, size=b)
                etas = None
                if objective == "dcl":
                    token_seqs = [tuple(int(t) for t in rng.integers(0, 12, size=4))
                                  for _ in range(b)]
                    source = ETA_SOURCES[eta_cycle % len(ETA_SOURCES)]
                    etas = _eta_values_for(source, spec, classes, token_seqs, rng)
                    eta_cycle += 1
                if not selection_margins_ok(
                    params, a_x, p_x, handling=handling, etas=etas,
                    objective=objective, classes=classes, margin=5e-3,
                ):
                    continue
                _, analytic, _ = pipeline_loss_and_grads(
                    params, a_x, p_x, objective=objective, etas=etas,
                    handling=handling, classes=classes,
                )

                def loss_fn(p, a_x=a_x, p_x=p_x, objective=objective, etas=etas,
                            handling=handling, classes=classes):
                    value, _, _ = pipeline_loss_and_grads(
                        p, a_x, p_x, objective=objective, etas=etas,
                        handling=handling, classes=classes,
                    )
                    return value

                fd = finite_difference_grad(params, loss_fn, step=1e-5)
                assert_grads_close(analytic, fd, rtol=1e-4)
                done += 1
                checked += 1
            assert done == 10, f"could not find 10 clean configs for {handling.kind}/{objective}"
    ok = checked >= 100
    report(6, "gradient checks", ok, f"{checked} configurations, rel tol 1e-4")


# ---------------------------------------------------------------------------
# 7. supervised-loss ordering
# ---------------------------------------------------------------------------


def test_criterion_7_lemma_ordering():
    spec = random_discrete_spec(700, n_classes=3)
    threshold = bounds.lemma_a1_threshold(spec)
    n = int(math.ceil(threshold)) + 1
    failures = []
    for seed in range(100):
        params = enc.init_params(
            spec.dim, 8, 6, stream(700, seed + 1), gamma=math.sqrt(2.0)
        )
        result = bounds.lemma_a1_check(spec, params, n=n)
        if not result.holds:
            failures.append((seed, result))
    with pytest.raises(ValueError, match="threshold"):
        params = enc.init_params(spec.dim, 8, 6, stream(700, 0), gamma=1.0)
        bounds.lemma_a1_check(spec, params, n=max(1, int(threshold) - 2))
    ok = not failures
    report(7, "l_sup <= l_sup_mu <= l_tilde", ok,
           f"100 encoders at n={n} (threshold {threshold:.2f}), failures={len(failures)}")


# ---------------------------------------------------------------------------
# 8. class-imbalance analog ordering
# ---------------------------------------------------------------------------


def test_criterion_8_analog_ordering(analog_results):
    rows = analog_results["rows"]
    elapsed = analog_results["elapsed"]
    gap_low = pl.analog_gaps(rows, 0.1, 0.01)
    gap_full = pl.analog_gaps(rows, 0.1, 1.0)
    spread_low = pl.analog_spread(rows, 0.9, 0.01)
    spread_full = pl.analog_spread(rows, 0.9, 1.0)
    ok = (
        gap_low >= 1.0
        and gap_full >= 1.0
        and gap_low > gap_full
        and spread_low <= 1.0
        and spread_full <= 1.0
        and elapsed < 1200
    )
    report(
        8, "analog ordering", ok,
        f"r=0.1 gaps: {gap_low:+.2f}pt @1% labels, {gap_full:+.2f}pt @100%; "
        f"r=0.9 spreads: {spread_low:.2f}, {spread_full:.2f}pt; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. eta tradeoff direction on long-tailed cross-modal data
# ---------------------------------------------------------------------------


def test_criterion_9_eta_tradeoff(tradeoff_results):
    s = tradeoff_results["summary"]
    lm_head_ok = s["lm_head_accuracy"] >= s["best_constant_head"] - 0.01
    lm_tail_ok = s["lm_tail_avg_recall"] >= s["best_constant_tail"] - 0.01
    ok = (
        s["head_spearman"] > 0.0
        and s["tail_spearman"] < 0.0
        and lm_head_ok
        and lm_tail_ok
    )
    report(
        9, "eta tradeoff", ok,
        f"head rho={s['head_spearman']:+.2f}, tail rho={s['tail_spearman']:+.2f}, "
        f"lm head {s['lm_head_accuracy']:.3f} vs best {s['best_constant_head']:.3f}, "
        f"lm tail {s['lm_tail_avg_recall']:.3f} vs best {s['best_constant_tail']:.3f} "
        f"({tradeoff_results['elapsed']:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 10. exact 1/sqrt scaling of the bound terms
# ---------------------------------------------------------------------------


def test_criterion_10_scaling_laws():
    worst = 0.0
    for seed in range(5):
        spec = random_discrete_spec(seed + 900)
        etas = bounds.eta_matrix(spec, make_provider(EtaConfig(kind="constant", value=0.2)))
        for n, m in ((4, 1), (16, 4), (64, 16), (256, 8)):
            t_n, t_m, _ = bounds.prop1_rhs(spec, etas, n=n, m=m)
            t_n4, t_m4, _ = bounds.prop1_rhs(spec, etas, n=4 * n, m=4 * m)
            worst = max(worst, abs(t_n4 / t_n - 0.5), abs(t_m4 / t_m - 0.5))
    ok = worst <= 1e-12
    report(10, "1/sqrt scaling", ok, f"max ratio deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 11. bitwise determinism of repro pipelines
# ---------------------------------------------------------------------------


def test_criterion_11_repro_determinism(tmp_path):
    import json

    from sdcl.cli import main

    cfg = tmp_path / "repro.json"
    cfg.write_text(json.dumps({
        "analog": {
            "r_values": [0.1],
            "seeds": [0, 1],
            "epochs": 4,
            "samples_per_epoch": 256,
            "batch_size": 32,
            "n_probe": 4000,
            "n_test_per_class": 50,
            "label_fractions": [0.05, 1.0],
        }
    }))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["repro", "cifar-analog", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("analog_accuracy.csv", "analog_summary.csv")
    )
    report(11, "repro determinism", identical, "CSV outputs bitwise identical across reruns")
