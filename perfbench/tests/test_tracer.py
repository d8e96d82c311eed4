"""Span arithmetic, exception safety, and wrapper placement/removal."""

import math
import sys
import types
from dataclasses import replace

import numpy as np
import pytest

from perfbench import layers
from perfbench.tracer import Target, Tracer, install, summarize, wrapped_names


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 7] > grandchild [2, 5]; sibling [8, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    tracer.begin_unit(0)
    root = tracer.open("root")
    child = tracer.open("child")
    grand = tracer.open("grand")
    tracer.close(grand)
    tracer.close(child)
    sib = tracer.open("sibling")
    tracer.close(sib)
    tracer.close(root)
    tracer.end_unit()
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 1, 0]
    assert list(spans["duration"]) == [10, 6, 3, 1]
    assert list(spans["self"]) == [10 - 6 - 1, 6 - 3, 3, 1]
    summary = summarize(spans, ["root", "child", "grand"])
    assert summary["child"]["self_s"] == 3
    # a prefix gathers its dotted splits but not other names sharing its text
    assert summarize(spans, ["sib"])["sib"]["calls"] == 0


def test_prefix_gathers_splits():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6]))
    tracer.begin_unit(0)
    for name in ("loss.loop.a", "loss.loop.b", "loss.plain"):
        tracer.close(tracer.open(name))
    tracer.end_unit()
    summary = summarize(tracer.arrays(), ["loss.loop", "loss.plain"])
    assert summary["loss.loop"]["calls"] == 2
    assert summary["loss.loop"]["self_s"] == 1 + 2
    assert summary["loss.plain"]["self_us_p50"] == pytest.approx(1e6)


def _fake_package():
    """pkg.core defines work(); pkg.user imported it by name."""
    core = types.ModuleType("fakepkg.core")

    def work(x, fail=False):
        if fail:
            raise ValueError("boom")
        return x + 1

    core.work = work
    user = types.ModuleType("fakepkg.user")
    user.work = work
    pkg = types.ModuleType("fakepkg")
    return {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}


def test_span_closes_when_the_call_raises(monkeypatch):
    for name, module in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer()
    installation = install(tracer, [Target("fakepkg.core", "work", "core.work")], "fakepkg")
    try:
        tracer.begin_unit(0)
        with pytest.raises(ValueError):
            sys.modules["fakepkg.user"].work(1, fail=True)
        assert sys.modules["fakepkg.user"].work(1) == 2
        tracer.end_unit()  # raises if a span were left open
    finally:
        installation.remove()
    spans = tracer.arrays()
    assert list(spans["name"]) == ["core.work", "core.work"]
    assert not np.any(np.isnan(spans["end"]))
    assert wrapped_names("fakepkg") == []


def test_no_spans_outside_a_unit(monkeypatch):
    for name, module in _fake_package().items():
        monkeypatch.setitem(sys.modules, name, module)
    tracer = Tracer()
    installation = install(tracer, [Target("fakepkg.core", "work", "core.work")], "fakepkg")
    try:
        assert sys.modules["fakepkg.user"].work(1) == 2
    finally:
        installation.remove()
    assert tracer.names == []


def test_wrappers_land_on_caller_visible_names_and_are_all_removed():
    import sdcl.bounds
    import sdcl.encoder
    import sdcl.eta
    import sdcl.linear_head
    import sdcl.objectives
    import sdcl.pipelines
    import sdcl.textsim
    import sdcl.train

    originals = {
        ("train", "in_batch_loss"): sdcl.objectives.in_batch_loss,
        ("train", "eta_for_batch"): sdcl.eta.eta_for_batch,
        ("pipelines", "verify_prop1"): sdcl.bounds.verify_prop1,
        ("bounds", "empirical_gap"): sdcl.bounds.empirical_gap,
        ("linear_head", "_loss_grad"): sdcl.linear_head._loss_grad,
        ("eta", "pseudo_log_likelihood"): sdcl.textsim.pseudo_log_likelihood,
        ("evaluate", "fit_softmax"): sdcl.linear_head.fit_softmax,
        ("encoder", "forward_features"): sdcl.encoder.forward_features,
    }
    adam_update = sdcl.train._Adam.update
    assert wrapped_names() == []
    installation = install(Tracer(), layers.targets(128))
    try:
        for (module, name), original in originals.items():
            current = getattr(sys.modules[f"sdcl.{module}"], name)
            assert current is not original, f"sdcl.{module}.{name} not wrapped"
        assert sdcl.train._Adam.update is not adam_update
        assert len(wrapped_names()) >= len(layers.targets(128))
    finally:
        installation.remove()
    assert wrapped_names() == []
    for (module, name), original in originals.items():
        assert getattr(sys.modules[f"sdcl.{module}"], name) is original
    assert sdcl.train._Adam.update is adam_update


def test_traced_training_records_each_layer_and_matches_untraced():
    from sdcl import mixture as mix
    from sdcl import pipelines as pl
    from sdcl import train as tr
    from sdcl.objectives import NegativeHandling

    config = pl.AnalogConfig(batch_size=16, samples_per_epoch=32, epochs=1)
    spec = mix.subsample_classes(pl.analog_spec(config), config.subsampled, 0.1)
    train_config = pl.analog_train_config("dcl_eta_true", spec, config, seed=3)
    loop_config = replace(train_config, handling=NegativeHandling(kind="remove_by_label"))
    plain = tr.train(spec, loop_config)
    tracer = Tracer()
    installation = install(tracer, layers.targets(16))
    tracer.begin_unit(0)
    try:
        traced = tr.train(spec, loop_config)
    finally:
        tracer.end_unit()
        installation.remove()
    assert np.array_equal(plain.trace_array(), traced.trace_array())
    names = set(tracer.names)
    assert {"train.train", "train.optimizer_update", "train.sample_training_batch",
            "encoder.forward_features.batch", "encoder.backward.features",
            "objectives.in_batch_loss.loop.remove_by_label",
            "eta.eta_for_batch.TrueOracleEta"} <= names
    spans = tracer.arrays()
    assert spans["parent"][0] == -1 and np.all(spans["parent"][1:] >= 0)
    assert np.all(spans["self"] >= 0)
    ratios = layers.ratios(tracer.counters)
    assert ratios["objectives.fallback_per_anchor"] == 0.0
    assert not math.isnan(ratios["objectives.clamp_fraction"])
