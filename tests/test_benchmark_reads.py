"""What the benchmark's per-layer ratios read from ``in_batch_loss``.

``perfbench.layers`` counts dcl anchors from the ``objective`` keyword and
clamped anchors from each result's ``clamp_fraction``, so a change to either
would move ``objectives.clamp_fraction`` without failing any benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from sdcl import mixture as mix
from sdcl import pipelines as pl
from sdcl import train as tr

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench sits at the repository root
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402


def traced_counters(spec, config):
    """The tracer's counters over one traced ``train`` run, and its result."""
    tracer = Tracer()
    installation = install(tracer, layers.targets(config.batch_size))
    try:
        tracer.begin_unit(0)
        result = tr.train(spec, config)
        tracer.end_unit()
    finally:
        installation.remove()
    return tracer.counters, result


def test_clamp_ratio_is_the_trace_mean_and_cl_adds_no_dcl_anchors():
    # at B=16 on the analog r=0.1 spec, eta_true clamps 9 then 4 of 16 rows
    config = pl.AnalogConfig(batch_size=16, samples_per_epoch=32, epochs=1)
    spec = mix.subsample_classes(pl.analog_spec(config), config.subsampled, 0.1)
    dcl = pl.analog_train_config("dcl_eta_true", spec, config, seed=3)
    counters, result = traced_counters(spec, dcl)
    clamp = result.trace.clamp_fraction
    assert np.all(clamp > 0) and np.unique(clamp).size > 1
    assert counters["loss.dcl_anchors"] == counters["loss.anchors"] == 32
    ratio = layers.ratios(counters)["objectives.clamp_fraction"]
    assert ratio == pytest.approx(float(clamp.mean()), rel=1e-12)

    counters, result = traced_counters(spec, pl.analog_train_config("cl", spec, config, seed=3))
    assert counters["loss.anchors"] == 32
    assert counters.get("loss.dcl_anchors", 0.0) == 0.0
    assert np.all(result.trace.clamp_fraction == 0.0)
    assert layers.ratios(counters)["objectives.clamp_fraction"] == 0.0
