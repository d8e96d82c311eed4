import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import AdamPerArray, build_lm_assets_loop, params_at

from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl import pipelines as pl
from sdcl import train as tr
from sdcl.eta import EtaConfig
from sdcl.objectives import NegativeHandling
from sdcl.rngstream import stream


def gaussian_spec(n_classes=4, dim=6, sep=2.0, sigma=1.0, seed=0):
    rng = stream(seed, 88)
    means = rng.standard_normal((n_classes, dim))
    means *= sep / np.linalg.norm(means, axis=1, keepdims=True)
    templates = tuple(((c, n_classes + c, c),) for c in range(n_classes))
    return mix.MixtureSpec(
        class_dist=mix.ClassDistribution(np.full(n_classes, 1.0 / n_classes)),
        conditionals=mix.GaussianConditionals(means=means, stddevs=np.full(n_classes, sigma)),
        templates=templates,
        template_weights=tuple((1.0,) for _ in range(n_classes)),
        vocab_size=2 * n_classes,
    )


def small_config(**overrides):
    base = dict(
        eta=None,
        batch_size=8,
        hidden_dim=8,
        embed_dim=6,
        epochs=2,
        samples_per_epoch=32,
        seed=3,
    )
    base.update(overrides)
    return tr.TrainConfig(**base)


def test_zero_lr_keeps_params_bitwise():
    spec = gaussian_spec()
    config = small_config(learning_rate=0.0)
    result = tr.train(spec, config)
    init = enc.init_params(
        spec.dim, config.hidden_dim, config.embed_dim, stream(config.seed, 0),
        gamma=config.gamma,
    )
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(result.params, name), getattr(init, name))
    assert result.params.gamma == init.gamma


def test_same_seed_reproduces_trace_bitwise():
    spec = gaussian_spec()
    config = small_config(eta=EtaConfig(kind="true_oracle"))
    r1 = tr.train(spec, config)
    r2 = tr.train(spec, config)
    assert np.array_equal(r1.trace_array(), r2.trace_array())
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(r1.params, name), getattr(r2.params, name))


def test_different_seed_changes_trace():
    spec = gaussian_spec()
    r1 = tr.train(spec, small_config(seed=1))
    r2 = tr.train(spec, small_config(seed=2))
    assert not np.array_equal(r1.trace_array(), r2.trace_array())


@pytest.mark.parametrize(
    "config",
    [
        small_config(),
        small_config(eta=EtaConfig(kind="constant", value=0.1)),
        small_config(eta=EtaConfig(kind="true_oracle")),
        small_config(
            eta=EtaConfig(kind="lm_log_linear", a=0.2, k=0.35),
            lm_corpus_size=100,
        ),
        small_config(handling=NegativeHandling(kind="remove_by_label")),
        small_config(handling=NegativeHandling(kind="reweight_by_sim", temperature=0.5)),
    ],
)
def test_training_traces_stay_finite(config):
    spec = gaussian_spec()
    result = tr.train(spec, config)
    trace = result.trace_array()
    assert trace.shape[0] == config.epochs * (config.samples_per_epoch // config.batch_size)
    assert np.all(np.isfinite(trace))
    if config.eta is not None:
        assert np.all(trace[:, 3] > 0)  # mean eta recorded


def test_training_reduces_loss():
    spec = gaussian_spec(sep=3.0, sigma=0.5)
    config = small_config(epochs=12, samples_per_epoch=128, batch_size=16, seed=7)
    result = tr.train(spec, config)
    trace = result.trace_array()
    first = trace[: 8, 1].mean()
    last = trace[-8:, 1].mean()
    assert last < first


def test_cross_modal_training_runs_and_trains_gamma():
    spec = gaussian_spec()
    config = small_config(
        mode="cross_modal",
        eta=EtaConfig(kind="lm_log_linear", a=0.2, k=0.35),
        gamma=2.0,
        gamma_trainable=True,
        lm_corpus_size=150,
        epochs=3,
    )
    result = tr.train(spec, config)
    # eta_LM scored each batch's reports: a positive mean that varies by step
    assert np.all(result.trace.mean_eta > 0)
    assert np.unique(result.trace.mean_eta).size > 1
    assert result.params.token_embed is not None
    assert result.params.gamma != config.gamma  # moved by the optimizer
    assert np.all(np.isfinite(result.trace_array()))


def test_training_batch_structure():
    spec = gaussian_spec()
    config = small_config(batch_size=16)
    classes, anchors, anchor_tokens, positives = tr.sample_training_batch(
        spec, config, stream(12, 0)
    )
    # row i's positive is a same-class draw; the other rows are its negatives
    assert classes.shape == (16,)
    assert anchors.shape == positives.shape == (16, spec.dim)
    assert not np.array_equal(anchors, positives)
    assert anchor_tokens is None


def test_training_batch_cross_modal_token_layout():
    spec = gaussian_spec()
    config = small_config(mode="cross_modal")
    classes, anchors, anchor_tokens, positives = tr.sample_training_batch(
        spec, config, stream(13, 0)
    )
    assert anchors is None
    ids, mask = anchor_tokens
    assert ids[:, 0].tolist() == [int(c) for c in classes]  # class-c template
    assert mask.all() and ids.shape == (config.batch_size, 3)
    assert positives.shape == (config.batch_size, spec.dim)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_cross_modal_draws_are_pinned():
    # the eta-tradeoff study's draws at seed 0; any change to the order or the
    # number of draws moves every trained cross-modal encoder, and this names it
    config = pl.TradeoffConfig()
    spec = pl.tradeoff_spec(config)
    train_config, lm = pl.tradeoff_train_config("dcl_eta_lm", spec, config, 0)
    classes, _, tokens, positives = tr.sample_training_batch(spec, train_config, stream(0, 1, 0, 0))
    assert _digest(classes.astype(np.int64), *tokens, positives) == (
        "ca680459dde9a33378324a44f4c0ec3243a820694a310b724efabedbe0ea411a")
    assert _digest(lm.bigram_counts) == (
        "b25f43f7318dc499eb4b09cf0a32348c2918c4e2705f6d26ca8e438e81c0eb4e")
    # the calibration reports of the LM variant in pipelines.tradeoff_train_config
    rng = stream(0, 11)
    reports = mix.sample_reports(spec, mix.sample_class_array(spec.class_dist, 1000, rng), rng)
    assert _digest(*reports) == (
        "b906368f6b6ea9ff8050c083b514908d9bfb2119aeb78e9cf3ceb151e712d08a")


HANDLING_PINS = {
    "remove_by_sim": ("dcl_eta_true", NegativeHandling(kind="remove_by_sim", threshold=-0.9), None,
                      "2882793ec1d38994f060736b4d407ed8da596fb95bf9f840528dea7d7b00b75b"),
    "reweight_by_sim": ("dcl_eta_true", NegativeHandling(kind="reweight_by_sim"), None,
                        "5832f1b37e7456f9fe10acdf9b8eee9fe6a7d3a80f5e655cb9fe4d3f18fba29d"),
    "resample_by_sim": ("dcl_eta_true", NegativeHandling(kind="resample_by_sim", keep_count=32),
                        None, "2ddf1ffb4923d8fcbf973e7f33460f42e5b07c5615ec42953bf3a99f18089e46"),
    "remove_by_label": ("dcl_eta_true", NegativeHandling(kind="remove_by_label"), None,
                        "958a90cff99250b051b5a4bb8ce6678716516b42928823b589beddb56fd8fad5"),
    "max_negatives": ("dcl_eta_true", NegativeHandling(), 64,
                      "89274fa9356505efe78b379c77e4c182b8835ad1b47c2de643e5541c097790a2"),
    # the plain contrastive step: no handling, the reweighting gradient and the cap
    "cl_none": ("cl", NegativeHandling(), None,
                "fffaf43ed3ba40241902fb211be33ae65c8b248b721fafa45ff943dd03bffdc1"),
    "cl_reweight_by_sim": ("cl", NegativeHandling(kind="reweight_by_sim"), None,
                           "c25ade68a84eba6450109f78fc3e84e2d5155e3504fde9b490d644745049e322"),
    "cl_max_negatives": ("cl", NegativeHandling(), 64,
                         "497e84f15dee49f8087405bd62f97a17a80a42729fbd02abf9bf61950db9de46"),
}


@pytest.mark.parametrize("mode", sorted(HANDLING_PINS))
def test_handling_training_is_pinned(mode):
    # two epochs of the weighted in-batch path at B=128 on the analog r=0.1
    # spec, one run per negative-handling mode as the benchmark cycles them,
    # and plain contrastive runs; the digest covers every trace record and
    # the trained flat parameters
    variant, handling, cap, digest = HANDLING_PINS[mode]
    config = pl.AnalogConfig()
    spec = mix.subsample_classes(pl.analog_spec(config), config.subsampled, 0.1)
    base = pl.analog_train_config(variant, spec, config, 5)
    result = tr.train(spec, replace(base, epochs=2, handling=handling, n_negatives=cap))
    if mode == "remove_by_sim":
        assert result.trace.fallback_count.sum() > 0
    assert _digest(result.trace, enc.params_to_flat(result.params)) == digest


@pytest.mark.parametrize("perturb", [0.0, 0.05, 1.0])
def test_build_lm_assets_matches_the_interleaved_loop(perturb):
    # one pass over (class, report) rows counts what a sample_class call and a
    # one-report sampler call per sentence drew
    spec = replace(pl.tradeoff_spec(pl.TradeoffConfig()), report_perturb_prob=perturb)
    config = small_config(seed=7, lm_corpus_size=2000)
    got, want = tr.build_lm_assets(spec, config), build_lm_assets_loop(spec, config)
    assert got.bigram_counts.tobytes() == want.bigram_counts.tobytes()
    assert got.unigram_counts.tobytes() == want.unigram_counts.tobytes()


@pytest.mark.parametrize("train_gamma", [True, False])
def test_flat_adam_matches_the_per_array_update(train_gamma):
    # 50 steps on views of one flat vector equal 50 per-array updates bit for bit
    rng = stream(14, 0)
    params = enc.init_params(5, 7, 4, rng, gamma=2.0, vocab_size=6)
    ref_params = params_at(params, enc.params_to_flat(params))
    flat, ref = tr._Adam(params, train_gamma), AdamPerArray(train_gamma)
    for name in params.array_fields():
        assert np.shares_memory(getattr(params, name), flat.flat)
    for _ in range(50):
        grads = rng.standard_normal(flat.flat.size)
        flat.update(grads, 1e-2)
        ref.update(ref_params, enc.split_flat(grads, params.array_shapes()), 1e-2)
    for name in params.array_fields():
        assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes(), name
    assert (float(params.gamma) != 2.0) == train_gamma


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(mode="unimodal")  # the pair kinds are redraw, view and cross_modal
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=1)
    for bad in (dict(epochs=0), dict(hidden_dim=0), dict(embed_dim=0), dict(lm_corpus_size=0),
                dict(gamma=-1.0), dict(gamma=float("inf")), dict(learning_rate=float("nan")),
                dict(learning_rate=-1e-3)):
        with pytest.raises(ValueError):
            tr.TrainConfig(**bad)
    resample = NegativeHandling(kind="resample_by_sim", keep_count=8)
    tr.TrainConfig(batch_size=9, handling=resample)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=8, handling=resample)
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=32, n_negatives=7, handling=resample)


def test_trace_records_fallbacks():
    # every similarity is >= -gamma^2, so a lower threshold empties every row
    spec = gaussian_spec()
    gamma = 1.5
    handling = NegativeHandling(kind="remove_by_sim", threshold=-gamma**2 - 0.1)
    config = small_config(gamma=gamma, handling=handling)
    result = tr.train(spec, config)
    assert np.all(result.trace.fallback_count == config.batch_size)
    assert np.all(result.trace_array()[:, -1] == config.batch_size)
    plain = tr.train(spec, small_config(gamma=gamma))
    assert np.all(plain.trace_array()[:, -1] == 0)


def test_checkpoint_round_trip_from_training(tmp_path):
    spec = gaussian_spec()
    result = tr.train(spec, small_config())
    path = tmp_path / "ckpt.bin"
    enc.save_checkpoint(result.params, path, meta={"seed": 3, "step": len(result.trace)})
    loaded = enc.load_checkpoint(path)
    assert np.array_equal(loaded.w1, result.params.w1)
    assert loaded.gamma == result.params.gamma
