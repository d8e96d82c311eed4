import numpy as np
import pytest

from sdcl import encoder as enc
from sdcl import mixture as mix
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
        objective="cl",
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
    config = small_config(learning_rate=0.0, weight_decay=0.0)
    result = tr.train(spec, config)
    init = enc.init_params(
        spec.dim, config.hidden_dim, config.embed_dim, stream(config.seed, 0),
        gamma=config.gamma, gamma_trainable=config.gamma_trainable,
    )
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(result.params, name), getattr(init, name))
    assert result.params.gamma == init.gamma


def test_same_seed_reproduces_trace_bitwise():
    spec = gaussian_spec()
    config = small_config(objective="dcl", eta=EtaConfig(kind="true_oracle"))
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
        small_config(objective="dcl", eta=EtaConfig(kind="constant", value=0.1)),
        small_config(objective="dcl", eta=EtaConfig(kind="true_oracle")),
        small_config(
            objective="dcl",
            eta=EtaConfig(kind="lm_log_linear", a=0.2, k=0.35),
            lm_corpus_size=100,
        ),
        small_config(handling=NegativeHandling(kind="remove_by_label")),
        small_config(handling=NegativeHandling(kind="reweight_by_sim", temperature=0.5)),
        small_config(optimizer="sgd"),
        small_config(cosine_schedule=True),
    ],
)
def test_training_traces_stay_finite(config):
    spec = gaussian_spec()
    result = tr.train(spec, config)
    trace = result.trace_array()
    assert trace.shape[0] == config.epochs * (config.samples_per_epoch // config.batch_size)
    assert np.all(np.isfinite(trace))
    if config.objective == "dcl":
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
        objective="dcl",
        eta=EtaConfig(kind="lm_log_linear", a=0.2, k=0.35),
        gamma=2.0,
        gamma_trainable=True,
        lm_corpus_size=150,
        epochs=3,
    )
    result = tr.train(spec, config)
    assert result.lm is not None
    assert len(result.pll_table) >= 1
    assert result.params.token_embed is not None
    assert result.params.gamma != config.gamma  # moved by the optimizer
    assert np.all(np.isfinite(result.trace_array()))


def test_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(objective="triplet")
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        tr.TrainConfig(m_positives=2)
    with pytest.raises(ValueError):
        tr.TrainConfig(optimizer="lion")
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
