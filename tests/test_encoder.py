import json
import tracemalloc

import numpy as np
import pytest

from helpers import (
    backward_add_at, backward_reference, forward_features_reference, forward_tokens_reference,
    params_at, pool_tokens_reference, token_batch,
)

from sdcl import encoder as enc
from sdcl import mixture as mix
from sdcl.rngstream import stream


def random_params(seed=0, input_dim=5, hidden=7, out=6, gamma=np.sqrt(2.0), vocab=None):
    return enc.init_params(input_dim, hidden, out, stream(seed, 0), gamma=gamma,
                           vocab_size=vocab)


def backward_arrays(params, cache, d_emb):
    """``backward``'s flat vector split into its arrays, keyed by name."""
    return enc.split_flat(enc.backward(params, cache, d_emb), params.array_shapes())


def test_embedding_norm_is_gamma():
    for gamma in (1.0, np.sqrt(2.0), 5.0):
        params = random_params(seed=1, gamma=gamma)
        x = stream(1, 1).standard_normal((20, 5))
        emb, _ = enc.forward_features(params, x)
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - gamma) < 1e-9)


def test_constant_output_when_weights_zero():
    params = random_params(seed=2)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    x = stream(2, 1).standard_normal((8, 5))
    emb, _ = enc.forward_features(params, x)
    expected = params.gamma * params.b2 / np.linalg.norm(params.b2)
    assert np.allclose(emb, expected[None, :], atol=1e-12)


def test_degenerate_norm_raises():
    params = random_params(seed=3)
    params.w1[:] = 0.0
    params.w2[:] = 0.0
    params.b2[:] = 0.0
    with pytest.raises(ValueError):
        enc.forward_features(params, np.ones((1, 5)))


def test_similarity_bounded_by_gamma_squared():
    params = random_params(seed=4, gamma=1.0)
    x = stream(4, 1).standard_normal((2, 5))
    emb, _ = enc.forward_features(params, x)
    assert abs(emb[0] @ emb[0] - 1.0) < 1e-9
    assert abs(emb[0] @ -emb[0] + 1.0) < 1e-9
    gamma = np.sqrt(2.0)
    params = random_params(seed=5, gamma=gamma)
    emb, _ = enc.forward_features(params, stream(5, 1).standard_normal((30, 5)))
    sims = emb @ emb.T
    assert np.all(np.abs(sims) <= gamma**2 + 1e-9)


def test_projection_kills_radial_gradient():
    # loss = ||f(x)||^2 is constant (= gamma^2), so MLP weights get zero grad
    params = random_params(seed=6)
    x = stream(6, 1).standard_normal((4, 5))
    emb, cache = enc.forward_features(params, x)
    grads = backward_arrays(params, cache, 2.0 * emb)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.max(np.abs(grads[name])) < 1e-12


def _fd_check(params, loss_fn, step=1e-5, rtol=1e-4):
    """Central-difference check of d(loss)/d(params) for a scalar loss."""
    loss, flat_grads = loss_fn(params)
    theta = enc.params_to_flat(params)
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += step
        minus = theta.copy()
        minus[i] -= step
        lp, _ = loss_fn(params_at(params, plus))
        lm, _ = loss_fn(params_at(params, minus))
        fd[i] = (lp - lm) / (2 * step)
    err = np.abs(flat_grads - fd)
    tol = rtol * np.maximum(np.abs(flat_grads), np.abs(fd)) + 1e-8
    assert np.all(err <= tol), f"max violation {np.max(err - tol):.3e}"


def test_backward_matches_finite_differences_features():
    r = stream(7, 1)
    x = r.standard_normal((3, 5))
    target = r.standard_normal((3, 6))

    def loss_fn(params):
        emb, cache = enc.forward_features(params, x)
        d_emb = target  # loss = sum(target * emb)
        loss = float(np.sum(target * emb))
        return loss, enc.backward(params, cache, d_emb)

    for seed in range(5):
        _fd_check(random_params(seed=seed + 10), loss_fn)


def test_backward_matches_finite_differences_tokens():
    r = stream(8, 1)
    seqs = [(0, 2, 2), (1,), (3, 0)]
    target = r.standard_normal((3, 6))

    def loss_fn(params):
        emb, cache = enc.forward_tokens(params, *mix.pad_tokens(seqs))
        loss = float(np.sum(target * emb))
        return loss, enc.backward(params, cache, target)

    for seed in range(3):
        _fd_check(random_params(seed=seed + 20, vocab=4), loss_fn)


@pytest.mark.parametrize("kind", ["ragged", "one_row", "equal_length"])
def test_token_batch_matches_per_sequence_reference(kind):
    # the padded batch pools and backpropagates bit for bit like the
    # per-sequence loops, token repeats and length-1 rows included
    r = stream(12, 1)
    for seed in range(5):
        params = random_params(seed=seed + 40, vocab=6)
        seqs = token_batch(kind, r, vocab=6)
        emb, cache = enc.forward_tokens(params, *mix.pad_tokens(seqs))
        ref_emb, ref_cache = forward_tokens_reference(params, seqs)
        assert np.array_equal(emb, ref_emb)
        d_emb = r.standard_normal(emb.shape)
        grads = backward_arrays(params, cache, d_emb)
        ref = backward_reference(params, ref_cache, d_emb)
        for name in params.array_fields():
            assert np.array_equal(grads[name], ref[name]), name


@pytest.mark.parametrize("kind", ["ragged", "one_row", "equal_length"])
def test_token_scatter_matches_add_at(kind):
    # the bincount scatter adds in the order np.add.at does; a 3-token
    # vocabulary makes most ids repeat within and across rows
    r = stream(12, 2)
    for seed in range(5):
        params = random_params(seed=seed + 50, vocab=3)
        emb, cache = enc.forward_tokens(params, *mix.pad_tokens(token_batch(kind, r, vocab=3)))
        d_emb = r.standard_normal(emb.shape)
        grads = backward_arrays(params, cache, d_emb)
        ref = backward_add_at(params, cache, d_emb)
        for name in params.array_fields():
            assert grads[name].tobytes() == ref[name].tobytes(), name


@pytest.mark.parametrize("vocab", [None, 6])
def test_backward_returns_the_flat_layout(vocab):
    # one vector in params_to_flat's layout whose split views equal the
    # per-array reference bit for bit, on the feature pass and, with a token
    # table, on the token pass too
    r = stream(12, 3)
    params = random_params(seed=60, vocab=vocab)
    passes = [(enc.forward_features(params, r.standard_normal((9, 5)))[1], None)]
    if vocab is not None:
        seqs = token_batch("ragged", r, vocab=vocab)
        passes.append((enc.forward_tokens(params, *mix.pad_tokens(seqs))[1],
                       forward_tokens_reference(params, seqs)[1]))
    for cache, ref_cache in passes:
        d_emb = r.standard_normal((cache.x.shape[0], 6))
        flat = enc.backward(params, cache, d_emb)
        assert flat.dtype == np.float64 and flat.shape == enc.params_to_flat(params).shape
        ref = backward_reference(params, ref_cache or cache, d_emb)
        assert list(ref) == params.array_fields()
        grads = enc.split_flat(flat, params.array_shapes())
        for name in params.array_fields():
            assert grads[name].shape == ref[name].shape, name
            assert grads[name].tobytes() == ref[name].tobytes(), name


def test_backward_finite_check_names_the_array_and_allows_overflowing_sums():
    # a hand-built cache with a1 = 0 and uhat = e1: an upstream e2 gives
    # dz1 = gamma * w2[1], so the w1 gradient is gamma * w2[1]^T x
    params = random_params(seed=34)
    params.w2[1] = 1.0
    uhat = np.eye(6)[:1]
    x = np.full((1, 5), 1e307)
    cache = enc.ForwardCache(x=x, a1=np.zeros((1, 7)), norms=np.ones(1), uhat=uhat)
    d_emb = np.eye(6)[1:2]
    grads = backward_arrays(params, cache, d_emb)
    # every entry is finite, only their sum overflows
    assert np.all(np.isfinite(grads["w1"]))
    assert sum(grads["w1"].ravel().tolist()) == np.inf
    x[0, 2] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite gradient in w1$"):
        enc.backward(params, cache, d_emb)


def _assert_forward_matches_reference(params, x, emb, cache):
    ref_emb, (ref_x, a1, _, norms, uhat) = forward_features_reference(params, x)
    assert emb.tobytes() == ref_emb.tobytes()
    for name, ref in [("x", ref_x), ("a1", a1), ("norms", norms), ("uhat", uhat)]:
        got = getattr(cache, name)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("rows", [1, 128, 4000])
def test_forward_features_matches_the_out_of_place_formula(rows):
    # the in-place layers repeat the out-of-place ufuncs operand for
    # operand, so every array is bit for bit the same; at the study shapes
    params = random_params(seed=35, input_dim=16, hidden=64, out=32)
    x = stream(35, rows).standard_normal((rows, 16))
    emb, cache = enc.forward_features(params, x)
    _assert_forward_matches_reference(params, x, emb, cache)
    assert not hasattr(cache, "u")


def test_forward_tokens_matches_the_out_of_place_formula():
    params = random_params(seed=36, input_dim=16, hidden=64, out=32, vocab=24)
    seqs = token_batch("ragged", stream(36, 1), vocab=24)
    emb, cache = enc.forward_tokens(params, *mix.pad_tokens(seqs))
    _assert_forward_matches_reference(params, pool_tokens_reference(params, seqs), emb, cache)


def test_forward_features_allocates_only_what_it_returns():
    # a 4,000-row forward holds a1, uhat, the embeddings and the norms and
    # nothing else at its peak: one more (B, D) temporary is 1 MB over
    params = random_params(seed=37, input_dim=16, hidden=64, out=32)
    x = stream(37, 1).standard_normal((4000, 16))
    enc.forward_features(params, x)
    tracemalloc.start()
    try:
        emb, cache = enc.forward_features(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = cache.a1.nbytes + cache.uhat.nbytes + emb.nbytes + cache.norms.nbytes
    assert peak < kept + 128 * 1024


@pytest.mark.parametrize("rows", [1, enc.EMBED_BLOCK_ROWS - 1, enc.EMBED_BLOCK_ROWS,
                                  enc.EMBED_BLOCK_ROWS + 1, 2 * enc.EMBED_BLOCK_ROWS + 3])
def test_embed_features_is_the_one_pass_forward(rows):
    # at the study shapes, where a 1- or 3-row remainder block would round
    # its products differently
    params = random_params(seed=38, input_dim=16, hidden=64, out=32)
    x = stream(38, rows).standard_normal((rows, 16))
    emb = enc.embed_features(params, x)
    assert emb.tobytes() == enc.forward_features(params, x)[0].tobytes()


def test_embed_features_of_no_rows():
    assert enc.embed_features(random_params(seed=39), np.empty((0, 5))).shape == (0, 6)


def test_embed_features_rejects_a_degenerate_row():
    # with zero biases the zero input maps to the zero vector; it sits in
    # the last block
    params = random_params(seed=40)
    params.b1[:] = 0.0
    params.b2[:] = 0.0
    x = stream(40, 1).standard_normal((enc.EMBED_BLOCK_ROWS + 2, 5))
    x[-1] = 0.0
    with pytest.raises(ValueError) as want:
        enc.forward_features(params, x)
    with pytest.raises(ValueError, match="degenerate embedding") as got:
        enc.embed_features(params, x)
    assert str(got.value) == str(want.value)


def test_token_batch_rejects_empty_sequence():
    params = random_params(seed=31, vocab=4)
    ids, mask = mix.pad_tokens([(0, 1), (2,)])
    mask[1] = False
    with pytest.raises(ValueError, match="nonempty"):
        enc.forward_tokens(params, ids, mask)


def test_single_linear_layer_closed_form():
    # identity nonlinearity and no projection reduce backward to an outer
    # product; emulate by checking the linear sublayer directly
    r = stream(9, 1)
    w = r.standard_normal((4, 3))
    x = r.standard_normal(3)
    d_out = r.standard_normal(4)
    # d(sum(d_out . (w @ x)))/dw = outer(d_out, x)
    grad = np.outer(d_out, x)
    fd = np.zeros_like(w)
    for i in range(4):
        for j in range(3):
            wp = w.copy()
            wp[i, j] += 1e-6
            wm = w.copy()
            wm[i, j] -= 1e-6
            fd[i, j] = (d_out @ (wp @ x) - d_out @ (wm @ x)) / 2e-6
    assert np.allclose(grad, fd, atol=1e-8)


def test_encode_single_point_paths():
    params = random_params(seed=30, vocab=5)
    e_feat, _ = enc.forward_features(params, np.ones(5))
    e_tok, _ = enc.forward_tokens(params, *mix.pad_tokens([(0, 1)]))
    assert e_feat.shape == e_tok.shape == (1, 6)
    assert abs(np.linalg.norm(e_feat) - params.gamma) < 1e-9
    assert abs(np.linalg.norm(e_tok) - params.gamma) < 1e-9
    with pytest.raises(ValueError):
        enc.forward_tokens(random_params(seed=30), *mix.pad_tokens([(0, 1)]))  # no token table


def test_checkpoint_round_trip(tmp_path):
    params = random_params(seed=31, vocab=6)
    path = tmp_path / "ckpt.bin"
    enc.save_checkpoint(params, path, meta={"seed": 7, "step": 42})
    loaded = enc.load_checkpoint(path)
    for name in ("w1", "b1", "w2", "b2", "token_embed"):
        assert np.array_equal(getattr(params, name), getattr(loaded, name))
    assert loaded.gamma == params.gamma
    assert loaded.gamma.shape == ()
    # the sidecar holds no training setting, such as whether gamma trains
    sidecar = json.loads((tmp_path / "ckpt.bin.json").read_text())
    assert sorted(sidecar) == ["dtype", "seed", "sha256", "shapes", "step"]


def test_checkpoint_sidecar_with_a_trainable_flag_still_loads(tmp_path):
    # sidecars written before gamma's trainability left the checkpoint carry
    # "gamma_trainable"; the loader ignores it like any other extra key
    params = random_params(seed=31, vocab=6)
    path = tmp_path / "ckpt.bin"
    enc.save_checkpoint(params, path, meta={"seed": 7, "step": 42})
    sidecar_path = tmp_path / "ckpt.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["gamma_trainable"] = True
    sidecar_path.write_text(json.dumps(sidecar, indent=2))
    loaded = enc.load_checkpoint(path)
    assert loaded.array_fields() == params.array_fields()
    for name in params.array_fields():
        assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes(), name


@pytest.mark.parametrize("damage,needle", [
    ("sidecar_list", "sidecar must be a JSON object, got list"),
    ("shapes_list", "shapes must be a JSON object"),
])
def test_checkpoint_sidecar_of_the_wrong_json_type_is_refused(tmp_path, damage, needle):
    path = tmp_path / "ckpt.bin"
    enc.save_checkpoint(random_params(seed=31), path)
    sidecar_path = tmp_path / "ckpt.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    if damage == "sidecar_list":
        sidecar = list(sidecar.items())
    else:
        sidecar["shapes"] = list(sidecar["shapes"])
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match=needle):
        enc.load_checkpoint(path)


@pytest.mark.parametrize("name,value", [
    ("token_embed", np.nan), ("w1", np.inf), ("gamma", np.nan), ("gamma", np.inf),
    ("gamma", 0.0), ("gamma", -1.0),
])
def test_params_reject_non_finite_or_nonpositive(name, value):
    params = random_params(seed=32, vocab=4)
    arrays = {n: getattr(params, n).copy() for n in params.array_fields()}
    arrays[name].flat[0] = value
    with pytest.raises(ValueError):
        enc.EncoderParams(**arrays)


def test_gamma_is_an_ordinary_parameter_array():
    params = random_params(seed=33, vocab=4, gamma=1.5)
    assert params.array_fields()[-1] == "gamma"
    assert isinstance(params.gamma, np.ndarray) and params.gamma.shape == ()
    flat = enc.params_to_flat(params)
    assert flat[-1] == 1.5
    assert flat.size == sum(getattr(params, n).size for n in params.array_fields())
    # backward fills the gamma gradient whether or not gamma is trainable
    emb, cache = enc.forward_features(params, stream(33, 1).standard_normal((3, 5)))
    grads = enc.backward(params, cache, emb)
    # d(sum t . emb)/dgamma = sum t . uhat, which is B * gamma for t = emb
    assert abs(grads[-1] - 3 * 1.5) < 1e-12
