"""Small two-layer encoder mapping inputs onto the radius-gamma hypersphere.

Feature inputs go through input -> tanh(hidden) -> output, then the output u
is projected to gamma * u / ||u||.  Token inputs are first pooled to the mean
of their embedding-table rows and share the same MLP.  All arithmetic is
float64; gradients are exact, including through the projection (Jacobian
gamma * (I/||u|| - u u^T / ||u||^3)) and to gamma itself, an ordinary
parameter array (0-d).  Whether gamma trains is a setting of ``sdcl.train``;
the parameters and checkpoints do not record it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

NORM_FLOOR = 1e-12

# most rows per forward in embed_features: a 4096-row block's hidden
# activations are 2 MB, where a 40,000-row probe pool's would be 20 MB
EMBED_BLOCK_ROWS = 4096


# every parameter array in flat-vector and checkpoint order; token_embed is
# None for feature-only encoders
ARRAY_FIELDS = ("w1", "b1", "w2", "b2", "token_embed", "gamma")


@dataclass
class EncoderParams:
    """MLP weights, optional token embedding table, and the sphere radius."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)
    token_embed: Optional[np.ndarray]  # (vocab, input)
    gamma: np.ndarray  # 0-d radius

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        for name in self.array_fields():
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        if self.gamma.size != 1 or not self.gamma > 0:
            raise ValueError("gamma must be one positive number")

    def array_fields(self) -> list[str]:
        """The arrays present, in flat-vector order."""
        return [name for name in ARRAY_FIELDS if getattr(self, name) is not None]

    def array_shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: getattr(self, name).shape for name in self.array_fields()}

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]


def init_params(
    input_dim: int,
    hidden_dim: int,
    embed_dim: int,
    rng: np.random.Generator,
    gamma: float = np.sqrt(2.0),
    vocab_size: Optional[int] = None,
) -> EncoderParams:
    """Random init: weight scales 1/sqrt(fan_in); small nonzero biases keep
    the pre-projection output away from the degenerate zero vector."""
    w1 = rng.standard_normal((hidden_dim, input_dim)) / np.sqrt(input_dim)
    b1 = 0.01 * rng.standard_normal(hidden_dim)
    w2 = rng.standard_normal((embed_dim, hidden_dim)) / np.sqrt(hidden_dim)
    b2 = 0.01 * rng.standard_normal(embed_dim)
    token_embed = None
    if vocab_size is not None:
        token_embed = rng.standard_normal((vocab_size, input_dim)) / np.sqrt(input_dim)
    return EncoderParams(
        w1=w1, b1=b1, w2=w2, b2=b2, token_embed=token_embed, gamma=gamma,
    )


@dataclass
class ForwardCache:
    x: np.ndarray          # (B, input)
    a1: np.ndarray         # (B, hidden) post-tanh
    norms: np.ndarray      # (B,) pre-projection norms
    uhat: np.ndarray       # (B, out)
    token_seqs: Optional[tuple[np.ndarray, np.ndarray]] = None  # padded (ids, mask)


def forward_features(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns embeddings (B, D) with rows of norm gamma.

    Each layer is computed in place in its matmul's output, so the
    pre-projection output u becomes uhat without a second (B, D) array."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    a1 = x @ params.w1.T
    a1 += params.b1
    np.tanh(a1, out=a1)
    uhat = a1 @ params.w2.T
    uhat += params.b2
    norms = np.linalg.norm(uhat, axis=1)
    if np.any(norms < NORM_FLOOR):
        raise ValueError("pre-projection norm below 1e-12; degenerate embedding")
    uhat /= norms[:, None]
    emb = params.gamma * uhat
    return emb, ForwardCache(x=x, a1=a1, norms=norms, uhat=uhat)


def embed_features(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """Embeddings (n, D) of ``x`` without a cache, for evaluation.

    ``forward_features`` runs on blocks of at most ``EMBED_BLOCK_ROWS`` rows,
    writing into one preallocated output.  No row depends on another, so the
    result equals ``forward_features(params, x)[0]`` bit for bit.  The blocks
    are of near-equal size, never a small remainder: small products round
    differently (one row goes through numpy's gemv, and OpenBLAS takes
    another path for products of up to about 1,200 outputs)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    blocks = max(1, -(-n // EMBED_BLOCK_ROWS))
    ends = [n * i // blocks for i in range(blocks + 1)]
    emb = np.empty((n, params.w2.shape[0]))
    for start, end in zip(ends, ends[1:]):
        emb[start:end] = forward_features(params, x[start:end])[0]
    return emb


def forward_tokens(params: EncoderParams, ids: np.ndarray,
                   mask: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Token path on a padded ``(ids, mask)`` batch: the mean of each row's
    embedding rows feeds the shared MLP.  Padded slots are zeroed and
    positions summed in order, so a row equals its sequence's mean."""
    if params.token_embed is None:
        raise ValueError("encoder has no token embedding table")
    if not mask[:, 0].all():
        raise ValueError("token sequence must be nonempty")
    rows = np.where(mask[:, :, None], params.token_embed[ids], 0.0)
    emb, cache = forward_features(params, rows.sum(axis=1) / mask.sum(axis=1)[:, None])
    cache.token_seqs = (ids, mask)
    return emb, cache


def backward(params: EncoderParams, cache: ForwardCache, d_emb: np.ndarray) -> np.ndarray:
    """Exact parameter gradients given d(loss)/d(embedding) for the batch,
    as one float64 vector in ``params_to_flat``'s layout (gamma last).

    Raises on non-finite values rather than clamping.
    """
    d_emb = np.atleast_2d(np.asarray(d_emb, dtype=np.float64))
    radial = d_emb * cache.uhat
    # projection: du = gamma/||u|| * (dE - uhat (uhat . dE))
    inner = np.sum(radial, axis=1, keepdims=True)
    du = params.gamma / cache.norms[:, None] * (d_emb - cache.uhat * inner)
    da1 = du @ params.w2
    dz1 = da1 * (1.0 - cache.a1**2)
    d_token_embed = None if params.token_embed is None else np.zeros_like(params.token_embed)
    if cache.token_seqs is not None:
        # dx / length goes to each token's row, in batch then position order;
        # bincount adds its weights in input order, as np.add.at does
        ids, mask = cache.token_seqs
        lengths = mask.sum(axis=1)
        dx = dz1 @ params.w1
        width = dx.shape[1]
        d_token_embed = np.bincount(
            (ids[mask][:, None] * width + np.arange(width)).ravel(),
            np.repeat(dx / lengths[:, None], lengths, axis=0).ravel(),
            minlength=params.token_embed.size,
        )
    arrays = {"w1": dz1.T @ cache.x, "b1": dz1.sum(axis=0), "w2": du.T @ cache.a1,
              "b2": du.sum(axis=0), "token_embed": d_token_embed, "gamma": np.sum(radial)}
    grads = np.concatenate([np.ravel(arrays[name]) for name in params.array_fields()])
    # a non-finite entry makes the sum non-finite; finite entries whose sum
    # overflows are told apart by the scan
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(grads.sum())
    if not math.isfinite(total):
        for name, a in split_flat(grads, params.array_shapes()).items():
            if not np.all(np.isfinite(a)):
                raise FloatingPointError(f"non-finite gradient in {name}")
    return grads


# ---------------------------------------------------------------------------
# Checkpoints: flat little-endian float64 array plus a JSON sidecar
# ---------------------------------------------------------------------------


def params_to_flat(params: EncoderParams) -> np.ndarray:
    return np.concatenate([getattr(params, name).ravel() for name in params.array_fields()])


def split_flat(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """The arrays of a flat vector as views, keyed by name; ``shapes`` maps
    the name of each array it holds to that array's shape."""
    names = [name for name in ARRAY_FIELDS if name in shapes]
    ends = np.cumsum([math.prod(shapes[name]) for name in names])
    return {name: part.reshape(shapes[name])
            for name, part in zip(names, np.split(flat, ends[:-1]))}


def save_checkpoint(params: EncoderParams, path, meta: dict | None = None) -> None:
    import json

    data = params_to_flat(params).astype("<f8").tobytes()
    with open(str(path), "wb") as f:
        f.write(data)
    sidecar = {
        "shapes": {name: list(shape) for name, shape in params.array_shapes().items()},
        "dtype": "<f8",
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    sidecar.update(meta or {})
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2)


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint; ValueError unless the file holds exactly the arrays
    its sidecar lists and its bytes match the sidecar's sha256.  The loader
    needs ``shapes``, ``dtype`` and ``sha256`` and ignores any other key."""
    import json

    with open(str(path) + ".json") as f:
        sidecar = json.load(f)
    if not isinstance(sidecar, dict):
        raise ValueError(f"checkpoint sidecar must be a JSON object, got {type(sidecar).__name__}")
    if sidecar.get("dtype") != "<f8":
        raise ValueError("checkpoint sidecar needs dtype '<f8'")
    shapes = sidecar.get("shapes", {})
    if not isinstance(shapes, dict):
        raise ValueError("checkpoint sidecar shapes must be a JSON object mapping arrays to "
                         f"shapes, got {type(shapes).__name__}")
    unknown = set(shapes) - set(ARRAY_FIELDS)
    missing = set(ARRAY_FIELDS) - {"token_embed"} - set(shapes)
    if unknown or missing:
        raise ValueError(f"checkpoint sidecar: unknown arrays {sorted(unknown)}, "
                         f"missing arrays {sorted(missing)}")
    for name, shape in shapes.items():
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"checkpoint sidecar shape of {name} is not a list of sizes: "
                             f"{shape!r}")
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    with open(str(path), "rb") as f:
        data = f.read()
    if len(data) != size:
        raise ValueError(f"checkpoint holds {len(data)} bytes; its sidecar shapes need {size}")
    if hashlib.sha256(data).hexdigest() != sidecar.get("sha256"):
        raise ValueError("checkpoint bytes do not match the sidecar sha256")
    arrays = split_flat(np.frombuffer(data, dtype="<f8").copy(), shapes)
    return EncoderParams(**{"token_embed": None, **arrays})
