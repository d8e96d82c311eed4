"""Run manifests and output writers.

Every run is fully described by its resolved config (every default filled
in, every command-line override applied); the SHA-256 hash of its canonical
JSON and the seed are embedded in every output file (comment line for CSV,
fields for JSON) so artifacts are traceable to the exact configuration that
produced them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


@dataclass
class RunManifest:
    config: dict  # a config dataclass is recorded as its asdict
    seed: int
    version: str = __version__
    outputs: list = field(default_factory=list)
    started: float = field(default_factory=time.time)
    finished: float | None = None

    def __post_init__(self):
        if is_dataclass(self.config):
            self.config = asdict(self.config)

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def record(self, path) -> Path:
        path = Path(path)
        self.outputs.append(str(path))
        return path

    def save(self, out_dir) -> Path:
        self.finished = time.time()
        path = Path(out_dir) / "manifest.json"
        with open(path, "w") as f:
            f.write(to_json({
                "config_hash": self.hash,
                "seed": self.seed,
                "version": self.version,
                "config": self.config,
                "outputs": self.outputs,
                "started": self.started,
                "finished": self.finished,
                "elapsed_seconds": self.finished - self.started,
            }))
        return path


def _format_cell(value):
    """Full-precision, platform-stable text for numeric cells."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def write_csv(path, header: list[str], rows, manifest: RunManifest) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# config_hash={manifest.hash} seed={manifest.seed}\n")
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    return manifest.record(path)


def _finite_or_none(value):
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def to_json(obj) -> str:
    """Strict JSON text: JSON has no NaN or infinity, so non-finite floats
    (an undefined rank correlation, say) are written as null."""
    return json.dumps(_finite_or_none(obj), indent=2, allow_nan=False)


def write_json(path, payload: dict, manifest: RunManifest) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {"config_hash": manifest.hash, "seed": manifest.seed}
    body.update(payload)
    with open(path, "w") as f:
        f.write(to_json(body))
    return manifest.record(path)
