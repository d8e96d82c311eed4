#!/usr/bin/env python3
"""Closed-loop benchmark of sdcl: one process, one client, units back to back.

Usage, from the repository root:

    python3 perfbench/run.py --workload analog --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs every unit twice, untraced and then traced, and reports
the per-layer metrics plus the tracing overhead (traced / untraced - 1).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count.  A fuller record (provenance, every
unit, the per-span detail) goes to ``perfbench/out/``, next to the traced
run's spans.

The BLAS thread variables are pinned to 1 before numpy is imported; a run in
which that could not take effect (numpy already loaded) is not correct.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
INCOMING_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_VARS}
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones
CHILD_TIMEOUT_S = 120


@dataclass
class Record:
    unit: Any
    seconds: float
    output: Any = None
    problems: list = field(default_factory=list)


def run_unit(workload, unit, clock=time.perf_counter) -> Record:
    start = clock()
    try:
        output = workload.run(unit)
    except Exception as exc:  # a unit that raises is a failed unit, not a crash
        return Record(unit, clock() - start, None,
                      [f"raised {type(exc).__name__}: {exc}", traceback.format_exc(limit=3)])
    return Record(unit, clock() - start, output)


def check(workload, record: Record) -> None:
    if record.output is None:
        return
    try:
        record.problems += workload.check(record.unit, record.output)
    except Exception as exc:
        record.problems.append(f"output check raised {type(exc).__name__}: {exc}")


def fingerprint(workload, record: Record) -> Optional[str]:
    return None if record.output is None else workload.fingerprint(record.output)


def closed_loop(workload, seconds: float, step, clock=time.perf_counter,
                reserve_units: int = 0) -> list:
    """Run units back to back: the whole first cycle, then each further unit
    while it is expected (at the mean unit time so far) to end within
    ``seconds``, leaving time for ``reserve_units`` more units after it."""
    results = []
    start = clock()
    cycle = 0
    while True:
        for unit in workload.cycle(cycle):
            if cycle > 0:
                elapsed = clock() - start
                if elapsed + (1 + reserve_units) * elapsed / len(results) > seconds:
                    return results
            results.append(step(unit))
        cycle += 1


# ---------------------------------------------------------------------------
# Provenance and set-up
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: no revision to report
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout


def provenance(sdcl_module) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    pinned = not NUMPY_PRELOADED and all(os.environ.get(v) == "1" for v in THREAD_VARS)
    return {
        "git_revision": revision.strip() if revision else "unknown",
        "git_dirty": None if status is None else bool(status.strip()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_incoming": INCOMING_THREAD_ENV,
        "threads_pinned": pinned,
        "sdcl": str(Path(sdcl_module.__file__).resolve().relative_to(ROOT)),
        "valid": pinned,
        "machine": platform.machine(),
    }


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process (imports, spec construction, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Untraced and traced runs
# ---------------------------------------------------------------------------


def measure(workload, seconds: float) -> tuple[list, dict]:
    """End-to-end run.  Its last unit re-runs the first one, inside the timed
    window, and must reproduce its outputs bit for bit."""
    def step(unit):
        record = run_unit(workload, unit)
        check(workload, record)
        return record

    records = closed_loop(workload, seconds, step, reserve_units=1)
    first = records[0]
    again = step(first.unit)
    expected = fingerprint(workload, first)
    same = expected is not None and fingerprint(workload, again) == expected
    if not same:
        again.problems.append("re-running the first unit did not reproduce its outputs")
    records.append(again)
    good = [r for r in records if not r.problems]
    times = [r.seconds for r in good]
    rates = [workload.work(r.unit, r.output) / r.seconds for r in good]
    nan = float("nan")
    metrics = {
        "unit_s_p50": (statistics.median(times) if good else nan, "s", len(good)),
        "work_per_s": (statistics.median(rates) if good else nan, "1/s", len(good)),
    }
    quality = workload.quality([r.output for r in good]) if good else {}
    return records, {"metrics": metrics, "quality": quality, "determinism_ok": same}


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[list, dict]:
    """Each unit untraced, then traced; the traced outputs must match."""
    from perfbench import layers
    from perfbench.tracer import Tracer, install, summarize, wrapped_names

    tracer = Tracer()
    targets = layers.targets(workload.batch_size)
    plain_s, traced_s = [], []

    def step(unit):
        plain = run_unit(workload, unit)
        installation = install(tracer, targets)
        tracer.begin_unit(unit.index)
        try:
            traced = run_unit(workload, unit)
        finally:
            tracer.end_unit()
            installation.remove()
        leftover = wrapped_names()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        check(workload, traced)
        if plain.problems:
            traced.problems += plain.problems
        elif fingerprint(workload, plain) != fingerprint(workload, traced):
            traced.problems.append("traced outputs differ from the untraced run")
        plain_s.append(plain.seconds)
        traced_s.append(traced.seconds)
        return traced

    records = closed_loop(workload, seconds, step)
    spans = tracer.arrays()
    tracer.save(spans_path)
    n = len(records)
    summary = summarize(spans, list(layers.SPANS))
    metrics = {}
    for prefix, s in summary.items():
        metrics[f"{prefix}.calls"] = (s["calls"] / n, "count/unit", n)
        metrics[f"{prefix}.self_s"] = (s["self_s"] / n, "s/unit", n)
        metrics[f"{prefix}.self_us_p50"] = (s["self_us_p50"], "us", s["calls"])
    units = {name: unit for name, unit, _ in layers.RATIOS}
    for name, value in layers.ratios(tracer.counters).items():
        metrics[name] = (value, units[name], n)
    metrics["trace.overhead_frac"] = (sum(traced_s) / sum(plain_s) - 1.0, "ratio", n)
    metrics["trace.units"] = (float(n), "count", n)

    detail_names = sorted(set(spans["name"].astype(str)))
    detail = summarize(spans, detail_names)
    total = sum(traced_s)
    shares = sorted(((s["self_s"] / total, name) for name, s in detail.items()), reverse=True)
    return records, {
        "metrics": metrics,
        "span_detail": detail,
        "self_share": [[name, share] for share, name in shares],
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("analog", "tradeoff", "handling", "bounds"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("study", "tiny"), default="study",
                   help="tiny shrinks every unit (for smoke tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def _import_sdcl():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import sdcl

    if not Path(sdcl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sdcl resolved to {sdcl.__file__}, outside {ROOT / 'src'}")
    return sdcl


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sdcl = _import_sdcl()
    except ImportError as exc:
        print(f"cannot import sdcl from this checkout's src/: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    workload.warm_up()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    prov = provenance(sdcl)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        setup_samples = [setup_s]
        records, extra = measure_traced(workload, args.seconds, OUT_DIR / f"{stem}-spans.npz")
    else:
        setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        records, extra = measure(workload, args.seconds)
    metrics = extra["metrics"]
    failed = sum(1 for r in records if r.problems)
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_samples), "s", len(setup_samples))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
        metrics["quality"] = (extra["quality"].get("quality", float("nan")), "score",
                              len(records) - failed)
    correct = failed == 0 and prov["valid"] and extra.get("determinism_ok", True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "provenance": prov,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "quality": extra.get("quality", {}),
        "units": [
            {"index": r.unit.index, "variant": r.unit.variant, "seed": r.unit.seed,
             "seconds": r.seconds, "problems": r.problems}
            for r in records
        ],
        **{k: v for k, v in extra.items() if k not in ("metrics", "quality")},
    }
    with open(OUT_DIR / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} units={len(records)} "
          f"failed={failed} valid={prov['valid']} rev={prov['git_revision'][:12]} "
          f"blas={prov['blas']} nproc={prov['nproc']}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit:12s} n={n}")
    if not args.trace:
        n_good = len(records) - failed
        print(f"{workload.work_name:48s} {metrics['work_per_s'][0]:14.6g} {'1/s':12s} "
              f"n={n_good} (= work_per_s)")
        print(f"# quality = {workload.quality_name}")
        for name, value in extra["quality"].items():
            if name != "quality":
                print(f"{name:48s} {value:14.6g} {'score':12s} n={n_good}")
        print(f"{'failed_frac':48s} {failed / len(records):14.6g} {'ratio':12s} n={len(records)}")
    else:
        for name, share in extra["self_share"][:12]:
            print(f"share {name:42s} {share:14.4f}")
    for r in records:
        for problem in r.problems:
            print(f"! unit {r.unit.index} ({r.unit.variant}): {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
