"""Outside-in span tracing of the ``sdcl`` layers.

A :class:`Tracer` records spans (name, start, end, parent, unit) in memory.
:func:`install` wraps each traced function at every name under which an
``sdcl`` module holds it, so a caller that imported the function by name
(``from .objectives import in_batch_loss``) and one that looks it up on its
module (``enc.forward_features``) both land on the wrapper.
:meth:`Installation.remove` puts every original object back.  Nothing inside ``sdcl`` is edited: the
spans surround calls *into* each layer.

A layer's self time is its span's duration minus the durations of its direct
children.  Spans are only recorded while a unit is open, so checks run
between units never add spans.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

_MARK = "__perfbench_original__"


class Tracer:
    """In-memory span recorder plus the counters behind the useful-work ratios."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.unit: list[int] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._unit: Optional[int] = None

    def begin_unit(self, unit: int) -> None:
        if self._stack:
            raise RuntimeError("a unit began while spans were still open")
        self._unit = unit

    def end_unit(self) -> None:
        if self._stack:
            raise RuntimeError(f"unit ended with {len(self._stack)} open spans")
        self._unit = None

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self._unit)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays; ``self`` is duration minus direct-child durations."""
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name": np.asarray(self.names, dtype=object),
            "start": start,
            "end": end,
            "parent": parent,
            "unit": np.asarray(self.unit, dtype=np.int64),
            "duration": duration,
            "self": duration - child,
        }

    def save(self, path) -> None:
        """Write every span out (names are stored once, spans index them)."""
        spans = self.arrays()
        table, name_idx = np.unique(spans["name"].astype(str), return_inverse=True)
        name_idx = name_idx.reshape(-1)
        np.savez_compressed(
            path,
            names=table,
            name_idx=name_idx,
            start=spans["start"],
            end=spans["end"],
            parent=spans["parent"],
            unit=spans["unit"],
        )


def summarize(spans: dict[str, np.ndarray], prefixes: list[str]) -> dict[str, dict[str, Any]]:
    """Per prefix: calls, self seconds, and per-call self/inclusive medians
    of every span named ``prefix`` or ``prefix.<detail>``."""
    table, name_idx = np.unique(spans["name"].astype(str), return_inverse=True)
    out = {}
    for prefix in prefixes:
        hits = [i for i, n in enumerate(table) if n == prefix or n.startswith(prefix + ".")]
        mask = np.isin(name_idx, hits)
        self_t = spans["self"][mask]
        incl = spans["duration"][mask]
        out[prefix] = {
            "calls": int(mask.sum()),
            "self_s": float(self_t.sum()),
            "self_us_p50": float(np.median(self_t) * 1e6) if self_t.size else 0.0,
            "incl_us_p50": float(np.median(incl) * 1e6) if incl.size else 0.0,
        }
    return out


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    """Argument ``name`` of a call, whether passed by position or keyword."""
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``path`` is the attribute path in its defining module (``"_Adam.update"``
    for a method).  ``span`` is the span name, or a function of the call's
    arguments returning one.  ``before``/``after`` observe a call for the
    counters: ``before(args, kwargs)`` returns a state that is handed to
    ``after(tracer, state, args, kwargs, result)``.
    """

    module: str
    path: str
    span: str | Callable[[tuple, dict], str]
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[..., None]] = None


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    span, before, after = target.span, target.before, target.after

    def wrapper(*args, **kwargs):
        if tracer._unit is None:
            return original(*args, **kwargs)
        name = span if isinstance(span, str) else span(args, kwargs)
        state = before(args, kwargs) if before is not None else None
        idx = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, state, args, kwargs, result)
        return result

    setattr(wrapper, _MARK, original)
    wrapper.__name__ = getattr(original, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(original, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def _resolve(target: Target):
    owner = sys.modules[target.module]
    *owners, attr = target.path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Installation:
    """The wrappers installed for one tracer; :meth:`remove` undoes them."""

    def __init__(self, replaced: list[tuple[Any, str, Any]]):
        self.replaced = replaced

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        for owner, attr, original in self.replaced:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"failed to restore {attr!r}")
        self.replaced = []


def install(tracer: Tracer, targets: list[Target], package: str = "sdcl") -> Installation:
    """Wrap every target at each caller-visible name inside ``package``."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    replaced: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            if hasattr(original, _MARK):
                raise RuntimeError(f"{target.module}.{target.path} is already wrapped")
            wrapper = _wrap(tracer, target, original)
            if isinstance(owner, type):
                replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, name, original))
                        setattr(module, name, wrapper)
    except BaseException:
        Installation(replaced).remove()
        raise
    return Installation(replaced)


def wrapped_names(package: str = "sdcl") -> list[str]:
    """Every name in ``package`` still bound to a wrapper (empty after remove)."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for name, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{name}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found.extend(
                    f"{mod_name}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, _MARK)
                )
    return found
