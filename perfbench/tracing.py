"""Span tracing installed from outside the library.

A :class:`Tracer` replaces chosen library functions with wrappers at every
``resourcekit`` module attribute that refers to them, so each caller, which
resolves the name through its own module globals, reaches the wrapper.
Spans (name, start, end, parent, operation id, extras) are kept in memory
and written out as JSON lines once the traced pass is over; self time is a
span's duration minus the part its child spans cover.  ``uninstall`` puts
every original object back, and :func:`installed_wrappers` lists any
wrapper still reachable, which is how untraced runs are shown to be
wrapper-free.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# (module, attribute) pairs wrapped in the traced run.  Each is the layer
# boundary a per-layer metric is named after.
TARGETS = (
    ("states", "_frac_power_raw"),
    ("states", "validate"),
    ("affinity", "_affinity_raw"),
    ("channels", "apply"),
    ("feasible", "_decode_raw"),
    ("feasible", "encode"),
    ("feasible", "factorize_pure"),
    ("indicators", "max_affinity"),
    ("indicators", "minimize"),
    ("embedding", "theorem3_check"),
    ("verify", "run_suite"),
    ("verify", "run_theorem1"),
)

MARK = "__perfbench_span__"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "resourcekit" or name.startswith("resourcekit."))]


def installed_wrappers() -> list[str]:
    """Names of library module attributes that are still tracing wrappers."""
    found = []
    for mod in _library_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


def _max_affinity_extra(args, kwargs, result):
    family = args[1] if len(args) > 1 else kwargs["family"]
    # Support size 1 is coherence order 2, which the closed form already solves.
    return {"k2": True} if family.kind == "multilevel" and family.k == 1 else None


def _minimize_extra(args, kwargs, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev),
            "converged": bool(result.success)}


EXTRAS = {
    "indicators.max_affinity": _max_affinity_extra,
    "indicators.minimize": _minimize_extra,
}


class Tracer:
    """Records spans for calls made while an operation is open."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, op id, nested, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self.spans.append([name, 0, 0, parent, self._op, depth > 0, None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def run_op(self, op_id: int, label: str, fn):
        """Call ``fn()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        idx = self._enter("bench.op")
        self.spans[idx][6] = {"label": label}
        try:
            return fn()
        finally:
            self._exit(idx)
            self._op = None

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if extra is not None:
                self.spans[idx][6] = extra(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every TARGETS function wherever a library module holds it."""
        modules = _library_modules()
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"resourcekit.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, _, extra) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s (outermost spans), self_s, extras."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, nested, extra) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                          "k2_ns": 0, "nit": 0, "nfev": 0,
                                          "nonconverged": 0})
            dur = end - start
            entry["calls"] += 1
            entry["self_ns"] += dur - covered[i]
            if not nested:
                entry["total_ns"] += dur
            if extra:
                if extra.get("k2"):
                    entry["k2_ns"] += dur
                entry["nit"] += extra.get("nit", 0)
                entry["nfev"] += extra.get("nfev", 0)
                if extra.get("converged") is False:
                    entry["nonconverged"] += 1
        return out
