"""Set-up, timed run, traced run and metric assembly.

Only the standard library is imported at module level: numpy and the
library are imported inside :func:`setup`, which is what ``setup_s`` times.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
RUN_PY = Path(__file__).resolve().parent / "run.py"

# Thread pins applied before numpy loads; RESOURCE_KIT_THREADS is removed so
# the library takes its default single-worker path.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNSET_ENV = ("RESOURCE_KIT_THREADS",)

SETUP_CHILDREN = 4          # extra fresh-interpreter set-ups per run
TAIL_BEYOND = 10            # operations the tail percentile leaves beyond it
MAX_FAILURE_REPORTS = 5

# The host shares its cores with other machines, and its speed on identical
# work swings by 2x and more over seconds to minutes.  Every reported timing
# is therefore taken at reference speed: wall time divided by the host's
# slowdown, which is the time of a fixed reference computation, run next to
# the timed work, over REFERENCE_SECONDS.  REFERENCE_SECONDS is about that
# computation's fastest time seen on a 2-core x86-64 VM (numpy with
# OpenBLAS, one thread); it only sets the scale.  Raw wall times are printed
# beside.
REFERENCE_SECONDS = 0.006
REFERENCE_ENTRIES = 3000
REFERENCE_REPEATS = 6
SLOWDOWN_SAMPLES = 5        # reference runs whose median times a set-up


class LibraryMissing(RuntimeError):
    pass


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)


def load_library():
    """Import resourcekit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "resourcekit" / "__init__.py").is_file():
        raise LibraryMissing(f"no resourcekit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import resourcekit
    where = Path(resourcekit.__file__).resolve().parent
    if where != (SRC / "resourcekit").resolve():
        raise LibraryMissing(f"resourcekit imported from {where}, not from {SRC}")
    return resourcekit


def reference_seconds() -> float:
    """Wall time of the reference computation, which mixes the two kinds of
    work the library does: interpreter work (building and sorting a dict of
    tuples) and many small numpy/scipy calls (eigh, svd, kron, einsum, expm,
    solve) at d = 2-8.  A tight loop of one kind alone did not slow down
    with the library when the host did.  Needs numpy loaded."""
    import numpy as np
    from scipy.linalg import expm
    rng = np.random.default_rng(0)
    matrices = []
    for d in (2, 3, 4, 8):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        matrices.append(a @ a.conj().T / d)
    t0 = perf_counter()
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[(i * 7919) % 10007, i & 7] = str(i)
    sorted(table.items())
    for _ in range(REFERENCE_REPEATS):
        for m in matrices:
            np.linalg.eigh(m)
            np.linalg.svd(m)
            np.kron(m, m[:2, :2])
            np.einsum("ij,jk->ik", m, m)
            expm(0.1j * m)
            np.linalg.solve(m + np.eye(len(m)), m)
    return perf_counter() - t0


def slowdown() -> float:
    """The host's current slowdown against reference speed."""
    samples = [reference_seconds() for _ in range(SLOWDOWN_SAMPLES)]
    return statistics.median(samples) / REFERENCE_SECONDS


@dataclass
class Setup:
    workload: object
    seconds: float          # wall time
    host_slowdown: float    # measured right after it

    @property
    def scaled(self) -> float:
        return self.seconds / self.host_slowdown


def setup(name: str, seed: int) -> Setup:
    """Import the library, generate the inputs and warm up; timed."""
    t0 = perf_counter()
    load_library()
    import workloads
    wl = workloads.build(name, seed)
    workloads.warm_up(wl)
    seconds = perf_counter() - t0
    return Setup(wl, seconds, slowdown())


def setup_in_child(name: str, seed: int) -> float:
    """The same set-up in a fresh interpreter; returns its seconds at
    reference speed."""
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120, env=os.environ.copy())
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    latencies: list = field(default_factory=list)     # wall seconds
    slowdowns: list = field(default_factory=list)     # one per latency, if measured
    failed: int = 0
    bounds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    order2: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list:
        """Latencies at reference speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns, strict=True)]


def _run_op(op, outcome: Outcome, accuracy: bool, invoke=None) -> None:
    """Issue one operation, time the library call alone, then check it."""
    t0 = perf_counter()
    try:
        result = invoke(op.call) if invoke else op.call()
    except Exception:
        outcome.latencies.append(perf_counter() - t0)
        _report_failure(outcome, op, traceback.format_exc())
        return
    outcome.latencies.append(perf_counter() - t0)
    outcome.order2 += op.order2
    try:
        ok = op.check(result)
        if accuracy:
            outcome.bounds.extend(op.bounds(result))
            outcome.errors.extend(op.errors(result))
    except Exception:
        _report_failure(outcome, op, traceback.format_exc())
        return
    if not ok:
        _report_failure(outcome, op, "output check rejected the result")


def _report_failure(outcome: Outcome, op, why: str) -> None:
    outcome.failed += 1
    if outcome.failed <= MAX_FAILURE_REPORTS:
        print(f"FAILED {op.label}: {why}", file=sys.stderr)


def timed_run(wl, seconds: float) -> Outcome:
    """Closed loop over the operation list.

    The first pass is always completed (it is the accuracy set); after it the
    list repeats, and the run stops at the first period boundary at which
    the library has been busy for ``seconds``.  The reference computation
    runs between operations; an operation's slowdown is the mean of the
    reference times on either side of it.
    """
    outcome = Outcome()
    n = len(wl.ops)
    i = 0
    before = reference_seconds()
    while i < n or i % wl.period or outcome.busy_s < seconds:
        _run_op(wl.ops[i % n], outcome, accuracy=i < n)
        after = reference_seconds()
        outcome.slowdowns.append((before + after) / 2 / REFERENCE_SECONDS)
        before = after
        i += 1
    return outcome


def paired_pass(wl, tracer) -> tuple[Outcome, Outcome]:
    """One pass in which every operation runs twice back to back, once plain
    and once traced, in alternating order, so that drift in host speed
    cancels out of the tracing overhead.  Wrappers are installed only around
    the traced call."""
    plain, traced = Outcome(), Outcome()
    for i, op in enumerate(wl.ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                _run_op(op, plain, accuracy=True)
                continue
            tracer.install()
            try:
                _run_op(op, traced, accuracy=True,
                        invoke=lambda call: tracer.run_op(i, op.label, call))
            finally:
                tracer.uninstall()
    return plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_latency(latencies):
    """Latency at the highest percentile leaving TAIL_BEYOND operations above
    it, with that percentile; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(outcome: Outcome, setup_samples) -> tuple[dict, dict]:
    """Timings at reference speed; ``setup_samples`` are already scaled."""
    import workloads
    scaled = outcome.scaled
    tail, pct = tail_latency(scaled)
    raw_tail, _ = tail_latency(outcome.latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (outcome.attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "anchor_err_max": (max(outcome.errors + [workloads.ERROR_RESOLUTION]), "1"),
        "bound_mean": (statistics.fmean(outcome.bounds), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"tail_percentile": pct, "ops": outcome.attempted,
        "fail_frac": outcome.failed / outcome.attempted,
        "order2_share": outcome.order2 / max(1, outcome.attempted - outcome.failed),
        "setup_samples_s": list(setup_samples),
        "slowdown_p50": statistics.median(outcome.slowdowns),
        "wall": {"ops_per_s": outcome.attempted / outcome.busy_s,
                 "latency_p50_ms": statistics.median(outcome.latencies) * 1e3,
                 "latency_tail_ms": raw_tail * 1e3}}


LAYER_TOTALS = ("states._frac_power_raw", "affinity._affinity_raw", "states.validate",
                "feasible._decode_raw", "feasible.encode", "feasible.factorize_pure")
LAYER_SELF = ("indicators.max_affinity", "embedding.theorem3_check",
              "verify.run_suite", "verify.run_theorem1")


def per_layer(summary: dict, sweep_metrics: dict, overhead: float) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for name in LAYER_TOTALS:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.total_s"] = (get(name, "total_ns") / 1e9, "s")
    out["channels.apply.calls"] = (get("channels.apply", "calls"), "count")
    out["channels.apply.total_s"] = (get("channels.apply", "total_ns") / 1e9, "s")
    for name in LAYER_SELF:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.self_s"] = (get(name, "self_ns") / 1e9, "s")
    out["indicators.max_affinity.k2_s"] = (get("indicators.max_affinity", "k2_ns") / 1e9, "s")
    for key in ("calls", "nit", "nfev", "nonconverged"):
        out[f"indicators.minimize.{key}"] = (get("indicators.minimize", key), "count")
    for name, value in sweep_metrics.items():
        out[name] = (value, "count" if ".eigh_calls." in name else "us")
    out["trace.overhead_frac"] = (overhead, "1")
    return out


def provenance(name: str, seed: int, counts: dict) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy's build-info layout differs between versions
        blas = "unknown"
    # The ceiling keeps git from reporting a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=git_env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"workload": name, "seed": seed, "git_sha": sha,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "env": {k: os.environ.get(k) for k in (*PINNED_ENV, *UNSET_ENV)},
            **counts}


# ---------------------------------------------------------------------------
# Entry points used by run.py
# ---------------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float):
    """Set-up (median of several), timed run, end-to-end metrics."""
    from tracing import installed_wrappers
    first = setup(name, seed)
    samples = [first.scaled] + [setup_in_child(name, seed) for _ in range(SETUP_CHILDREN)]
    leftovers = installed_wrappers()
    outcome = timed_run(first.workload, seconds)
    leftovers += installed_wrappers()
    metrics, info = end_to_end(outcome, samples)
    info.update(pass_ops=len(first.workload.ops), wrapper_free=not leftovers)
    return outcome, metrics, info, not leftovers


def run_traced(name: str, seed: int):
    """One pass run plain and traced side by side, then the kernel sweep."""
    first = setup(name, seed)
    from tracing import Tracer, installed_wrappers
    import sweep
    tracer = Tracer()
    plain, traced = paired_pass(first.workload, tracer)
    leftovers = installed_wrappers()
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"{name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    sweep_metrics = sweep.run()
    overhead = traced.busy_s / plain.busy_s - 1.0
    metrics = per_layer(tracer.summary(), sweep_metrics, overhead)
    combined = Outcome(plain.latencies + traced.latencies, plain.failed + traced.failed)
    info = {"ops": combined.attempted, "spans": len(tracer.spans),
            "trace_file": str(trace_path.relative_to(ROOT)), "wrapper_free": not leftovers,
            "consistent": plain.bounds == traced.bounds}
    return combined, metrics, info, not leftovers and plain.bounds == traced.bounds


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_table(metrics: dict, info: dict) -> None:
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{info['tail_percentile']:.1f} of {info['ops']} ops)"
        elif key == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in info["setup_samples_s"]) + ")"
        print(f"{key:48s} {value:>14.6g} {unit}{note}")
    for key in ("fail_frac", "order2_share"):
        if key in info:
            print(f"{key:48s} {info[key]:>14.6g}")
    print("info " + json.dumps({k: v for k, v in info.items() if k != "setup_samples_s"}))
