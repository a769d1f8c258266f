"""Run one workload: set-up, a timed window, output checks, an optional traced window.

Load shape: a closed loop, one client, one process, one Python thread, with
BLAS pinned to one thread by `run.py`. The next op starts when the previous
one has returned. A window lasts at least the requested seconds and at
least MIN_OPS ops, so that op_ms_p95 has at least ten samples beyond it.
GC stays on and is never forced inside a window: the tape's reference
cycles cost users that time and memory today, and the benchmark must show it.
Times are reported at a reference machine speed (see `calibration.py`).

The timed window runs as SEGMENTS segments. A segment during which the
machine was contended in a way the calibration cannot correct is replaced
by a further segment, at most EXTRA_SEGMENTS times (see `run_timed`).
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from meshcontact.errors import MeshContactError

import calibration
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".bench_run"
REFERENCES = BENCH_DIR / "references.json"

MIN_OPS = 200
WARMUP_OPS = 3
SETUP_REPEATS = 5
SETUP_KERNELS = 5  # calibration kernel runs right before and right after each set-up
COVERAGE_SHARE = 0.05  # top-level layer spans + bench.* must leave at most this much op time
SEGMENTS = 6
EXTRA_SEGMENTS = 2
# A segment is contended when other processes preempted this thread more
# often than this (2-10/s on a quiet 2-vCPU machine; 15-30/s in runs whose
# op_ms_p95 of generate_io doubled; about 100/s with two busy processes
# beside it). The calibration kernel, shorter than a time slice, does not
# see that contention: the ops slowed, it did not.
CONTENDED_PREEMPTIONS_PER_S = 12.0


@dataclass
class Window:
    """Ops run in one window: successful op times, all op time, failures,
    and the calibration kernel times taken between ops."""

    kernel: calibration.Kernel
    attempted: int = 0
    wall_s: float = 0.0
    op_ns: int = 0
    calibrate_ns: int = 0
    ok_ns: list = field(default_factory=list)
    ok_end_s: list = field(default_factory=list)
    kernel_ns: list = field(default_factory=list)
    kernel_at_s: list = field(default_factory=list)
    preemptions: int = 0
    errors: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.attempted - len(self.ok_ns)

    @property
    def ops_per_s(self):
        """Successful ops per second of the window, calibration time excluded."""
        return len(self.ok_ns) / (self.wall_s - self.calibrate_ns / 1e9)

    def calibrate(self):
        t0 = time.perf_counter_ns()
        self.kernel_ns.append(self.kernel.time_ns())
        self.kernel_at_s.append(time.perf_counter())
        self.calibrate_ns += time.perf_counter_ns() - t0

    def scaled_ok_ns(self):
        """Successful op times at the reference machine speed."""
        return self.kernel.scale(self.ok_end_s, self.ok_ns, self.kernel_at_s, self.kernel_ns)

    @property
    def preemptions_per_s(self):
        return self.preemptions / self.wall_s

    @classmethod
    def merge(cls, windows):
        """One window holding every op and kernel run of `windows`, in order."""
        w = cls(windows[0].kernel)
        for x in windows:
            w.attempted += x.attempted
            w.wall_s += x.wall_s
            w.op_ns += x.op_ns
            w.calibrate_ns += x.calibrate_ns
            w.preemptions += x.preemptions
            for name in ("ok_ns", "ok_end_s", "kernel_ns", "kernel_at_s"):
                getattr(w, name).extend(getattr(x, name))
            for k, n in x.errors.items():
                w.errors[k] = w.errors.get(k, 0) + n
        return w

    @property
    def slowdown(self):
        """Measured over reference-speed op time: > 1 when the machine ran slow."""
        if not self.ok_ns:
            return statistics.median(self.kernel_ns) / self.kernel.reference_ns
        return sum(self.ok_ns) / float(self.scaled_ok_ns().sum())


def run_window(wl, seconds, min_ops, first=0) -> Window:
    """Closed loop over wl.op until both `seconds` and `min_ops` are reached.

    A typed meshcontact error or a failed output check fails that op and
    the loop goes on; the check runs outside the op's own time. The
    calibration kernel runs at the start and then after the first op that
    ends CALIBRATE_EVERY_S after its previous run.
    """
    w = Window(wl.kernel)
    preempted = _preemptions()
    start = time.perf_counter()
    w.calibrate()

    def fail(exc):
        w.errors[type(exc).__name__] = w.errors.get(type(exc).__name__, 0) + 1

    while True:
        i = first + w.attempted
        w.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = wl.op(i)
        except MeshContactError as exc:
            w.op_ns += time.perf_counter_ns() - t0
            fail(exc)
        else:
            t1 = time.perf_counter_ns()
            w.op_ns += t1 - t0
            try:
                wl.check(i, out)
                w.ok_ns.append(t1 - t0)
                w.ok_end_s.append(t1 / 1e9)
            except workloads.CheckFailed as exc:
                fail(exc)
        now = time.perf_counter()
        if now - w.kernel_at_s[-1] >= calibration.CALIBRATE_EVERY_S:
            w.calibrate()
        if w.attempted >= min_ops and now - start >= seconds:
            break
    w.wall_s = time.perf_counter() - start
    w.preemptions = _preemptions() - preempted
    return w


def _preemptions():
    """Involuntary context switches of this thread so far."""
    return resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw


def run_timed(wl, seconds, min_ops):
    """The timed window: (reported window, every segment run, the calm ones).

    Runs segments of seconds/SEGMENTS until SEGMENTS of them were not
    contended, and reports on those. The choice uses only the preemption
    counts, never the op times, so it does not favour one program over
    another. When contention persists through EXTRA_SEGMENTS more
    segments, every segment is reported and the result is marked unsteady.
    """
    segments = []
    while True:
        first = sum(x.attempted for x in segments)
        segments.append(run_window(wl, seconds / SEGMENTS, -(-min_ops // SEGMENTS), first))
        calm = [x for x in segments
                if x.preemptions_per_s <= CONTENDED_PREEMPTIONS_PER_S]
        if len(calm) >= SEGMENTS:
            return Window.merge(calm), segments, calm
        if len(segments) == SEGMENTS + EXTRA_SEGMENTS:
            return Window.merge(segments), segments, calm


def _reference_check(name, io_dir):
    """Rerun the reference seed and compare with the recorded outputs."""
    recorded = json.loads(REFERENCES.read_text())[name]
    try:
        fresh = workloads.make(name, workloads.REFERENCE_SEED, io_dir).reference()
    except (MeshContactError, workloads.CheckFailed) as exc:
        return [f"reference run failed: {type(exc).__name__}: {exc}"]
    return workloads.WORKLOADS[name].compare(recorded, fresh)


def record_references():
    """Rewrite references.json from the current code."""
    io_dir = RUN_DIR / f"io-{os.getpid()}"
    try:
        refs = {name: workloads.make(name, workloads.REFERENCE_SEED, io_dir).reference()
                for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"vendor": info.get("name"), "version": info.get("version"), "threads": threads}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref[5:]:
            return sha
    return None


def run_record(name, seed, trace, seconds):
    """What produced a result: code, interpreter, libraries, machine, load."""
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src" / "meshcontact").glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in sources:
        digest.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, 1 client, 1 process, 1 Python thread",
    }


def _percentile_ms(ns, q):
    return float(np.percentile(np.asarray(ns, dtype=np.float64), q)) / 1e6


def _declared(declared, values):
    """`values` as {name: {value, unit}} in BENCHMARK.json order; the names must match."""
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS):
    """Run one workload and return its result: metrics, counts, checks, record."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    io_dir = RUN_DIR / f"io-{os.getpid()}"
    try:
        kernel = workloads.WORKLOADS[name].kernel
        setup_s, setup_raw_s = [], []
        for _ in range(SETUP_REPEATS):
            wl = None  # drop the previous set-up before timing the next
            kernels = [kernel.time_ns() for _ in range(SETUP_KERNELS)]
            t0 = time.perf_counter_ns()
            wl = workloads.make(name, seed, io_dir)
            dt = time.perf_counter_ns() - t0
            kernels += [kernel.time_ns() for _ in range(SETUP_KERNELS)]
            setup_raw_s.append(dt / 1e9)
            setup_s.append(kernel.scale_by(dt, kernels) / 1e9)

        warm = run_window(wl, 0.0, WARMUP_OPS)
        wl.reset()
        gc.collect()
        timed, segments, calm = run_timed(wl, seconds, min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = wl.quality()

        mismatches = _reference_check(name, io_dir)

        traced = None
        if trace:
            wl.reset()
            gc.collect()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_window(wl, seconds, min_ops)
            finally:
                tracer.uninstall()
            per_layer = spans.layer_metrics(tracer, traced.attempted, traced.op_ns, wl.counters,
                                            traced.slowdown)
            per_layer["trace.overhead_ratio"] = (
                traced.ops_per_s * traced.slowdown / (timed.ops_per_s * timed.slowdown))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)

    # Failures count in every segment run, reported or not.
    windows = [w for w in (warm, Window.merge(segments), traced) if w is not None]
    attempted = sum(w.attempted for w in windows) + 1
    failed = sum(w.failed for w in windows) + bool(mismatches)
    ok = timed.ok_ns or [timed.op_ns / timed.attempted]
    scaled = timed.scaled_ok_ns() if timed.ok_ns else np.asarray(ok) / timed.slowdown
    raw = {
        "setup_s": statistics.median(setup_raw_s),
        "ops_per_s": timed.ops_per_s,
        "op_ms_p50": _percentile_ms(ok, 50),
        "op_ms_p95": _percentile_ms(ok, 95),
    }
    end_to_end = _declared(spec["end_to_end"], {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": raw["ops_per_s"] * timed.slowdown,
        "op_ms_p50": _percentile_ms(scaled, 50),
        "op_ms_p95": _percentile_ms(scaled, 95),
        "peak_rss_mb": peak_rss_mb,
    })
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _declared(spec["per_layer"], per_layer) if trace else end_to_end,
        "end_to_end": end_to_end,
        "error_rate": failed / attempted,
        "errors": {k: sum(w.errors.get(k, 0) for w in windows)
                   for k in set().union(*(w.errors for w in windows))},
        "reference_mismatches": mismatches,
        "samples": {
            "op_ms": len(timed.ok_ns),
            "beyond_p95": sum(1 for x in timed.ok_ns if x / 1e6 > raw["op_ms_p95"]),
            "setup_repeats": SETUP_REPEATS,
            "window_s": timed.wall_s,
            "traced_ops": traced.attempted if traced else 0,
        },
        "quality": quality,
        "raw": raw,
        "steady": len(calm) >= SEGMENTS,
        "segments": {"run": len(segments), "contended": len(segments) - len(calm),
                     "preemptions_per_s": [x.preemptions_per_s for x in segments],
                     "kernel_median_ns": [statistics.median(x.kernel_ns) for x in segments]},
        "preemptions_per_s": timed.preemptions_per_s,
        "slowdown": {"timed": timed.slowdown,
                     "traced": traced.slowdown if traced else None,
                     "kernel_samples": len(timed.kernel_ns)},
        "per_layer": per_layer if trace else None,
        "coverage_share": COVERAGE_SHARE,
        "record": run_record(name, seed, trace, seconds),
    }


def write_result(result):
    rec = result["record"]
    out = RUN_DIR / "results" / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    return out


def report(result, out=sys.stdout):
    """Human-readable lines: every metric by name and unit, checks and record."""
    rec, s = result["record"], result["samples"]
    blas = rec["blas"]
    print(f"{rec['workload']} seed={rec['seed']}: {rec['load']}; "
          f"BLAS {blas['vendor']} {blas['version']} threads={blas['threads']}; "
          f"nproc={rec['nproc']}; commit={rec['commit']}", file=out)
    raw, slow = result["raw"], result["slowdown"]
    notes = {
        "setup_s": f"median of {s['setup_repeats']} set-ups; raw {raw['setup_s']:.4f}",
        "ops_per_s": f"{s['op_ms']} ops in {s['window_s']:.2f} s; raw {raw['ops_per_s']:.4f}",
        "op_ms_p50": f"n={s['op_ms']}; raw {raw['op_ms_p50']:.4f}",
        "op_ms_p95": f"n={s['op_ms']}, {s['beyond_p95']} beyond; raw {raw['op_ms_p95']:.4f}",
    }
    print(f"  times scaled by the calibration kernel: slowdown {slow['timed']:.3f} "
          f"over {slow['kernel_samples']} samples", file=out)
    seg = result["segments"]
    if result["steady"]:
        print(f"  steady: {SEGMENTS} segments reported, {seg['contended']} contended ones "
              f"replaced; {result['preemptions_per_s']:.1f} preemptions/s", file=out)
    else:
        print(f"  UNSTEADY: {seg['contended']} of {seg['run']} segments contended, all "
              "reported; compare this result with care", file=out)
    for k, m in result["end_to_end"].items():
        print(f"  {k:<18} {m['value']:12.4f} {m['unit']:<6} {notes.get(k, '')}", file=out)
    print(f"  {'error_rate':<18} {result['error_rate']:12.4f} {'ratio':<6} "
          f"{result['failed']}/{result['attempted']} {result['errors'] or ''}", file=out)
    for k, v in result["quality"].items():
        lo, hi = workloads.FINAL_STEPS
        print(f"  {k:<18} {v:12.4f} {'loss':<6} mean of steps {lo}..{hi - 1}", file=out)
    if result["reference_mismatches"]:
        for m in result["reference_mismatches"]:
            print(f"  reference check FAILED: {m}", file=out)
    else:
        print("  reference check: ok", file=out)
    if result["per_layer"]:
        pl = result["per_layer"]
        share = pl["bench.unaccounted_ms"] / pl["bench.op_ms"]
        verdict = "ok" if share <= result["coverage_share"] else "SHORT"
        print(f"  traced: {s['traced_ops']} ops; unaccounted {share:.2%} of op time "
              f"(limit {result['coverage_share']:.0%}): {verdict}; "
              f"overhead ratio {pl['trace.overhead_ratio']:.3f}", file=out)
