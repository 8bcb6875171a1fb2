"""Closed-loop runner, statistics and metric reports of the benchmark.

One client in one process sends op ``i + 1`` only after op ``i`` has
returned and been checked.  The untraced run gives the end-to-end metrics;
the traced run repeats the same op sequence untraced and then traced, and
reports per-layer metrics from the spans.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import stall
from inducedmaps import discord
from spans import LAYERS, SpanTable, Tracer
from workloads import OUT_DIR, ROOT, WORKLOADS, CliOneshot, Outcome

SETUP_REPEATS = 5
STALL_PROCESSES = 6
CLI_TIMING_REPEATS = 5

# (name, unit, better) of the untraced run.  Op times are in "ref" units:
# multiples of the reference kernel's time, measured between ops in the same
# run (see reference_kernel).  Failures are not a metric here: they are the
# "failed" count of the result line, and "correct" is false when any op
# failed.
END_TO_END = (
    ("ops_per_kref", "1/kref", "higher"),
    ("op_p50_ref", "ref", "lower"),
    ("op_tail_ref", "ref", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("witness_ratio", "ratio", "higher"),
    ("probe_depth_mean", "ratio", "higher"),
    ("setup_s", "s", "lower"),
)

# Layer groups whose time is reported as a share of op time.
GROUPS = {layer: (layer,) for layer in LAYERS}
GROUPS["states_discord"] = ("states", "discord")

# (name, unit) of the traced run.
PER_LAYER = (
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    *((f"{layer}.self_share", "ratio") for layer in LAYERS),
    ("states_discord.share", "ratio"),
    ("maps.probe_positivity.ms_p50", "ms"),
    ("maps.probe_positivity.share", "ratio"),
    ("maps.probe_positivity.calls_per_op", "calls/op"),
    ("maps.induce.ms_p50", "ms"),
    ("maps.induce.share", "ratio"),
    ("maps.is_cp.ms_p50", "ms"),
    ("maps.is_cp.ms_max", "ms"),
    ("maps.kraus_from_choi.ms_p50", "ms"),
    ("states.check_condition.ms_p50", "ms"),
    ("states.decompose_blocks.calls_per_op", "calls/op"),
    ("states.assemble.calls_per_op", "calls/op"),
    ("states.validate_density_matrix.calls_per_op", "calls/op"),
    ("states.rescaled_matrices.calls_per_op", "calls/op"),
    ("discord.has_vqd.ms_p50", "ms"),
    ("discord.has_vqd.share", "ratio"),
    ("discord.has_vqd.indeterminate_ratio", "ratio"),
    ("discord.pinching_defect.calls_per_op", "calls/op"),
    ("search.scan.self_ms_per_op", "ms"),
    ("search.haar_unitary.share", "ratio"),
    ("search.hunt.gate_ms_p50", "ms"),
    ("linalg.hermitian_eigen.calls_per_op", "calls/op"),
    ("linalg.partial_trace.calls_per_op", "calls/op"),
    ("linalg.default_pool_stall_ratio", "ratio"),
    ("jsonio.load_ms_p50", "ms"),
    ("jsonio.bytes_read_per_op", "B/op"),
    ("cli.main_ms_p50", "ms"),
    ("cli.import_ms_p50", "ms"),
    ("cli.interpreter_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans_per_op", "spans/op"),
)

# Percentiles, in tenths of a percent, that the tail latency may report.
TAIL_LADDER = (500, 900, 990, 999)
TAIL_MIN_BEYOND = 10

# The speed of a shared machine drifts by tens of percent over seconds to
# minutes, and CPU time drifts with it.  A fixed batch of small numpy calls,
# like the package's own, timed before every op tracks that speed; op times
# divided by a running median of it hold steady across runs.
REF_MATRIX = np.array([[2.0, 1 - 1j, 0.5j, 0.0], [1 + 1j, -1.0, 0.25, 1j],
                       [-0.5j, 0.25, 0.5, -1.0], [0.0, -1j, -1.0, 1.5]])
REF_CALLS = 20
REF_WINDOW = 9


def reference_kernel():
    """Seconds taken by ``REF_CALLS`` small ``eigvalsh`` calls."""
    t0 = time.perf_counter()
    for _ in range(REF_CALLS):
        np.linalg.eigvalsh(REF_MATRIX @ REF_MATRIX)
    return time.perf_counter() - t0


def in_ref_units(latencies, kernels, window=REF_WINDOW):
    """Each latency over the median kernel time of the ``window`` ops
    centred on it; ``None`` latencies stay ``None``."""
    half = window // 2
    out = []
    for i, t in enumerate(latencies):
        ref = statistics.median(kernels[max(0, i - half): i + half + 1])
        out.append(None if t is None else t / ref)
    return out


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    The value is the nearest-rank percentile: rank ``ceil(p * n)``, and the
    samples beyond it are the ``n - rank`` larger ones.  Returns
    ``(percentile, value, beyond)``; with too few samples for any rung it
    returns the maximum as percentile 100 with nothing beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    best = (100.0, xs[-1], 0)
    for p in ladder:
        rank = -(-p * n // 1000)
        if rank >= 1 and n - rank >= min_beyond:
            best = (p / 10, xs[rank - 1], n - rank)
    return best


@dataclass
class LoopResult:
    """Per-op latencies (seconds; ``None`` for a failed op) and check totals."""

    latencies: list = field(default_factory=list)
    kernels: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    trials: int = 0
    witnesses: int = 0
    depths: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def ok(self):
        return [t for t in self.latencies if t is not None]

    def add(self, i, latency, outcome: Outcome):
        if outcome.violations:
            self.failures.append((i, "; ".join(outcome.violations)))
            latency = None
        self.latencies.append(latency)
        self.trials += outcome.trials
        self.witnesses += outcome.witnesses
        self.depths += outcome.depths


def closed_loop(op, check, seconds, tracer=None, prepare=None):
    """Run ops ``0, 1, ...`` until ``seconds`` have passed; check each one.

    An op that raises, or whose check reports a violation, is a failure.
    ``prepare(i)``, when given, runs before op ``i`` and outside its timing,
    as does the reference kernel.  Checks run outside the op's timing and,
    when tracing, outside any span.
    """
    res = LoopResult()
    pause = tracer.paused if tracer is not None else nullcontext
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        if prepare is not None:
            prepare(i)
        res.kernels.append(reference_kernel())
        t0 = time.perf_counter()
        try:
            out = op(i)
        except Exception:  # a failed op is recorded and the loop goes on
            res.latencies.append(None)
            res.failures.append((i, traceback.format_exc(limit=-3)))
        else:
            latency = time.perf_counter() - t0
            with pause():
                try:
                    outcome = check(i, out)
                except Exception:  # a check that cannot run counts against the op
                    outcome = Outcome(violations=[traceback.format_exc(limit=-3)])
            res.add(i, latency, outcome)
        i += 1
    return res


def environment():
    """Interpreter, numpy and BLAS versions, CPU count and thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": platform.platform(),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_up(cls, seed, repeats):
    """Build the workload (input generation) and warm it up ``repeats``
    times; returns the last instance and the set-up times in seconds."""
    times = []
    wl = None
    for _ in range(repeats):
        if wl is not None and hasattr(wl, "close"):
            wl.close()
        t0 = time.perf_counter()
        wl = cls(seed)
        wl.warm_up()
        times.append(time.perf_counter() - t0)
    return wl, times


def end_to_end(wl, setup_times, seconds):
    """End-to-end metrics, and the same op times in ms and 1/s for the report."""
    loop = closed_loop(wl.op, wl.check, seconds)
    if not loop.ok:
        return loop, {}, {}, {}
    refs = [t for t in in_ref_units(loop.latencies, loop.kernels) if t is not None]
    ms = [t * 1e3 for t in loop.ok]
    pct, tail_ref, beyond = tail_percentile(refs)
    metrics = {
        "ops_per_kref": 1e3 * len(refs) / sum(refs),
        "op_p50_ref": statistics.median(refs),
        "op_tail_ref": tail_ref,
        "peak_rss_mb": peak_rss_mb(children=isinstance(wl, CliOneshot)),
        "witness_ratio": loop.witnesses / loop.trials if loop.trials else 0.0,
        "probe_depth_mean": statistics.fmean(loop.depths) if loop.depths else 0.0,
        "setup_s": statistics.median(setup_times),
    }
    wall = {
        "ops_per_s": (len(ms) / sum(loop.ok), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail_percentile(ms, ladder=(int(pct * 10),))[1], "ms"),
        "ref_ms": (statistics.median(loop.kernels) * 1e3, "ms"),
    }
    tail_note = f"p{pct:g}, {beyond} samples beyond, n={len(refs)}"
    notes = {
        "op_tail_ref": tail_note,
        "op_tail_ms": tail_note,
        "probe_depth_mean": f"over {len(loop.depths)} violating maps",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ref_ms": "median reference-kernel time",
    }
    return loop, metrics, wall, notes


def _ms_p50(durations_ns):
    return statistics.median(durations_ns.tolist()) / 1e6 if len(durations_ns) else 0.0


def layer_metrics(t: SpanTable, outcome_counts):
    """Every span-derived per-layer metric of a traced run."""
    ops = t.ops
    n_ops = int(ops.sum())
    op_ns = float(t.dur[ops].sum())

    def fn(name):
        return t.mask(lambda n: n == name)

    def group(key):
        layers = GROUPS[key]
        return t.mask(lambda n: n.split(".", 1)[0] in layers and n != "op")

    def generic(name):
        target, stat = name.rsplit(".", 1)
        sel = group(target) if target in GROUPS else fn(target)
        if stat == "share":
            return float(t.dur[t.outermost(sel)].sum()) / op_ns
        if stat == "self_share":
            return float(t.self_time[sel].sum()) / op_ns
        if stat == "calls_per_op":
            return float(sel.sum()) / n_ops
        if stat == "ms_p50":
            return _ms_p50(t.dur[sel])
        if stat == "ms_max":
            return float(t.dur[sel].max()) / 1e6 if sel.any() else 0.0
        raise KeyError(name)

    def hunt_gate_ms_p50():
        hunt = fn("search.hunt")
        inner = fn("search.scan") | fn("search.filter_candidates")
        under_hunt = inner & (t.parent >= 0)
        under_hunt[under_hunt] = hunt[t.parent[under_hunt]]
        gate = t.dur.astype(float)
        np.subtract.at(gate, t.parent[under_hunt], t.dur[under_hunt])
        return _ms_p50(gate[hunt])

    def jsonio_load_ms_p50():
        loads = t.outermost(t.mask(lambda n: n.startswith("jsonio.load")))
        if not loads.any():
            return 0.0
        _, per_op = np.unique(t.op[loads], return_inverse=True)
        return _ms_p50(np.bincount(per_op, weights=t.dur[loads]))

    def indeterminate_ratio():
        total = sum(c for (name, _), c in outcome_counts.items() if name == "discord.has_vqd")
        hits = outcome_counts.get(("discord.has_vqd", discord.INDETERMINATE), 0)
        return hits / total if total else 0.0

    special = {
        "search.scan.self_ms_per_op": lambda: float(t.self_time[fn("search.scan")].sum()) / 1e6 / n_ops,
        "search.hunt.gate_ms_p50": hunt_gate_ms_p50,
        "discord.has_vqd.indeterminate_ratio": indeterminate_ratio,
        "jsonio.load_ms_p50": jsonio_load_ms_p50,
        "cli.main_ms_p50": lambda: _ms_p50(t.dur[fn("cli.main")]),
        "trace.spans_per_op": lambda: float(len(t.dur) - n_ops) / n_ops,
    }
    measured_elsewhere = {
        "linalg.default_pool_stall_ratio",
        "jsonio.bytes_read_per_op",
        "cli.import_ms_p50",
        "cli.interpreter_ms_p50",
        "trace.overhead_ratio",
    }
    return {
        name: (special[name]() if name in special else generic(name))
        for name, _ in PER_LAYER
        if name not in measured_elsewhere
    }


def cli_start_up(env):
    """Medians of a fresh ``import inducedmaps.cli`` and of a bare
    ``python -c pass`` process, in ms."""
    code = (
        "import time; t = time.perf_counter(); import inducedmaps.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    python = lambda *argv: subprocess.run(  # noqa: E731
        [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    imports, interpreter = [], []
    for _ in range(CLI_TIMING_REPEATS):
        imports.append(float(python("-c", code).stdout))
        t0 = time.perf_counter()
        python("-c", "pass")
        interpreter.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(imports), statistics.median(interpreter)


def traced(wl, seconds, spans_path):
    """Per-layer metrics from spans, and the tracing overhead.

    Each op runs twice in a row on the same input, first untraced and then
    traced, so that drift over the run affects both sides alike.
    """
    op = getattr(wl, "op_in_process", wl.op)
    tracer = Tracer(outcomes={"discord.has_vqd": lambda v: v.status})

    def prepare(j):
        if j % 2:
            tracer.install()
        else:
            tracer.uninstall()

    def alternate(j):
        if j % 2 == 0:
            return op(j // 2)
        tracer.active = True
        try:
            with tracer.op():
                return op(j // 2)
        finally:
            tracer.active = False

    try:
        loop = closed_loop(alternate, lambda j, out: wl.check(j // 2, out), seconds, tracer, prepare)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    pairs = [
        (a, b)
        for a, b in zip(loop.latencies[0::2], loop.latencies[1::2])
        if a is not None and b is not None
    ]
    if not pairs:
        return loop, {}, {}, {}

    metrics = layer_metrics(SpanTable(tracer.table(), tracer.names), tracer.outcome_counts)
    metrics["trace.overhead_ratio"] = sum(b for _, b in pairs) / sum(a for a, _ in pairs)
    metrics["linalg.default_pool_stall_ratio"] = stall.stall_ratio(STALL_PROCESSES, ROOT)
    cli = isinstance(wl, CliOneshot)
    metrics["jsonio.bytes_read_per_op"] = (
        statistics.fmean(wl.bytes_read(j // 2) for j in range(1, loop.attempted, 2)) if cli else 0.0
    )
    imports, interpreter = cli_start_up(wl.env) if cli else (0.0, 0.0)
    metrics["cli.import_ms_p50"] = imports
    metrics["cli.interpreter_ms_p50"] = interpreter
    notes = {"trace.overhead_ratio": f"{len(pairs)} ops, each untraced then traced"}
    return loop, metrics, {}, notes


def run(workload, seed, seconds, trace):
    """Run one workload; print the report lines and the result line."""
    cls = WORKLOADS[workload]
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    wl, setup_times = set_up(cls, seed, 1 if trace else SETUP_REPEATS)
    try:
        if trace:
            spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
            loop, metrics, wall, notes = traced(wl, seconds, spans_path)
            units = dict(PER_LAYER)
        else:
            loop, metrics, wall, notes = end_to_end(wl, setup_times, seconds)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        if hasattr(wl, "close"):
            wl.close()

    failed = len(loop.failures)
    attempted = loop.attempted
    print(f"workload {workload}: seed {seed}, {seconds} s, trace {trace}, closed loop, 1 client")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"failed_ratio {failed / attempted if attempted else 1.0:.6g} ratio ({failed} of {attempted} ops)")
    for i, msg in loop.failures[:5]:
        print(f"failure op {i}: {msg.strip()}")
    lines = {name: (value, units[name]) for name, value in metrics.items()}
    for name, (value, unit) in {**wall, **lines}.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "notes": notes,
        "wall_clock": {name: value for name, (value, _) in wall.items()},
        "failures": loop.failures[:20],
        "result": result,
    }
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    print(json.dumps(result))
    return 0
