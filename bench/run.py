"""Benchmark of gallai: exhaustive search (serial and two jobs), the
structure pipeline, and the CLI.

    python3 bench/run.py --workload search-serial --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It prints a report, then as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
listed in BENCHMARK.json; with ``--trace 1`` they are the per-layer
ones, and the spans go to ``.bench_out/trace-<workload>-seed<seed>.json``.

A run makes a fixed number of passes over the workload's operation
list: ``--seconds`` divided by the workload's nominal pass time, which
was measured on a 2-vCPU machine when the benchmark was defined.  The
count depends on nothing measured, so every run of every commit times
the same operations and a percentile rank always falls on the same
operation.  A traced run alternates untraced and traced passes; the
difference of their median pass times is the tracing overhead.

Times in the result line are reference seconds: each operation's
measured time scaled by the reference loop's time on the reference
machine over its time just before and after the operation (see
``workloads.py``).  The report prints the measured times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import NULL_TRACER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
PASS_TIME_LIMIT_S = 120  # start no pass after this, so a run ends within 180 s
TAIL_BEYOND = 10  # the tail percentile has this many calls beyond it

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes_to_proof": "count",
    "nodes_per_s": "1/s",
    "colorings_per_s": "1/s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


@dataclass
class Pass:
    durations: list  # measured seconds of each operation
    scales: list  # reference seconds per measured second, per operation
    nodes: int  # search nodes reported by the pass's outputs
    failures: list
    tracer: Tracer | None
    op_spans: list  # id of each operation's span, when traced

    def times(self, scaled: bool) -> list:
        return [d * f for d, f in zip(self.durations, self.scales)] if scaled else self.durations

    def wall(self, scaled: bool) -> float:
        return sum(self.times(scaled))


def run_pass(ops, tracer, reference, nominal) -> Pass:
    """Time each operation in turn, with the reference loop between
    them, then check the outputs.  A failing operation is recorded and
    the pass goes on."""
    tr = tracer or NULL_TRACER
    reference = reference or (lambda: nominal)
    durations, results, op_spans, refs = [], [], [], [reference()]
    for op in ops:
        if tracer:
            op_spans.append(len(tracer.spans))
        t0 = time.perf_counter()
        try:
            with tr.span(f"op:{op.name}"):
                results.append(op.run(tr))
        except Exception as exc:
            results.append(exc)
        durations.append(time.perf_counter() - t0)
        refs.append(reference())
    scales = [2 * nominal / (a + b) for a, b in zip(refs, refs[1:])]
    nodes, failures = 0, []
    for op, result in zip(ops, results):
        try:
            if isinstance(result, Exception):
                raise result
            op.check(result)
            if op.nodes:
                nodes += op.nodes(result)
        except Exception as exc:
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return Pass(durations, scales, nodes, failures, tracer, op_spans)


def measure_setup(workload: str, scratch: Path) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import gallai and run the
    workload's warm-up, as a user starting the workload would: measured,
    and in reference seconds, each scaled by the reference loop run in a
    fresh interpreter just before and after it."""
    import workloads

    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]; "
        "import workloads; "
        f"workloads.WORKLOADS[{workload!r}].warm(Path({str(scratch)!r}))"
    )
    samples, refs = [], [workloads.reference_child()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = workloads.python(["-c", code])
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        refs.append(workloads.reference_child())
    nominal = workloads.REFERENCE_S[workloads.reference_child]
    scaled = [t * 2 * nominal / (a + b) for t, a, b in zip(samples, refs, refs[1:])]
    return samples, scaled


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    waited-for child (pool workers, CLI subprocesses)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def tail(samples):
    """Nearest-rank value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    idx = len(ordered) - 1 - min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(ops, passes, setup, rss, colorings, scaled):
    """All end-to-end metrics, None where the workload has no such work,
    and a note on how each was taken; times in reference seconds when
    ``scaled``, else as measured."""
    # Each operation repeats fixed work, so its median over the passes
    # stands for every one of its calls; percentiles are taken over these
    # per-call values, which keeps one slow pass from moving them.
    times = [p.times(scaled) for p in passes]
    per_op = [statistics.median(t[i] for t in times) for i in range(len(ops))]
    samples = [d for d in per_op for _ in passes]
    tail_s, tail_pct = tail(samples)
    searching = [i for i, op in enumerate(ops) if op.nodes]
    search_s = statistics.median(sum(t[i] for i in searching) for t in times)
    nodes = passes[-1].nodes
    wall = statistics.median(sum(t) for t in times)
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    values = {
        "setup_s": statistics.median(setup[scaled]),
        "wall_s": wall,
        "nodes_to_proof": nodes if searching else None,
        "nodes_per_s": nodes / search_s if searching else None,
        "colorings_per_s": colorings / wall if colorings else None,
        "call_p50_s": statistics.median(samples),
        "call_tail_s": tail_s,
        "peak_rss_mb": rss,
        "failed_frac": failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup[0])} fresh set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "colorings_per_s": f"{colorings} colorings per pass" if colorings else "",
        "call_p50_s": f"over {len(ops)} operations, each at its median of {len(passes)} passes",
        "call_tail_s": f"p{tail_pct:.0f} of {len(samples)} calls",
        "failed_frac": f"{failed} of {attempted}",
    }
    if searching and len({p.nodes for p in passes}) > 1:
        notes["nodes_to_proof"] = f"NOT REPEATABLE across passes: {[p.nodes for p in passes]}"
    return values, notes


def per_layer(passes):
    """Median over traced passes of each layer's self time and counts,
    and the tracing overhead."""
    traced = [p for p in passes if p.tracer]
    rows = []
    for p in traced:
        scale = dict(zip(p.op_spans, p.scales))
        row = p.tracer.self_times(scale, default=statistics.median(p.scales))
        row.update(p.tracer.counts)
        inst_s = {k[: -len(".s")]: v for k, v in row.items() if k.startswith("search.") and k.endswith(".s")}
        for inst, s in inst_s.items():
            row[inst + ".nodes_per_s"] = row.get(inst + ".nodes", 0) / s
        nodes = sum(v for k, v in row.items() if k.startswith("search.") and k.endswith(".nodes"))
        search_s = sum(inst_s.values()) + row.get("search.pool_start_s", 0.0)
        row["search.nodes_to_proof"] = nodes
        row["search.nodes_per_s"] = nodes / search_s if search_s else 0.0
        rows.append(row)
    out = {k: statistics.median(row.get(k, 0) for row in rows) for row in rows for k in row}
    out["trace.wall_s"] = statistics.median(p.wall(True) for p in traced)
    out["trace.untraced_wall_s"] = statistics.median(p.wall(True) for p in passes if not p.tracer)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def machine(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gallai" / "__init__.py").is_file():
        print(f"error: no gallai sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    n_passes = max(2 if args.trace else 1, round(args.seconds / wl.pass_s))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="scratch-", dir=out_dir))
    try:
        wl.warm(scratch)
        ops = wl.build(args.seed, scratch)
        passes = []
        nominal = workloads.REFERENCE_S.get(wl.reference, 1.0)
        started = time.perf_counter()
        for i in range(n_passes):
            if time.perf_counter() - started > PASS_TIME_LIMIT_S:
                print(f"warning: stopped after {i} passes at the time limit", file=sys.stderr)
                break
            tracer = Tracer() if args.trace and i % 2 else None
            passes.append(run_pass(ops, tracer, wl.reference, nominal))
            if tracer and wl.extras:
                wl.extras(tracer, scratch)
        rss = peak_rss_mb()
        setup = None if args.trace else measure_setup(wl.name, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {wl.name}: {len(ops)} operations x {len(passes)} passes")
    print("pass seconds " + " ".join(f"{p.wall(False):.3f}{'*' if p.tracer else ''}" for p in passes))
    print("in reference seconds " + " ".join(f"{p.wall(True):.3f}" for p in passes))
    print("machine " + json.dumps(machine(args.seed)))

    if args.trace:
        values = per_layer(passes)
        listed = spec["per_layer"]
        trace_file = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        doc = {
            "machine": machine(args.seed),
            "workload": wl.name,
            "passes": [
                {"pass": i, "scales": p.scales, "spans": p.tracer.spans, "counts": p.tracer.counts}
                for i, p in enumerate(passes)
                if p.tracer
            ],
        }
        trace_file.write_text(json.dumps(doc))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        for m in listed:
            print(f"  {m['name']:<36} {values.get(m['name'], 0):>14.6g} {m['unit']}")
    else:
        colorings = workloads.STRUCTURE_COLORINGS if wl.name == "structure" else 0
        measured, _ = end_to_end(ops, passes, setup, rss, colorings, scaled=False)
        values, notes = end_to_end(ops, passes, setup, rss, colorings, scaled=True)
        listed = spec["end_to_end"]
        print(f"  {'metric':<16} {'reference':>12} {'measured':>12} unit")
        for name, unit in UNITS.items():
            shown = [
                "n/a" if v is None else str(v) if isinstance(v, int) else f"{v:.6g}"
                for v in (values[name], measured[name])
            ]
            print(f"  {name:<16} {shown[0]:>12} {shown[1]:>12} {unit:<6} {notes.get(name, '')}")
    result = {
        "correct": not failures,
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
