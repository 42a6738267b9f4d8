"""Benchmark of the membrane toolkit: one workload per run, result as JSON.

    python3 bench/run.py --workload d2-sample --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run sets up the workload's domains
several times (median reported), then repeats whole rounds of the same calls
until --seconds have passed and at least three rounds are done, checks the
outputs of every round against independent oracles, and prints as its last
line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics: then every other round records a span
around each call into the toolkit, and the spans are written to
.bench_out/trace-<workload>-seed<seed>.json.  A record of each run, with the
machine, versions, checks and failures, goes to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3   # the fastest of fewer repeats is biased slow
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Tracer:
    """Spans (name, start, end, parent) kept in memory; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name):
        rec = {"name": name, "start": perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Seconds per span name, less the time covered by child spans."""
        out = defaultdict(float)
        for rec in self.spans:
            out[rec["name"]] += rec["end"] - rec["start"]
            if rec["parent"] is not None:
                parent = self.spans[rec["parent"]]
                out[parent["name"]] -= rec["end"] - rec["start"]
        return out


def cap_threads() -> dict:
    """Cap BLAS and OpenMP threads at the cores this process may use."""
    n = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = n
    return {var: n for var in THREAD_VARS}


def environment(thread_env: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": thread_env,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def median(values):
    return float(statistics.median(values))


def run(wl, seed: int, seconds: float, trace: bool, import_s: float, thread_env: dict, per_layer_spec):
    import workloads

    # garbage is collected outside the timed parts, so that peak memory does
    # not depend on when the collector happens to run
    setup_times, setup_layers, setup_spans = [], [], []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        tracer = Tracer(trace)
        t0 = perf_counter()
        state = wl.setup(tracer)
        setup_times.append(perf_counter() - t0)
        setup_layers.append(tracer.self_times())
        setup_spans.append(tracer.spans)
    wl.inputs(state)

    rounds, ref, layers, diagnostics = [], None, [], {}
    t_begin = perf_counter()
    while True:
        # in a traced run, rounds alternate untraced and traced so that the
        # tracing overhead is measured in the same process
        tracer = Tracer(trace and len(rounds) % 2 == 1)
        r = workloads.Round(tracer)
        gc.collect()
        t0 = perf_counter()
        try:
            out = wl.round(r, state)
        except Exception as exc:   # a call failed and the round could not go on
            r.failures.append(("round", f"{type(exc).__name__}: {exc}"))
            out = None
        wall = perf_counter() - t0
        if ref is None:
            ref = wl.oracles(state)
            diagnostics = wl.diagnostics(out, ref) if out is not None else {}
        try:
            res = wl.check(state, out, ref)
            if tracer.enabled:
                layers.append(wl.layers(tracer.self_times(), r, out))
        except Exception as exc:   # missing or malformed output of a failed call
            res = [("checks", (False, f"{type(exc).__name__}: {exc}"))]
        del out   # one round's outputs at a time, so peak memory does not grow with rounds
        rounds.append({"round": r, "wall_s": wall, "tracer": tracer,
                       "checks": [(name, bool(ok), detail) for name, (ok, detail) in res]})
        if perf_counter() - t_begin >= seconds and len(rounds) >= MIN_ROUNDS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(i, label, msg) for i, rd in enumerate(rounds) for label, msg in rd["round"].failures]
    unexpected = [f for f in failures if f[1] not in wl.KNOWN_FAULTS]
    correct = all(ok for rd in rounds for _, ok, _ in rd["checks"]) and not unexpected
    attempted = sum(rd["round"].attempted for rd in rounds)

    # The machine's speed drifts with the load of its neighbours, by up to a
    # third within a minute.  The fastest of a call's repeats tracks the
    # speed of the code; the median tracks the drift.  So a round is timed
    # as the sum of its calls, each at its fastest over the run's rounds.
    untraced = [rd["round"] for rd in rounds if not rd["tracer"].enabled]
    fastest = [min(t) for t in zip(*(r.durations for r in untraced))]
    e2e = {
        "setup_s": import_s + median(setup_times),
        "wall_s": sum(fastest),
        "peak_rss_mb": peak_rss_mb,
    }
    layer = {}
    if trace and correct:
        best = {m["name"]: min if m["better"] == "lower" else max for m in per_layer_spec}
        layer = {name: best[name](p[name] for p in layers) for name in layers[0]}
        for key, span in (("lattice.classify_s", "lattice.classify"), ("green.assemble_s", "green.assemble_precision")):
            if any(span in t for t in setup_layers):
                layer[key] = median([t[span] for t in setup_layers])
        walls = {flag: min(rd["wall_s"] for rd in rounds if rd["tracer"].enabled == flag) for flag in (True, False)}
        layer["tracing_overhead_s"] = walls[True] - walls[False]
        write_trace(wl.name, seed, setup_spans, [rd["tracer"] for rd in rounds if rd["tracer"].enabled])

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(thread_env),
        "import_s": import_s,
        "setup_s_each": setup_times,
        "rounds": [
            {"wall_s": rd["wall_s"], "calls_s": rd["round"].durations, "traced": rd["tracer"].enabled}
            for rd in rounds
        ],
        "attempted": attempted,
        "failures": failures,
        "checks": rounds[0]["checks"],
        "checks_failed": [(i, n, d) for i, rd in enumerate(rounds) for n, ok, d in rd["checks"] if not ok],
        "diagnostics": diagnostics,
        "end_to_end": e2e,
        "per_layer": layer,
    }
    (OUT_DIR / f"run-{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record, correct, attempted, len(failures), e2e, layer


def write_trace(name, seed, setup_spans, tracers):
    """Spans of the traced set-ups and rounds, with self times per layer."""
    groups = [{"kind": "setup", "spans": s} for s in setup_spans]
    groups += [{"kind": "round", "spans": t.spans, "self_s": dict(t.self_times())} for t in tracers]
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(groups, indent=1) + "\n")


def report(record):
    env = record["environment"]
    print(f"# {record['workload']} seed {record['seed']}: {len(record['rounds'])} rounds, "
          f"{record['attempted']} calls, {len(record['failures'])} failed")
    print(f"# nproc {env['nproc']}, {env['thread_env']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, git {env['git_sha']}")
    for _, label, msg in record["failures"][:3]:
        print(f"# failed: {label}: {msg}")
    for name, ok, detail in record["checks"]:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for i, name, detail in record["checks_failed"][:5]:
        print(f"# round {i} check FAIL {name}: {detail}")
    for key, value in record["diagnostics"].items():
        print(f"# diagnostic {key} = {value}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "membrane" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/membrane package (or no BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    thread_env = cap_threads()   # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    t0 = perf_counter()
    from workloads import WORKLOADS   # imports numpy, scipy and membrane: part of set-up

    import_s = perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    record, correct, attempted, failed, e2e, layer = run(
        WORKLOADS[args.workload](args.seed, OUT_DIR), args.seed, args.seconds, bool(args.trace),
        import_s, thread_env, spec["per_layer"],
    )
    report(record)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
