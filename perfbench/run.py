"""Benchmark of the rauzy CLI pipelines on seeded inputs.

    python3 perfbench/run.py --workload sofic --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets up the workload three times (inputs from the seed,
documents written, one warm-up pipeline), then runs the workload's fixed
batch of pipelines again and again, in one closed loop with one client,
for about ``--seconds``, then sets up twice more.  Every output is
verified independently before it counts.  The last line of stdout is one
JSON object:

  --trace 0: the end-to-end metrics (setup_s, wall_ref, largest_ref,
             ok_ratio, peak_rss_mb);
  --trace 1: the per-layer metrics of the traced batches (span self times,
             calls, errors and work counts per layer, trace.overhead_s),
             with the spans written to .perfbench/spans-<workload>-<seed>.json.

The line before it, ``perfbench run: {...}``, gives the same timings in
seconds, the report and input digests and the work counts.  Each workload
runs in a fresh process with PYTHONHASHSEED=0; the script re-executes
itself once to get that.  See README.md for the metrics and the unit ref.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-ups per run, before and after the measured batches; setup_s is the
# import time plus their median, which then spans the machine's speed
# drift over the run
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
COVERAGE = 0.5                          # least trace.coverage of a correct run


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a key of workloads.WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Batch:
    """One pass over every pipeline of the workload: per pipeline, the time
    spent in its steps in seconds and in multiples of the reference work."""

    def __init__(self, times, norm, elapsed, session, spans):
        self.times = times
        self.norm = norm
        self.wall = sum(times)
        self.elapsed = elapsed              # including reference timings
        self.session = session
        self.spans = spans                  # [first, end) in tracer.spans


def run_batch(pipelines, tracer=None, probe=True) -> Batch:
    """Run every pipeline once.  Measured untraced batches time each step
    against the reference work; traced ones and warm-ups do not, so spans
    hold only the workload and the benchmark's checks."""
    import reference
    from session import Session, StepFailed

    s = Session(probe=reference.seconds if probe and not tracer else None)
    first = len(tracer.spans) if tracer else 0
    times, norm = [], []
    started = time.perf_counter()
    for p in pipelines:
        if tracer:
            tracer.pipeline = p.name
            root = tracer.open("bench", p.name)
        before = (s.seconds, s.refs)
        try:
            p.run(s)
        except StepFailed:
            pass
        if tracer:
            tracer.close(root)
        times.append(s.seconds - before[0])
        norm.append(s.refs - before[1])
    return Batch(times, norm, time.perf_counter() - started, s,
                 (first, len(tracer.spans) if tracer else 0))


def timings(batches, top: list, kind: str) -> dict:
    """wall, pipeline_p50 and largest over the batches, from the pipelines'
    seconds (kind "times") or their multiples of the reference work
    ("norm")."""
    per = [getattr(b, kind) for b in batches]
    return {
        "wall": statistics.median(sum(t) for t in per),
        "pipeline_p50": statistics.median(x for t in per for x in t),
        "largest": statistics.median(sum(t[i] for i in top) for t in per),
    }


def run_batches(pipelines, until: float, tracer=None) -> list:
    """Batches until the next one would end after `until` (at least one)."""
    out = [run_batch(pipelines, tracer)]
    while time.perf_counter() + out[-1].elapsed <= until:
        out.append(run_batch(pipelines, tracer))
    return out


def run_traced(pipelines, until: float):
    """Untraced and traced batches in turn, starting untraced, so that both
    see the same phases of machine load.  Returns (untraced, traced,
    tracer)."""
    import spans

    tracer = spans.Tracer()
    untraced, traced = [run_batch(pipelines)], []
    while not traced or time.perf_counter() + untraced[-1].elapsed <= until:
        tracer.install()
        try:
            traced.append(run_batch(pipelines, tracer))
        finally:
            tracer.uninstall()
        if time.perf_counter() + traced[-1].elapsed > until:
            break
        untraced.append(run_batch(pipelines))
    return untraced, traced, tracer


def layer_metrics(batch: Batch, tracer, spans_self) -> tuple[dict, float]:
    """Per-layer self time, calls and errors of one traced batch, and the
    least share, over its pipelines, of the steps' time (on the Session's
    own clock) that layer spans cover; -1 when a pipeline's spans do not
    fit inside its steps and its steps inside its root span."""
    import spans

    out = {}
    for layer in ("bench",) + spans.LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = 0
    roots = []
    lo, hi = batch.spans
    for i in range(lo, hi):
        layer, _, start, end, parent, pipeline, error = tracer.spans[i]
        out[f"{layer}.self_s"] += spans_self[i]
        out[f"{layer}.calls"] += layer != "bench"
        out[f"{layer}.errors"] += error
        if parent < 0:
            roots.append((end - start, end - start - spans_self[i]))
    del out["bench.calls"], out["bench.errors"]
    coverage = 1.0 if len(roots) == len(batch.times) else -1.0
    for (root, covered), steps in zip(roots, batch.times):
        fits = covered <= steps <= root
        coverage = min(coverage, covered / steps if fits and steps else -1.0)
    return out, coverage


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env=env).returncode
    started = time.perf_counter()
    if not (SRC / "rauzy" / "__init__.py").is_file():
        print(f"perfbench: no rauzy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rauzy
    if Path(rauzy.__file__).resolve().parent != SRC / "rauzy":
        print("perfbench: rauzy was not imported from src/", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: no workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], import_s,
                       rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, build, import_s: float, rundir: str) -> int:
    setups, digests = [], set()

    def set_up():
        t = time.perf_counter()
        workdir = os.path.join(rundir, f"setup{len(setups)}")
        os.mkdir(workdir)
        pipelines = build(args.seed, workdir)
        digests.add(digest_dir(workdir))
        run_batch(pipelines[:1], probe=False)
        setups.append(time.perf_counter() - t)
        return pipelines

    for _ in range(SETUPS_BEFORE):
        pipelines = set_up()
    until = time.perf_counter() + args.seconds
    if args.trace:
        untraced, batches, tracer = run_traced(pipelines, until)
    else:
        untraced, batches = [], run_batches(pipelines, until)
    everything = batches + untraced
    for _ in range(SETUPS_AFTER):
        set_up()
    setup_s = import_s + statistics.median(setups)

    sessions = [b.session for b in everything]
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    wrong = sum(s.wrong for s in sessions)
    reports = {s.reports.hexdigest() for s in sessions}
    work = [dict(s.work) for s in sessions]
    stable = len(reports) == 1 and all(w == work[0] for w in work) \
        and len(digests) == 1
    correct = wrong == 0 and stable

    probed = untraced if args.trace else batches
    print("perfbench inputs: " + json.dumps([
        {"pipeline": p.name, "top": p.top, **p.size,
         "median_s": statistics.median(b.times[i] for b in probed),
         "median_ref": statistics.median(b.norm[i] for b in probed)}
        for i, p in enumerate(pipelines)]))
    top = [i for i, p in enumerate(pipelines) if p.top]
    seconds = timings(probed, top, "times")
    refs = timings(probed, top, "norm")
    print("perfbench run: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "batches": len(probed),
        "pipelines": len(pipelines), "samples": len(probed) * len(pipelines),
        "batch_s": [round(b.wall, 3) for b in probed],
        "ref_s": statistics.median(r for b in probed for r in b.session.probes),
        **{f"{k}_s": v for k, v in seconds.items()},
        **{f"{k}_ref": v for k, v in refs.items()},
        "report_sha256": sorted(reports)[0], "inputs_sha256": sorted(digests)[0],
        "work": work[0]}, sort_keys=True))
    for s in sessions[:1]:
        for why in s.failures:
            print(f"perfbench: failed {why}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(args, batches, untraced, tracer, pipelines)
        correct = correct and metrics["trace.coverage"][0] >= COVERAGE
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (refs["wall"], "ref"),
            "largest_ref": (refs["largest"], "ref"),
            "ok_ratio": (1 - failed / attempted, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


WORK_METRICS = {
    "selectors.probes": "count", "selectors.probe_words": "count",
    "selectors.witness_patterns": "count", "cli.report_bytes": "bytes",
    "cli.steps": "count", "graphs.edges": "count",
    "measured.system_vars": "count", "measured.system_rows": "count",
    "measured.weight_bits": "bits", "actions.points": "count",
    "actions.merges": "count", "actions.window_words": "count",
    "patterns.configs": "count", "patterns.domain_words": "count",
    "patterns.roundtrips": "count", "special.window_words": "count",
    "special.returns": "count", "words.ball_words": "count",
}


def traced_metrics(args, batches, untraced, tracer, pipelines):
    """Per-layer metrics, medians over the traced batches (work counts are
    the same in every batch), and trace.coverage, the least share of a
    pipeline's step time that layer spans cover over every traced batch.
    Writes the spans and a per-pipeline table."""
    import spans

    spans_self = spans.self_times(tracer.spans)
    per_batch, coverage = [], 1.0
    for b in batches:
        m, c = layer_metrics(b, tracer, spans_self)
        per_batch.append(m)
        coverage = min(coverage, c)
    metrics = {k: (statistics.median(m[k] for m in per_batch),
                   "s" if k.endswith("_s") else "count") for k in per_batch[0]}
    work = dict(batches[0].session.work)
    n = len(batches)
    for key, value in tracer.work.items():
        work[key] = value // n
    for key, unit in WORK_METRICS.items():
        metrics[key] = (work.get(key, 0), unit)
    solves = work.get("measured.solves", 0)
    metrics["measured.solved_ratio"] = (
        work.get("measured.solved", 0) / solves if solves else 0.0, "1")
    # the first untraced batch runs cold; leave it out when there are others
    warm = untraced[1:] or untraced
    metrics["trace.overhead_s"] = (
        statistics.median(b.wall for b in batches)
        - statistics.median(b.wall for b in warm), "s")
    metrics["trace.spans"] = (batches[0].spans[1] - batches[0].spans[0], "count")
    metrics["trace.coverage"] = (coverage, "1")

    lo, hi = batches[0].spans
    table = {}
    for i in range(lo, hi):
        span = tracer.spans[i]
        row = table.setdefault(span[5], {})
        row[span[0]] = row.get(span[0], 0.0) + spans_self[i]
    with open(OUT / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"fields": ["layer", "name", "start", "end", "parent",
                              "pipeline", "error"],
                   "spans": tracer.spans,
                   "self_s_by_pipeline": table,
                   "inputs": [{"pipeline": p.name, **p.size} for p in pipelines]},
                  fh)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
