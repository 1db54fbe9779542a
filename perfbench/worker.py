"""Run one workload in this process and print its measurements.

`run.py` starts this script in a fresh process with a pinned
environment; the last line of standard output is one JSON object.  With
`--setup-only` it stops after set-up and reports only the set-up time.

    python3 perfbench/worker.py --workload scenarios --seed 1 --seconds 28 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# failed checks listed in the output; the count covers all of them
MAX_PROBLEMS = 8
# probe readings that set the host speed for the set-up time
SETUP_PROBE_READS = 5


def _plain(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _machine(np, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "CAUSALKIT_THREADS")},
        "workload_threads": workload.threads,
        "sizes": workload.sizes,
    }


class Tally:
    """Latency, points and check outcomes over the requests of a run."""

    def __init__(self):
        self.latencies = []
        self.starts = []
        self.labels = []
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.results = {}

    def record(self, req, out, start, dt):
        self.latencies.append(dt)
        self.starts.append(start)
        self.labels.append(req.label)
        self.points += req.points
        self.results[req.label] = out
        self.outcome(req.label, req.check(out))

    def outcome(self, label, probs):
        self.attempted += 1
        if probs:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{label}: {'; '.join(probs)}")


def run_pass(requests, call, tally, probe=None):
    """One pass over `requests`; returns its wall time.

    The checks, and the host-speed probe if one is given, run between
    requests but outside their timing.
    """
    wall = 0.0
    for req in requests:
        start = time.perf_counter()
        out = req.run(call)
        dt = time.perf_counter() - start
        wall += dt
        if probe is not None:
            probe.read()
        tally.record(req, out, start, dt)
    return wall


def measure(workload, seconds, tally, probe):
    """Untraced passes until the next one would overrun `seconds`."""
    walls = []
    passes = workload.passes()
    probe.read()
    start = time.perf_counter()
    while True:
        walls.append(run_pass(next(passes), _plain, tally, probe))
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls


def measure_traced(workload, seconds, tally, tracer):
    """Alternate untraced and traced passes; spans come from the latter."""
    untraced, traced = [], []
    passes = workload.passes()
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(next(passes), _plain, tally))
        tracer.reset_capture()
        tracer.install()
        try:
            traced.append(run_pass(next(passes), tracer.call, tally))
        finally:
            tracer.uninstall()
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            return untraced, traced


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def query_times(tally, probe):
    """Each distinct query's median time over its repeats in the run.

    Times are corrected to the reference host speed.  A query made once
    (the pointwise stream) keeps its own time.  Returns {label: seconds}.
    """
    by_label = {}
    for label, start, dt in zip(tally.labels, tally.starts, tally.latencies):
        by_label.setdefault(label, []).append(probe.correct(start, dt))
    return {label: statistics.median(dts) for label, dts in by_label.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file that receives the traced spans")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hostspeed
    import workloads

    workload = workloads.build(args.workload, args.seed, tiny=args.tiny)
    workload.warmup()
    setup_raw_s = time.perf_counter() - start
    # set-up is corrected to the reference host speed like the requests
    probe = hostspeed.Probe()
    for _ in range(SETUP_PROBE_READS):
        probe.read()
    setup_s = setup_raw_s * hostspeed.REF_S / statistics.median(probe.times)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tally = Tally()
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
           "machine": _machine(np, workload)}
    if args.trace:
        import causalkit.dp
        import spans as tracing

        tracer = tracing.Tracer()
        untraced, traced = measure_traced(workload, args.seconds, tally, tracer)
        dp2_margins = getattr(causalkit.dp, "dp2_margins", None)
        replay = tracing.replay_grid(tracer, dp2_margins) if dp2_margins else {}
        grid = getattr(causalkit.dp, "sphere_directions", None)
        out["layers"] = tracing.layer_metrics(
            tracer, traced, untraced, replay, causalkit.dp.TOL_DP,
            lambda d: len(grid(d)) if grid else 0)
        out["missing"] = tracer.missing
        out["passes"] = len(traced)
        if args.spans:
            tracer.write(args.spans)
    else:
        walls = measure(workload, args.seconds, tally, probe)
        per_query = query_times(tally, probe)
        # the run's work, each request at its query's median time
        busy = sum(per_query[label] for label in tally.labels)
        lat_ms = [t * 1e3 for t in per_query.values()]
        out.update({
            "passes": len(walls),
            "raw_wall_s": sum(walls) / len(walls),
            "host_speed": hostspeed.REF_S / statistics.median(probe.times),
            # every request and probe reading, to check the correction by
            "timeline": {"labels": tally.labels, "starts": tally.starts,
                         "dts": tally.latencies, "probe_ends": probe.ends,
                         "probe_s": probe.times},
            "wall_s": busy / len(walls),
            "points_per_s": tally.points / busy,
            "queries": len(tally.labels),
            "distinct_queries": len(lat_ms),
            "query_ms.p50": statistics.median(lat_ms),
            "query_ms.p90": _percentile(lat_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })

    # the enumeration cross-check is slow, so it runs after the timing
    for i, prob in enumerate(workload.reference(tally.results)):
        tally.outcome(f"reference#{i}", [prob] if prob else [])
    out.update({"attempted": tally.attempted, "failed": tally.failed,
                "problems": tally.problems})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
