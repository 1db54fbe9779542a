"""causalkit benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is built or installed.  Each workload runs in a fresh
child process with BLAS/OpenMP pinned to one thread and
CAUSALKIT_THREADS unset, so a workload's own `threads` setting is the
only parallelism.  Set-up time is the median over several fresh
processes.  Request times are corrected for the shared host's changing
speed by a probe run between requests (see hostspeed.py), and each
query counts at its median time over the run.  Every result is checked
against a closed form or an independent reference; failures are
counted, not hidden.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer split.
Results and spans are also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scenarios", "flow_scan", "large_n", "pointwise")

# fresh processes timed for set-up, besides the measuring one
SETUP_RUNS = 6
# a run must end within 180 s; its child processes share this budget
RUN_BUDGET_S = 170

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dp.grid_s": "s", "dp.polish_s": "s", "dp.polish_useful_frac": "ratio",
    "dp.margins_s": "s", "dp.margins_rows": "count", "dp.rows_per_s": "1/s",
    "dp.near_zero_frac": "ratio", "dp.check_ms.p50": "ms", "dp.check_calls": "count",
    "dp.eigen_s": "s", "dp.quad_s": "s", "dp.quad_rows": "count",
    "dp.parallel_eff": "ratio", "mem.grid_temp_mb": "MB",
    "lorentz.frames_s": "s", "lorentz.frames_calls": "count", "lorentz.classify_s": "s",
    "exprcore.eval_s": "s", "exprcore.calls": "count",
    "relate.check_s": "s", "relate.checks": "count", "relate.self_s": "s",
    "relate.sampler_s": "s",
    "flows.submonoid_s": "s", "flows.checks_per_scan": "count", "flows.nullcone_s": "s",
    "catalog.builtin_s": "s", "catalog.scenario_self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def pinned_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CAUSALKIT_THREADS", None)
    return env


def child(args, deadline):
    """Run worker.py with `args` in a fresh process; its last JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, tiny):
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    setups = [child(common + ["--setup-only"], deadline) for _ in range(SETUP_RUNS)]
    OUT.mkdir(exist_ok=True)
    tag = f"{name}_seed{seed}_trace{trace}"
    extra = ["--spans", str(OUT / f"spans_{tag}.jsonl")] if trace else []
    res = child(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                deadline)
    setups.append(res)
    res["setup_runs_s"] = [r["setup_s"] for r in setups]
    res["setup_raw_runs_s"] = [r["setup_raw_s"] for r in setups]
    if trace:
        metrics = {k: res["layers"][k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {k: res[k] for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(res["setup_runs_s"])
        units = END_TO_END
    res["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    (OUT / f"result_{tag}.json").write_text(json.dumps(res, indent=2) + "\n")
    return res


def report(name, res, trace):
    m = res["machine"]
    print(f"# machine: nproc={m['nproc']} usable={m['cpus_usable']} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} threads={m['workload_threads']} "
          f"sizes={json.dumps(m['sizes'])}")
    print(f"# {name}: {res['passes']} {'traced ' if trace else ''}passes, "
          f"{res.get('queries', '-')} queries ({res.get('distinct_queries', '-')} distinct), "
          f"setup runs {len(res['setup_runs_s'])}")
    if not trace:
        print(f"# {name}: host speed {res['host_speed']:.3f} of reference, "
              f"uncorrected wall_s {res['raw_wall_s']:.6g} s, "
              f"uncorrected setup_s {statistics.median(res['setup_raw_runs_s']):.6g} s")
    for key, v in res["metrics"].items():
        print(f"{name:10s} {key:26s} {v['value']:.6g} {v['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"{name:10s} {'failed_frac':26s} {frac:.6g} (of {res['attempted']} operations)")
    for prob in res["problems"]:
        print(f"# FAILED {prob}")
    for miss in res.get("missing", ()):
        print(f"# trace: {miss} not found, its span metrics read 0")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test problem sizes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "causalkit" / "__init__.py").is_file():
        print(f"error: no causalkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            report(name, res, args.trace)
            attempted += res["attempted"]
            failed += res["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
