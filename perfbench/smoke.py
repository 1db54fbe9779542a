"""Smoke test of the benchmark harness at tiny problem sizes.

    python3 perfbench/smoke.py

Runs every workload once, untraced and traced, and asserts that every
metric named in BENCHMARK.json is printed with its unit and that no
operation failed its correctness checks.  Then checks that the harness
refuses to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(spec, trace, problems):
    proc = run(["--workload", "all", "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    if proc.returncode != 0:
        problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} failed")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for w in spec["workloads"]:
        name = w["name"]
        if f"{name:10s} {'failed_frac':26s} 0 " not in proc.stdout:
            problems.append(f"trace {trace}: {name} failed_frac is not 0")
        for metric in wanted:
            got = result["metrics"].get(f"{name}.{metric['name']}")
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"trace {trace}: {name} {metric['name']} missing or "
                                f"not in {metric['unit']}: {got}")
            elif not any(line.startswith(f"{name:10s} {metric['name']:26s} ")
                         and line.endswith(f" {metric['unit']}") for line in lines):
                problems.append(f"trace {trace}: {name} {metric['name']} not printed")


def check_refuses_without_sources(spec, problems):
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=tmp)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("ran without the package sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    problems = []
    for trace in (0, 1):
        check_metrics(spec, trace, problems)
    check_refuses_without_sources(spec, problems)
    for prob in problems:
        print(f"FAIL {prob}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
