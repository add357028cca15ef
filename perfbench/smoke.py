"""Smoke run of the benchmark: every workload briefly, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 and that its last line is a result whose
`attempted` and `failed` counts are present and whose metrics are exactly
the ones BENCHMARK.json declares for that mode, each with its unit.  It also
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 if anything is wrong.  Takes about five minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 900


def result_problems(stdout: str, declared: list[dict], untraced: bool) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted = {attempted!r}")
    if not isinstance(failed, int) or not 0 <= failed <= (attempted or 0):
        problems.append(f"failed = {failed!r}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"metrics {sorted(metrics)} != declared")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or (untraced and not value > 0):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def refuses_without_program(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, with no result."""
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = refuses_without_program(spec)
    print(f"bare directory refused: {not failures}", flush=True)
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(spec["command"] + ["--workload", workload["name"], "--seed", "0",
                                                     "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
            problems = ([f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode
                        else result_problems(proc.stdout, declared, untraced=not trace))
            label = f"{workload['name']} --trace {trace}"
            print(f"{label}: {'ok' if not problems else 'FAILED'}", flush=True)
            failures += [f"{label}: {p}" for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
