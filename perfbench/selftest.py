#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs end to end at tiny size, untraced and traced, and
   its last line is a correct result carrying exactly the metrics that
   BENCHMARK.json names, with the same units.
2. The replay check passes on a real CSV and fails when one row is altered.
3. Without the program's sources the benchmark exits non-zero and prints no
   result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracing import Tracer

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_names() -> dict[str, dict[str, str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }
    check(declared["end_to_end"] == run.END_TO_END,
          "end-to-end metrics and units match BENCHMARK.json")
    check(declared["per_layer"] == run.PER_LAYER,
          "per-layer metrics and units match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
          "workloads match BENCHMARK.json")
    return declared


def check_runs(declared: dict[str, dict[str, str]]) -> None:
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} --trace {trace}"
            proc = bench(["--workload", name, "--seed", "1", "--seconds", "0",
                          "--trace", str(trace), "--tiny"], run.ROOT)
            check(proc.returncode == 0, f"{label} exits 0 ({proc.stderr[-300:]!r})")
            if proc.returncode:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label} result has exactly the four keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} is correct ({proc.stderr[-300:]!r})")
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            check(units == declared[key], f"{label} emits exactly the {key} metrics")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label} metric values are numbers")


def check_replay_gate() -> None:
    w = workloads.make("poisson", seed=1, tiny=True)
    out = run.STATE / "selftest-replay"
    shutil.rmtree(out, ignore_errors=True)
    try:
        w.run_inprocess(1, out)
        text = run.csv_text(run.artifacts(out))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rows = w.replay(Tracer(True))
    check(workloads.replay_mismatch(rows, text, partial=False) is None,
          "full replay reproduces the run's CSV")
    check(workloads.replay_mismatch(rows[:3], text, partial=True) is None,
          "partial replay finds its rows in the run's CSV")
    lines = text.splitlines(keepends=True)
    fields = lines[2].rstrip("\n").split(",")
    fields[1] = str(int(fields[1]) + 1)  # one more loop in replicate 1
    lines[2] = ",".join(fields) + "\n"
    altered = "".join(lines)
    check(workloads.replay_mismatch(rows, altered, partial=False) is not None,
          "full replay check fails on an altered row")
    check(workloads.replay_mismatch(rows[:3], altered, partial=True) is not None,
          "partial replay check fails on an altered row")


def check_bare_directory() -> None:
    bare = run.STATE / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "poisson", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without sources: non-zero exit and no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = check_names()
    check_replay_gate()
    check_bare_directory()
    check_runs(declared)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
