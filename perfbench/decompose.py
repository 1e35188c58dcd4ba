"""Full component decompositions through ``largest_component_via_exploration``.

No pairlab harness mode reaches this path, so the benchmark drives it with
this small command-line program, shaped like ``pairlab run`` / ``describe``:

    python3 perfbench/decompose.py run -c CONFIG --workers W -o OUT_DIR
    python3 perfbench/decompose.py describe -c CONFIG

CONFIG is JSON ``{"n": ..., "d": ..., "replicates": ..., "seed": ...}``: the
d-regular sequence on n vertices, decomposed once per replicate with
``substream(seed, 0, replicate)``.  ``run`` writes one CSV row per replicate
(replicate, components, largest, total) and exits 0 only if every
decomposition's sizes sum to n.  The rows do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HEADER = ["replicate", "components", "largest", "total"]


def load_config(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    for key in ("n", "d", "replicates", "seed"):
        if not isinstance(data.get(key), int) or data[key] < 0:
            raise ValueError(f"{key}: non-negative integer required")
    return data


def degree_sequence(config: dict):
    from pairlab import DegreeSequence

    return DegreeSequence((config["d"],) * config["n"])


def row(replicate: int, sizes: list[int]) -> list[int]:
    return [replicate, len(sizes), max(sizes), sum(sizes)]


def _chunk(task: tuple) -> list[list[int]]:
    from pairlab import largest_component_via_exploration, substream

    config, lo, hi = task
    seq = degree_sequence(config)
    return [
        row(rep, largest_component_via_exploration(seq, substream(config["seed"], 0, rep)))
        for rep in range(lo, hi)
    ]


def run(config: dict, workers: int, out_dir: str | Path) -> Path:
    """Decompose every replicate, write the CSV and return its path."""
    reps = config["replicates"]
    size = math.ceil(reps / max(1, min(reps, workers * 4)))
    tasks = [(config, lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    if workers <= 1:
        chunks = [_chunk(task) for task in tasks]
    else:
        # the pool pairlab's harness uses; it joins its workers on exit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk, tasks))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"decompose_seed{config['seed']}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for chunk in chunks:
            writer.writerows(chunk)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="decompose")
    parser.add_argument("command", choices=["run", "describe"])
    parser.add_argument("-c", "--config", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("-o", "--output", default="out")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        seq = degree_sequence(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "describe":
        print(json.dumps({"n": seq.n, "two_m": seq.two_m}))
        return 0
    path = run(config, args.workers, args.output)
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    passed = all(int(r[3]) == config["n"] for r in rows)
    print(json.dumps({"passed": passed, "rows": len(rows)}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
