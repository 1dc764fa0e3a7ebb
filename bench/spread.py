"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload deep --seeds 1-10 [--seconds 54] [--trace 0]

Each seed is a separate `bench/run.py` process, run one after another.
For every metric the script prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. Each run's calibration
figures (start and end of the run) are printed beside its seed, so a run
made in a slow period of the machine shows. The per-run results and
calibrations are appended as JSON lines to bench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="54")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        suffix = "-trace" if args.trace == "1" else ""
        record = json.loads((out_dir / f"{args.workload}-seed{seed}{suffix}.json").read_text())
        calibration = record["calibration"]
        with open(out_dir / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, "calibration": calibration, **result}) + "\n")
        loops = " / ".join(f"{calibration[k]['python_loop_ms']:.1f}" for k in ("start", "end"))
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}, calibration loop start / end {loops} ms", file=sys.stderr)

    print(f"| metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {100 * spread:.1f}% |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
