"""Paired benchmark of two commits: parent and change, run alternately.

Usage (from the root of a checkout):

    python3 tools/bench_pair.py --parent HEAD~1 --change HEAD \\
        --pairs shock2d=10 small-grids=5 sweeps=5 --out BENCH_15.json --about "..."

Each commit is exported with ``git archive`` into a clean directory, and
the benchmark command of the change's ``BENCHMARK.json`` (the unchanged
``perfbench/run.py``) runs there with ``--trace 0``.  Pair i of a workload
uses seed i on both sides; odd pairs run the parent first, even pairs the
change, so slow phases of a shared host fall on both sides alike.  The
output holds every run's end-to-end metrics, the line counts of
``src/smhd/*.py`` on each side, and per workload and metric the median and
inclusive-method quartiles of each side, the median ratio change / parent
and the number of pairs the change won (ties count for neither side).
``--trace WORKLOAD=SEED`` adds one ``--trace 1`` run per side, whose
per-layer metrics go under ``trace_<workload>_seed<seed>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> Path:
    """A clean copy of the committed files of ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), rev],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def line_counts(copy: Path) -> dict[str, int]:
    counts = {p.name: p.read_bytes().count(b"\n")
              for p in sorted((copy / "src" / "smhd").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def run_once(copy: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """(detail, result) lines that one benchmark run prints."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=copy, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {copy}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "n": len(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {(r["side"], r["seed"]): r for r in mine}
        seeds = sorted({r["seed"] for r in mine})
        entry = {"failed_checks": {side: sum(r["failed"] for r in mine if r["side"] == side)
                                   for side in SIDES}}
        for metric, direction in better.items():
            values = {side: [by_seed[side, s]["metrics"][metric] for s in seeds]
                      for side in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            stats = {side: side_stats(values[side]) for side in SIDES}
            entry[metric] = {**stats, "change_better_pairs": f"{won}/{len(seeds)}",
                             "median_ratio_change_over_parent":
                                 stats["change"]["median"] / stats["parent"]["median"]}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD=SEED")
    ap.add_argument("--about", default="", help="one paragraph on what was compared")
    args = ap.parse_args(argv)
    pairs = {w: int(n) for w, n in (item.split("=") for item in args.pairs)}
    traces = [(w, int(seed)) for w, seed in (item.split("=") for item in args.trace)]

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        copies = {side: export(rev, Path(tmp) / side)
                  for side, rev in zip(SIDES, (args.parent, args.change))}
        bench = json.loads((copies["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        runs, machine = [], None
        for workload, count in pairs.items():
            for seed in range(1, count + 1):
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    detail, result = run_once(copies[side], bench["command"], workload, seed,
                                              bench["run_seconds"])
                    machine = machine or detail["machine"]
                    runs.append({"failed": result["failed"],
                                 "metrics": {k: v["value"]
                                             for k, v in result["metrics"].items()},
                                 "seed": seed, "side": side, "workload": workload})
                    print(f"{workload} seed {seed} {side}: {runs[-1]['metrics']}",
                          file=sys.stderr, flush=True)
        traced = {f"trace_{w.replace('-', '_')}_seed{seed}":
                  {side: {k: v["value"] for k, v in run_once(
                      copies[side], bench["command"], w, seed, bench["run_seconds"],
                      trace=1)[1]["metrics"].items()} for side in SIDES}
                  for w, seed in traces}
        doc = {
            "about": args.about,
            "command": " ".join(bench["command"]) + " --workload {" + ",".join(pairs) +
                       "} --seed N --seconds " + f"{bench['run_seconds']:g} --trace 0",
            "machine": machine,
            "revisions": {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev],
                                               check=True, capture_output=True,
                                               text=True).stdout.strip()
                          for side, rev in zip(SIDES, (args.parent, args.change))},
            "runs": runs,
            "src_wc_l": {side: line_counts(copies[side]) for side in SIDES},
            "summary": summarize(runs, better),
            **traced,
        }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
