"""Child process: run one workload's jobs through ``smhd.cli.main``.

Usage: python3 runner.py SPEC.json RESULT.json

SPEC names the checkout root, the jobs (name and argv without
``--out``), the output directory, the time budget and whether to trace.
The process imports ``smhd.cli`` from ``<root>/src`` once, runs a
warm-up pass, then timed passes until the next one would end past the
budget (at least one).  With tracing, each timed pass is an untraced
pass followed by a traced one, and the span aggregates of the last
traced pass are kept.  Outputs are checked by the parent afterwards, so
this process's peak resident memory is the program's alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, span_metrics


def run_job(argv: list[str], out: Path) -> dict:
    import smhd.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            # Looked up per call, so that a traced pass calls the wrapped main.
            code = smhd.cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # one failed job is recorded, the pass goes on
            traceback.print_exc()
            code = None
    return {"code": code, "out": str(out), "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()[-4000:]}


def run_pass(jobs: list[dict], out: Path, kind: str, cpu: int, tracer=None) -> dict:
    os.sched_setaffinity(0, {cpu})
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job["name"])
        results.append({"name": job["name"], **run_job(job["argv"], out / job["name"])})
    return {"kind": kind, "cpu": cpu, "seconds": time.perf_counter() - t0, "jobs": results}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import smhd.cli

    if Path(smhd.__file__).resolve().parent != (src / "smhd").resolve():
        print(f"runner: imported smhd from {smhd.__file__}, not from {src}", file=sys.stderr)
        return 3

    jobs, out, budget = spec["jobs"], Path(spec["out"]), float(spec["seconds"])
    # Each CPU of a shared host slows down on its own for tens of seconds at a
    # time, so consecutive passes (pairs, when tracing) alternate between CPUs.
    cpus = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    passes = [run_pass(jobs, out / "p0", "warmup", cpus[0])]
    trace = None
    while True:
        k = len(passes)
        if spec["trace"]:
            cpu = cpus[(k // 2) % len(cpus)]
            plain = run_pass(jobs, out / f"p{k}", "untraced", cpu)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(jobs, out / f"p{k + 1}", "traced", cpu, tracer)
            finally:
                tracer.uninstall()
            agg = tracer.aggregate()
            counts = tracer.totals()
            trace = {"aggregate": agg, "counts": counts, "absent": tracer.absent,
                     "hook_errors": sorted(tracer.hook_errors),
                     "jobs": tracer.job_names,
                     "metrics": span_metrics(agg, counts)}
            passes += [plain, traced]
            last = plain["seconds"] + traced["seconds"]
        else:
            passes.append(run_pass(jobs, out / f"p{k}", "timed", cpus[k % len(cpus)]))
            last = passes[-1]["seconds"]
        if time.perf_counter() - t_start + last > budget:
            break

    result = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "smhd": smhd.__version__},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "trace": trace,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
