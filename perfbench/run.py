"""smhd benchmark: run one workload, check its outputs, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload shock2d --seed 1 --seconds 36 --trace 0

The workload's jobs are generated from the seed into a scratch directory
under ``perfbench/.work`` (removed afterwards) and run through
``smhd.cli.main`` in one fresh child process (``runner.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass.  The line
before it holds the detail: seed, config hash, machine, code, pass times
and any failed check.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 4  # before and again after the workload, so two time windows are sampled
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Bytecode caches on, as after an install, so setup_s does not depend on the caller's shell.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def time_setup(env: dict, warm: bool) -> list[float]:
    """Wall times of fresh interpreters that import smhd.cli and exit.

    With ``warm``, one untimed interpreter runs first (it may write the
    bytecode caches, which users have after their first call).
    """
    cmd = [sys.executable, "-c", "import smhd.cli"]
    if warm:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def import_spans(env: dict) -> dict[str, tuple[float, str]]:
    """Import-time layers of ``import smhd.cli`` from ``python -X importtime``, medians."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import smhd.cli"],
                              env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        self_us: dict[str, int] = {}
        cumulative_us: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                own, cum = int(parts[0].split(":")[1]), int(parts[1])
            except ValueError:  # the header line
                continue
            name = parts[2].strip()
            self_us[name] = own
            cumulative_us[name] = cum
        runs.append({
            "import.total_s": sum(self_us.values()) * 1e-6,
            "import.numpy.s": cumulative_us.get("numpy", 0) * 1e-6,
            "import.scipy_linalg.s": cumulative_us.get("scipy.linalg", 0) * 1e-6,
            "import.smhd.self_s": sum(v for k, v in self_us.items()
                                      if k == "smhd" or k.startswith("smhd.")) * 1e-6,
        })
    return {k: (statistics.median(r[k] for r in runs), "s") for k in runs[0]}


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "blas_threads": BLAS_THREADS}


def code_identity() -> dict:
    files = sorted((ROOT / "src" / "smhd").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines[f.name] = data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "wc_l": {**lines, "total": sum(lines.values())}}


def run_child(spec: dict, work: Path, timeout: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "runner.py"), str(spec_path),
                           str(result_path)], env=child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_passes(jobs: list, passes: list) -> tuple[int, int, list[str]]:
    by_name = {job.name: job for job in jobs}
    attempted = failed = 0
    problems = []
    for k, p in enumerate(passes):
        for res in p["jobs"]:
            job = by_name[res["name"]]
            attempted += 1
            found = checks.check_job(job.kind, job.doc, res["code"], Path(res["out"]),
                                     res["stdout"])
            if found:
                failed += 1
                problems.append(f"pass {k} {job.name}: {'; '.join(found)} "
                                f"{res['stderr'][-500:]}".strip())
    return attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_begin = time.perf_counter()

    if not (ROOT / "src" / "smhd" / "cli.py").is_file():
        print(f"run.py: no smhd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        jobs, config_hash = workloads.build(args.workload, args.seed, work / "configs")
        env = child_env()
        setup = time_setup(env, warm=True)
        layers = import_spans(env) if args.trace else {}
        spec = {"root": str(ROOT), "out": str(work / "out"), "seconds": args.seconds,
                "trace": bool(args.trace),
                "jobs": [{"name": j.name, "argv": j.argv} for j in jobs]}
        remaining = DEADLINE_S - (time.perf_counter() - t_begin)
        result = run_child(spec, work, timeout=remaining)
        setup += time_setup(env, warm=False)
        attempted, failed, problems = check_passes(jobs, result["passes"])
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    detail = {
        "workload": args.workload, "seed": args.seed, "config_sha256": config_hash,
        "trace": args.trace, "seconds": args.seconds,
        "machine": {**machine(), **result["versions"]}, "code": code_identity(),
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("kind", "cpu", "seconds")} for p in passes],
        "attempted": attempted, "failed": failed, "problems": problems[:20],
    }
    ok = failed == 0
    if args.trace:
        trace = result["trace"]
        plain = [p["seconds"] for p in passes if p["kind"] == "untraced"]
        traced = [p["seconds"] for p in passes if p["kind"] == "traced"]
        metrics = {**trace["metrics"], **layers,
                   "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain)
                                           - 1.0, "fraction")}
        problems_trace = trace["aggregate"]["problems"] + trace["hook_errors"]
        if len(trace["aggregate"]["roots"]) != len(trace["jobs"]) or \
                set(trace["aggregate"]["root_names"]) - {"cli.main"}:
            problems_trace.append("traced spans are not one cli.main tree per job")
        per_call = {name: v["per_call_us"] for name, v in trace["aggregate"]["per_name"].items()
                    if "per_call_us" in v}
        detail.update({"absent": trace["absent"], "trace_problems": problems_trace,
                       "counts": trace["counts"], "per_call_us": per_call})
        ok = ok and not problems_trace
    else:
        timed = [p["seconds"] for p in passes if p["kind"] == "timed"]
        metrics = {
            "wall_s": (statistics.median(timed), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            "pass_frac": (1.0 - failed / attempted, "fraction"),
        }
        detail.update({"timed_passes": len(timed), "wall_min_s": min(timed)})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
