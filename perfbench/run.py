"""zdgecc benchmark: one command, four CLI workloads, every metric checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of a workload runs in a
fresh child interpreter (``perfbench/child.py``), started one at a time,
that drives ``zdgecc.cli.main(argv)``; every output is checked against the
pins.  With ``--trace 0`` passes repeat until ``--seconds`` are used and the
end-to-end metrics are medians over passes.  With ``--trace 1`` the run makes
one untraced pass, two traced passes (their exact counters must agree) and,
for ``survey-sweep``, one pool pass, and prints the per-layer metrics.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from child import steal_s  # noqa: E402
from workloads import WORKLOADS, ledger_subset  # noqa: E402

THREAD_CAPS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
EXACT_COUNTERS = (
    "exact_linalg.char_poly_calls", "exact_linalg.char_poly_distinct_ratio",
    "exact_linalg.char_poly_order_sum", "exact_linalg.root_candidates",
    "spectra.eigensolver_calls", "spectra.eigensolver_order3_sum",
    "graphs.build_calls", "eccentricity.matrix_calls", "eccentricity.cells",
    "claims.audit_calls", "claims.skipped_ratio",
    "survey.cache_hits", "survey.cache_misses",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def declared_units(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class Runner:
    """Starts pass children one at a time inside one scratch directory."""

    def __init__(self, root: Path, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
        for var in THREAD_CAPS:
            self.env[var] = "1"
        self.count = 0

    def run(self, argvs: list[list[str]] | None, trace: bool, out: Path | None,
            cpu: int | None = None) -> dict:
        """One child, pinned to ``cpu`` from before exec if given: setup time,
        then the items; returns the child's result.  Setup time, like the
        child's ``wall_s``, leaves out host steal on the child's CPUs."""
        self.count += 1
        tag = self.scratch / f"job{self.count}"
        job = {"items": argvs or [], "trace": trace, "setup_only": argvs is None,
               "result": f"{tag}.result.json", "spans": f"{tag}.spans.json"}
        cpus = {cpu} if cpu is not None else os.sched_getaffinity(0)
        Path(f"{tag}.json").write_text(json.dumps(job))
        if out is not None:
            out.mkdir(parents=True)
        steal0 = steal_s(cpus)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), f"{tag}.json"],
            cwd=out or self.scratch, env=self.env, stdout=subprocess.PIPE,
            start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0 - (steal_s(cpus) - steal0)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if ready.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"child exited with code {proc.returncode} before finishing")
        if argvs is None:
            return {"setup_s": setup}
        result = json.loads(Path(job["result"]).read_text())
        result["setup_s"] = setup
        result["total_s"] = time.perf_counter() - t0
        if trace:
            result["spans"] = json.loads(Path(job["spans"]).read_text())
        return result


def environment(root: Path, workers: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True).stdout.strip()
    versions = {}
    for pkg in ("numpy", "sympy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "thread_caps": {v: "1" for v in THREAD_CAPS},
            "survey_workers": workers, "commit": commit}


def measure(workload, runner: Runner, seed: int, seconds: float, workers: int):
    """Untraced passes until the time is used; end-to-end metrics as medians.

    Single-process passes take turns on the CPUs: host contention differs
    from one CPU to the next, and a run should sample all of them.  Times
    leave out host steal (see ``child.steal_s``): on a shared host it comes
    and goes with other tenants' load, not with the program.
    """
    specs = workload.plan(seed)
    cpus = [None] if workload.uses_pool else sorted(os.sched_getaffinity(0))
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        out = runner.scratch / f"pass{len(passes)}"
        cpu = cpus[len(passes) % len(cpus)]
        res = runner.run(workload.argv(specs, workers), False, out, cpu)
        a, f = workload.check(specs, out, res["codes"])
        attempted, failed = attempted + a, failed + f
        passes.append(res)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["total_s"] for p in passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.run(None, False, None, cpus[len(setups) % len(cpus)])["setup_s"])
    med = statistics.median
    walls = [p["wall_s"] - p["steal_s"] for p in passes]
    metrics = {
        "wall_s": med(walls),
        "items_per_s": med(a / w for w in walls),
        "setup_s": med(setups),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    info = {"items": [f"{n}/{v}" for n, v in specs], "items_per_pass": a,
            "pass_wall_s": walls, "pass_steal_s": [p["steal_s"] for p in passes],
            "setups_s": setups}
    return metrics, attempted, failed, info


def _same_bytes(a: Path, b: Path) -> int:
    """Report files that differ between two pass directories."""
    names = sorted(p.name for p in a.iterdir() if p.is_file())
    return sum((a / n).read_bytes() != (b / n).read_bytes() for n in names)


def measure_traced(workload, runner: Runner, seed: int, workers: int):
    """Untraced and traced passes on one worker; per-layer metrics."""
    specs = workload.plan(seed)
    attempted = failed = 0
    runs, dirs = {}, {}
    plan = [("base", False, 1), ("traced", True, 1), ("again", True, 1)]
    if workload.name == "survey-sweep":
        plan.append(("pool", False, workers))
    for label, trace, w in plan:
        out = dirs[label] = runner.scratch / label
        runs[label] = runner.run(workload.argv(specs, w), trace, out)
        a, f = workload.check(specs, out, runs[label]["codes"])
        attempted, failed = attempted + a, failed + f
    diff = _same_bytes(dirs["base"], dirs["traced"]) + _same_bytes(dirs["base"], dirs["again"])
    if diff:
        print(f"error: {diff} report files differ with the wrappers on", file=sys.stderr)
    failed += diff
    spans = runs["traced"]["spans"]
    metrics, self_total, record_s = tracing.layer_metrics(spans)
    again, _, _ = tracing.layer_metrics(runs["again"]["spans"])
    unsteady = [k for k in EXACT_COUNTERS if metrics[k] != again[k]]
    if unsteady:
        print(f"error: counters differ between traced passes: {unsteady}", file=sys.stderr)
    failed += len(unsteady)
    pool = runs.get("pool")
    metrics["survey.cold_pass_s"] = pool["item_s"][0] if pool else 0.0
    metrics["survey.warm_pass_s"] = pool["item_s"][1] if pool else 0.0
    metrics["survey.parallel_efficiency"] = (
        record_s / (workers * pool["item_s"][0]) if pool else 0.0
    )
    traced_wall = runs["traced"]["wall_s"]
    metrics["trace.coverage"] = self_total / traced_wall
    metrics["trace.overhead_s"] = (
        traced_wall - runs["traced"]["steal_s"]
        - (runs["base"]["wall_s"] - runs["base"]["steal_s"])
    )
    info = {"items": [f"{n}/{v}" for n, v in specs], "spans": len(spans),
            "traced_wall_s": traced_wall}
    return metrics, attempted, failed, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zdgecc" / "cli.py").is_file():
        print(f"error: no zdgecc source under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    units = declared_units(root, bool(args.trace))
    workload = WORKLOADS[args.workload]
    workers = min(2, os.cpu_count() or 1)
    scratch = root / ".bench_run" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        runner = Runner(root, scratch)
        if args.trace:
            metrics, attempted, failed, info = measure_traced(
                workload, runner, args.seed, workers)
        else:
            metrics, attempted, failed, info = measure(
                workload, runner, args.seed, args.seconds, workers)
        ledger_ok = ledger_subset(root)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if not ledger_ok:
        print("error: expected_refutations.json is not a subset of the pinned "
              "refutations", file=sys.stderr)
        failed += 1
    print(json.dumps({"workload": workload.name, "seed": args.seed, **info,
                      "env": environment(root, workers)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
