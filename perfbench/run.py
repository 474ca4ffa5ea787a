"""wavedecay benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
workloads.py, or ``all`` to run each in turn.  Every pass runs in a fresh
process (worker.py) with its own output and cache directory under
``.perfbench_runs/``; passes run one after another.

With ``--trace 0`` the run measures passes until the next one would end
after S seconds (at least one), with set-up-only processes before each
pass and in the time left at the end, and reports the end-to-end metrics.  With ``--trace 1`` it runs one plain and
one traced pass and reports the per-layer metrics.  Either way every pass
is checked against the stored reference for the seed.  The last line of
standard output is the JSON result; the lines before it are for people.

Times are reported at a fixed reference speed: each process's wall time
and set-up time are multiplied by ``REF_GAUGE_S`` over the mean of the
speed gauge worker.py samples on that process's own core.  The raw times
are kept next to them in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
from tracer import per_layer_names, unit_of
from workloads import C_SHIFTS, WORKLOADS, variant

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
CONFIG = BENCH / "bench.ini"
REFERENCE = BENCH / "reference" / "bench"
# BLAS/OpenMP threads per pass; 2 threads gave no gain on the LU solve
THREADS = 1
# set-up-only processes before each pass
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
# the speed gauge's mean time at the reference speed: about its median on
# the 2-core box the benchmark was built on
REF_GAUGE_S = 4.0e-4
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child_env(scratch):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch),
               OPENBLAS_NUM_THREADS=str(THREADS), OMP_NUM_THREADS=str(THREADS),
               MKL_NUM_THREADS=str(THREADS))
    return env


def at_ref_speed(seconds, gauge_s):
    """A time taken while the speed gauge read gauge_s, rescaled to the
    reference speed."""
    return seconds * REF_GAUGE_S / gauge_s


def run_child(workload, seed, config, mode="pass", trace=0):
    """(wall seconds from launch to exit at the reference speed, result
    dict) of one process; the result also gets the raw times."""
    RUNS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS)
    try:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
               workload, "--config", str(config), "--seed", str(seed),
               "--dir", work, "--mode", mode, "--trace", str(trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(work),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} process exited with "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        result["raw_wall_s"] = wall
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] = at_ref_speed(result["setup_s"],
                                         result["setup_gauge_s"])
        return at_ref_speed(wall, result["gauge_s"]), result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_reference(workload, seed, root=REFERENCE):
    path = Path(root) / workload / f"variant-{variant(seed)}.json"
    if not path.exists():
        raise BenchError(f"no stored reference {path}")
    with open(path) as fh:
        return json.load(fh)["outputs"]


def run_workload(workload, seed, seconds, trace, config=CONFIG,
                 reference_root=REFERENCE):
    """Measure one workload; returns the result record."""
    reference = load_reference(workload, seed, reference_root)
    start = time.perf_counter()
    passes = []                        # (wall, result, traced)
    setups = []
    if trace:
        passes.append((*run_child(workload, seed, config), False))
        passes.append((*run_child(workload, seed, config, trace=1), True))
    else:
        def probe():
            _, result = run_child(workload, seed, config, "setup")
            setups.append(result["setup_s"])
            return result["raw_wall_s"]

        # set-up probes go before every pass and fill the end of the run,
        # so their median spans the run's whole window
        while True:
            batch = sum(probe() for _ in range(SETUP_PROBES))
            passes.append((*run_child(workload, seed, config), False))
            walls = [p[1]["raw_wall_s"] for p in passes]
            if time.perf_counter() - start + statistics.median(walls) \
                    + batch > seconds:
                break
        probe_s = batch / SETUP_PROBES
        while time.perf_counter() - start + probe_s <= seconds:
            probe_s = probe()

    attempted, failed, worst = 0, [], 0.0
    for _, result, _ in passes:
        n, bad, dev = gate.compare(result["outputs"], reference)
        attempted += n
        failed += bad
        worst = max(worst, dev)

    plain = [(w, r) for w, r, traced in passes if not traced]
    if trace:
        wall, result = next((w, r) for w, r, traced in passes if traced)
        metrics = dict(result["trace"])
        metrics["trace.overhead_s"] = wall - statistics.median(
            w for w, _ in plain)
        metrics = {k: {"value": metrics[k], "unit": unit_of(k)}
                   for k in per_layer_names()}
    else:
        values = {
            "wall_s": statistics.median(w for w, _ in plain),
            "setup_s": statistics.median(
                setups + [r["setup_s"] for _, r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for _, r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    first = passes[0][1]
    return {
        "workload": workload, "seed": seed, "variant": variant(seed),
        "c": first["c"], "trace": trace, "seconds": seconds,
        "environment": {"nproc": os.cpu_count(),
                        "cpus_allowed": len(os.sched_getaffinity(0)),
                        "threads": THREADS, "seed": seed,
                        **first["environment"]},
        "passes": [{"wall_s": w, "setup_s": r["setup_s"],
                    "raw_wall_s": r["raw_wall_s"],
                    "raw_setup_s": r["raw_setup_s"], "gauge_s": r["gauge_s"],
                    "gauge_samples": r["gauge_samples"],
                    "peak_rss_mb": r["peak_rss_mb"], "traced": t,
                    "step_s": r["step_s"]} for w, r, t in passes],
        "setup_probes_s": setups,
        "checks_attempted": attempted, "checks_failed": len(failed),
        "failed_checks": failed,
        "max_relative_deviation": worst,
        "missing_trace_targets": next(
            (r["missing_targets"] for _, r, t in passes if t), []),
        "spans": next((r["spans"] for _, r, t in passes if t), {}),
        "metrics": metrics,
    }


def report(rec):
    """Human-readable lines for one workload record."""
    print(f"== {rec['workload']}  seed {rec['seed']} (c = {rec['c']!r}, "
          f"shift {C_SHIFTS[rec['variant']]:+.3f})  trace {rec['trace']}")
    print("environment " + json.dumps(rec["environment"]))
    for i, p in enumerate(rec["passes"]):
        steps = " ".join(f"{k}={v:.2f}s" for k, v in p["step_s"].items())
        print(f"pass {i}{' (traced)' if p['traced'] else ''}: "
              f"wall {p['wall_s']:.3f} s (raw {p['raw_wall_s']:.3f} s), "
              f"setup {p['setup_s']:.3f} s (raw {p['raw_setup_s']:.3f} s), "
              f"gauge {p['gauge_s'] * 1e6:.0f} us x {p['gauge_samples']}, "
              f"peak rss {p['peak_rss_mb']:.1f} MB; {steps}")
    for name, m in rec["metrics"].items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"{'checks_attempted':44s} {rec['checks_attempted']:14d} count")
    print(f"{'checks_failed':44s} {rec['checks_failed']:14d} count")
    print(f"max relative deviation from reference "
          f"{rec['max_relative_deviation']:.3g} (diagnostic)")
    for cid in rec["failed_checks"][:20]:
        print(f"FAILED {cid}")
    for name in rec["missing_trace_targets"]:
        print(f"traced name not found, reported as 0: {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavedecay" / "__init__.py").is_file():
        print(f"no wavedecay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
            report(rec)
            records.append(rec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    for rec in records:
        path = RUNS / (f"{rec['workload']}-seed{rec['seed']}"
                       f"-trace{rec['trace']}.json")
        with open(path, "w") as fh:
            json.dump(rec, fh, indent=1)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    failed = sum(r["checks_failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["checks_attempted"]
                                       for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
