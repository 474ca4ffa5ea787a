"""One pass of a workload, or only its set-up, in a fresh process.

run.py starts this script once per pass, each time with a directory of
its own; the pass writes ``result.json`` there.  Set-up time runs from
the first statement below to the point where the reference operators and
their eigensystems are in a cold cache, which is what every ``wavedecay
verify`` pays before its first estimate group.

The process also carries a speed gauge: every ``GAUGE_EVERY_S`` seconds a
signal handler times a fixed pure-Python loop on the core the pass runs
on.  The host this benchmark was built on changes speed by 20-50% over
seconds to minutes; the gauge's mean time over a process follows the
process's own wall time closely, so run.py uses it to rescale that wall
time to a fixed reference speed.  The gauge takes under 1% of a pass.
"""

import signal
import time

T0 = time.perf_counter()
GAUGE_EVERY_S = 0.05
GAUGE_LOOP = 5000
GAUGE = []


def _gauge(*_):
    t0 = time.perf_counter()
    s = 0
    for i in range(GAUGE_LOOP):
        s += i * i
    GAUGE.append(time.perf_counter() - t0)


signal.signal(signal.SIGALRM, _gauge)
signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
_gauge()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Context, write_config  # noqa: E402


def _blas(show_config):
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": _blas(np.show_config),
            "scipy_blas": _blas(scipy.show_config)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for layer in LAYERS:
        importlib.import_module(f"wavedecay.{layer}")
    from wavedecay.cache import EigenCache

    tracer = Tracer().install() if args.trace else None
    config = write_config(args.config, args.seed,
                          os.path.join(args.dir, "bench.ini"))
    ctx = Context(config, os.path.join(args.dir, "out"))
    cache = EigenCache(os.path.join(ctx.out, ".cache"))
    for op in (ctx.op0, ctx.op):
        cache.eigensystem(op)
    _gauge()
    result = {"setup_s": time.perf_counter() - T0,
              "setup_gauge_s": statistics.fmean(GAUGE)}

    if args.mode == "pass":
        outputs, step_s = {}, {}
        for name, step in WORKLOADS[args.workload]:
            ctx.gaps = []
            t0 = time.perf_counter()
            try:
                docs, error = step(ctx), None
            except Exception:  # noqa: BLE001 - a raised step is a failed check
                docs, error = {}, traceback.format_exc(limit=4)
            step_s[name] = time.perf_counter() - t0
            outputs[name] = {"docs": docs, "gaps": ctx.gaps, "error": error}
        result.update(outputs=outputs, step_s=step_s, c=ctx.pot.c,
                      environment=environment())
        if tracer is not None:
            result["trace"], result["spans"] = tracer.summary()
            result["missing_targets"] = tracer.missing_targets()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    _gauge()
    result["gauge_s"] = statistics.fmean(GAUGE)
    result["gauge_samples"] = len(GAUGE)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
