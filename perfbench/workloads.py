"""The benchmark's workloads: call lists into wavedecay and the outputs
each call leaves behind for the correctness gate.

Every workload is a list of steps run one after another in one process
(a closed loop with a single caller).  A step returns a dict of output
documents; report-like documents are JSON trees whose nodes carrying
``passed`` are the checks.  Why each workload exists, and which layers it
exercises and bypasses, is written down in README.md next to this file.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import os

import numpy as np

# Seed 0 is the reference experiment.  Any other seed scales the
# potential amplitude c by one of these factors (all within 5%), so a
# claim can be re-checked on inputs it was not tuned on while every seed
# still has a stored reference to be checked against.
C_SHIFTS = (0.0, 0.031, -0.024, 0.047, -0.041, 0.012, -0.008, 0.026)


def variant(seed):
    """Index into C_SHIFTS for a seed: 0 only for seed 0."""
    return 0 if seed == 0 else 1 + (seed - 1) % (len(C_SHIFTS) - 1)


def write_config(base_path, seed, path):
    """The benchmark config with the seed's potential amplitude."""
    parser = configparser.ConfigParser(inline_comment_prefixes="#")
    parser.read(base_path)
    c = parser.getfloat("potential", "c") * (1.0 + C_SHIFTS[variant(seed)])
    parser.set("potential", "c", repr(c))
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def plain(node):
    """JSON-ready copy of a report tree (numpy scalars to Python)."""
    if isinstance(node, dict):
        return {str(k): plain(v) for k, v in node.items()}
    if isinstance(node, (list, tuple, np.ndarray)):
        return [plain(v) for v in node]
    if isinstance(node, (bool, np.bool_)):
        return bool(node)
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(node)
    return node


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Context:
    """What a step needs: the config file, the output dir, and the
    parsed experiment (grid, potential, profile, operators)."""

    def __init__(self, config_path, out_dir):
        from wavedecay.cli import ExperimentConfig
        from wavedecay.radialop import build_G, build_G0

        self.config_path = config_path
        self.out = out_dir
        self.cfg = ExperimentConfig.load(config_path)
        self.grid = self.cfg.grid()
        self.pot = self.cfg.potential()
        self.prof = self.cfg.profile()
        self.n = self.cfg.n
        self.op0 = build_G0(self.grid, self.n)
        self.op = build_G(self.grid, self.n, self.pot)
        self.gaps = []
        self._capture_report_gaps()

    def _capture_report_gaps(self):
        """verify drops the ``_gaps`` entries of its reports before writing
        them; keep them by looking at the reports on their way out."""
        from wavedecay import estimates

        emit = estimates.emit_reports

        def emit_reports(reports, out_dir):
            for key, val in reports.items():
                if key.startswith("_gaps"):
                    self.gaps += [f"{key}: {gap}" for gap in val]
            return emit(reports, out_dir)

        estimates.emit_reports = emit_reports

    def cli(self, *argv):
        """Run the wavedecay CLI in this process; (exit code, stdout)."""
        from wavedecay.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", self.config_path,
                         "--out", self.out])
        self.gaps += [line for line in err.getvalue().splitlines()
                      if line.startswith("gap ")]
        return code, out.getvalue()


def _oracle(value, cap):
    """A number a criterion asserts to stay at or below cap."""
    return {"value": float(value), "cap": cap, "passed": bool(value <= cap)}


def _verify(estimates):
    def step(ctx):
        code, _ = ctx.cli("verify", "--estimates", estimates)
        docs = {"exit_code": code}
        for name in sorted(os.listdir(ctx.out)):
            path = os.path.join(ctx.out, name)
            if name.startswith("estimate_") and name.endswith(".json"):
                with open(path) as fh:
                    docs[name] = json.load(fh)
        docs["rollup.csv"] = _read_csv(os.path.join(ctx.out, "rollup.csv"))
        return docs
    return step


def _propagator(ctx):
    code, text = ctx.cli("propagator")
    # the two printed figures carry four significant digits
    printed = {line.split(":")[0]: {"printed": float(line.rsplit(":", 1)[1])}
               for line in text.splitlines() if ":" in line}
    return {"exit_code": code, "stdout": printed,
            "propagator_norms.csv": _read_csv(
                os.path.join(ctx.out, "propagator_norms.csv"))}


def _resolvent(ctx):
    code, _ = ctx.cli("resolvent")
    return {"exit_code": code, "resolvent_scan.csv": _read_csv(
        os.path.join(ctx.out, "resolvent_scan.csv"))}


def _criterion_05(ctx):
    from wavedecay.resolvent import complex_shift_compare

    return {f"complex_shift_eta{eta:g}": _oracle(
        complex_shift_compare(ctx.grid, ctx.n, ctx.pot, 2.0, eta=eta), 0.10)
        for eta in (1.0, 0.5)}


def _criterion_06(ctx):
    from wavedecay.funcalc import hs_multiplier, phi_of_hsqrt

    got = hs_multiplier(ctx.op, ctx.prof, 1.0, order=8, tol=1e-7, block=400)
    gap = np.linalg.norm(got - phi_of_hsqrt(ctx.op, ctx.prof, 1.0), 2)
    return {"quadrature_vs_eigen": _oracle(gap, 1e-6)}


def _criterion_07_08(ctx):
    from wavedecay.funcalc import verify_lemma23

    return {"lemma23": plain(verify_lemma23(ctx.grid, ctx.n, ctx.op0, ctx.op,
                                            ctx.prof, ctx.cfg.h_set))}


def _criterion_09a(ctx):
    from wavedecay.propagator import time_domain_evolve, wave_multiplier

    f = np.exp(-(ctx.grid.nodes - 8.0) ** 2)
    rec = time_domain_evolve(ctx.op, f, 8.0, 0.5 * ctx.grid.dr, ctx.prof, 1.0)
    expect = wave_multiplier(ctx.op, ctx.prof, 1.0, 8.0).matrix @ f
    rel = np.linalg.norm(rec.u - expect) / np.linalg.norm(expect)
    return {"leapfrog_vs_eigen": _oracle(rel, 1e-4)}


WORKLOADS = {
    "verify-bands": (("verify", _verify("2.7,2.1,3.1,3.18,3.20,4.1,1.2")),),
    "verify-lattice": (("verify", _verify("3.2,3.40")),),
    "routes": (("propagator", _propagator), ("resolvent", _resolvent),
               ("criterion_05", _criterion_05),
               ("criterion_06", _criterion_06),
               ("criterion_07_08", _criterion_07_08),
               ("criterion_09a", _criterion_09a)),
}
