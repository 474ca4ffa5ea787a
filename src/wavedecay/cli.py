"""Command line front end: configuration, orchestration and report emission.

Subcommands: ``kernel`` (free-kernel CSV scans), ``resolvent`` (weighted
resolvent norm scans), ``propagator`` (cross-method checks), ``verify``
(estimate suite), ``report`` (roll-up of emitted reports).

Exit codes: 0 all selected checks pass, 1 any failure, 2 config error.
The pipeline is deterministic; timestamps live only in run_metadata.json.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import estimates as est
from .fitting import check_fit_window
from .profiles import BumpProfile
from .radialop import PotentialSpec, RadialGrid, build_G, build_G0

__all__ = ["ExperimentConfig", "main"]


class ConfigError(ValueError):
    pass


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


# (section, key) -> (attribute, converter); configparser lowercases keys
_KEYS = {
    ("experiment", "n"): ("n", int),
    ("grid", "r"): ("R", float),
    ("grid", "m"): ("M", int),
    ("potential", "c"): ("c", float),
    ("potential", "delta"): ("delta", float),
    ("profile", "a_lo"): ("a_lo", float),
    ("profile", "a_hi"): ("a_hi", float),
    ("profile", "kind"): ("kind", str),
    ("scan", "h_set"): ("h_set", _floats),
    ("scan", "t_set"): ("t_set", _floats),
    ("scan", "s_set"): ("s_set", _floats),
    ("scan", "lambda_grid"): ("lambda_grid", _floats),
    ("scan", "theta_set"): ("theta_set", _floats),
    ("mollifier", "r"): ("moll_R", float),
    ("mollifier", "m"): ("moll_M", int),
    ("mollifier", "s"): ("moll_s", float),
    ("run", "estimates"): ("estimate_ids",
                           lambda s: tuple(s.replace(",", " ").split())),
    ("run", "out"): ("out", str),
}


@dataclass
class ExperimentConfig:
    n: int = 4
    R: float = 64.0
    M: int = 1280
    c: float = 2.0
    delta: float = 3.0
    a_lo: float = 1.0
    a_hi: float = 2.0
    kind: str = "bump"
    h_set: tuple = (1.0, 0.5, 0.25, 0.125)
    t_set: tuple = (4.0, 5.66, 8.0, 11.31, 16.0, 22.63, 32.0, 45.25, 64.0)
    s_set: tuple = (0.0, 0.75, 1.5)
    lambda_grid: tuple = tuple(np.linspace(1.0, 8.0, 15))
    theta_set: tuple = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    moll_R: float = 128.0
    moll_M: int = 1280
    moll_s: float = 1.4
    estimate_ids: tuple = ()
    out: str = "out"

    @classmethod
    def load(cls, path=None, overrides=None):
        cfg = cls()
        if path is not None:
            parser = configparser.ConfigParser(inline_comment_prefixes="#")
            if not parser.read(path):
                raise ConfigError(f"config file not found: {path}")
            for sec in parser.sections():
                for key in parser.options(sec):
                    if (sec, key) not in _KEYS:
                        raise ConfigError(f"unknown key [{sec}] {key}")
                    attr, conv = _KEYS[sec, key]
                    try:
                        setattr(cfg, attr, conv(parser.get(sec, key)))
                    except ValueError as exc:
                        raise ConfigError(
                            f"bad value for [{sec}] {key}: {exc}") from exc
        for key, val in (overrides or {}).items():
            if val is not None:
                setattr(cfg, key, val)
        cfg.validate()
        return cfg

    def validate(self):
        try:
            self.grid()
            self.potential()
            self.profile()
            RadialGrid(self.moll_R, self.moll_M)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if any(h <= 0 or h > 1 for h in self.h_set):
            raise ConfigError("h_set must lie in (0, 1]")
        # the mollifier suite reads lambda-derivatives up to order
        # floor(s) + 1, and its lattice caches orders <= 2
        if not 0 < self.moll_s < 2:
            raise ConfigError("[mollifier] s must lie in (0, 2)")
        if any(th <= 0 for th in self.theta_set):
            raise ConfigError("theta_set must be positive")
        if unknown := [i for i in self.estimate_ids if not _selected([i])]:
            raise ConfigError(f"unknown estimate ids: {', '.join(unknown)}")
        # the sets the groups fit whole must carry a fit; t_set is also
        # the kernel subcommand's plain scan grid, so it is held to that
        # only when a group that fits it is selected
        fitted = {"h_set": self.h_set, "theta_set": self.theta_set}
        if any(fn in _FITS_T_SET for fn in _selected(self.estimate_ids)):
            fitted["t_set"] = self.t_set
        for name, xs in fitted.items():
            try:
                check_fit_window(xs)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    def grid(self):
        return RadialGrid(self.R, self.M)

    def potential(self):
        return PotentialSpec(self.c, self.delta, self.n)

    def profile(self):
        return BumpProfile(self.a_lo, self.a_hi, self.kind)


# ---------------------------------------------------------------------------
# estimate groups

def _run_kernel(cfg):
    # free-kernel fits use their own t-window (no grid horizon applies)
    return est.check_kernel_bounds(cfg.n, cfg.profile(), cfg.h_set)


def _run_prop21(cfg):
    return est.check_prop21(cfg.grid(), cfg.n, cfg.profile(), cfg.h_set,
                            cfg.t_set)


def _run_thm31(cfg):
    return est.check_thm31(cfg.grid(), cfg.n, cfg.potential(),
                           cfg.profile(), cfg.h_set)


def _run_smoothing(cfg):
    return est.check_smoothing(cfg.grid(), cfg.n, cfg.potential(),
                               cfg.profile(), cfg.h_set[:3])


def _run_thm34(cfg):
    return est.check_thm34(cfg.grid(), cfg.n, cfg.potential(),
                           cfg.profile(), cfg.h_set[:3], cfg.t_set,
                           cfg.s_set)


def _run_time_integral(cfg):
    return est.check_weighted_time_integral(cfg.grid(), cfg.n,
                                            cfg.potential(), cfg.profile(),
                                            cfg.h_set[:3])


def _run_mollifier(cfg):
    grid = RadialGrid(cfg.moll_R, cfg.moll_M)
    return est.mollified_multiplier_suite(grid, cfg.n, cfg.potential(),
                                          s=cfg.moll_s,
                                          theta_set=cfg.theta_set)


def _run_thm41(cfg):
    return est.check_thm41(cfg.grid(), cfg.n, cfg.potential(),
                           cfg.profile(), cfg.h_set, cfg.t_set)


def _run_thm11(cfg):
    return est.assemble_thm11(cfg.grid(), cfg.n, cfg.potential(),
                              a=cfg.a_lo, t_set=cfg.t_set)


GROUPS = (
    (("2.7", "2.8", "2.9"), _run_kernel),
    (("2.1", "2.2", "2.3", "2.4"), _run_prop21),
    (("3.1",), _run_thm31),
    (("3.2", "3.15"), _run_smoothing),
    (("3.18", "3.19"), _run_thm34),
    (("3.20",), _run_time_integral),
    (("3.40", "3.41", "3.43", "3.46"), _run_mollifier),
    (("4.1", "4.2", "4.6", "4.10"), _run_thm41),
    (("1.2", "1.3", "1.4", "4.3"), _run_thm11),
)
# the groups that fit over the whole t_set
_FITS_T_SET = (_run_prop21, _run_thm34, _run_thm41, _run_thm11)


def _selected(ids):
    return [fn for group_ids, fn in GROUPS
            if any(i in group_ids for i in ids)]


def _collect_passes(node, out):
    if isinstance(node, dict):
        if "passed" in node:
            out.append(bool(node["passed"]))
        for key, val in node.items():
            if not str(key).startswith("_"):
                _collect_passes(val, out)


def cmd_verify(cfg):
    ids = cfg.estimate_ids
    if not ids:
        return 0
    reports = {}
    for fn in _selected(ids):
        reports.update(fn(cfg))
    est.emit_reports(reports, cfg.out)
    with open(os.path.join(cfg.out, "run_metadata.json"), "w") as fh:
        json.dump({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                   "estimates": list(ids)}, fh, indent=2)
    passes = []
    _collect_passes(reports, passes)
    for key in sorted(reports):
        if key.startswith("_"):
            continue
        sub = []
        _collect_passes(reports[key], sub)
        print(f"{key}: {'PASS' if all(sub) else 'FAIL'}")
    return 0 if all(passes) else 1


def cmd_kernel(cfg):
    from .freekernel import write_kernel_scan

    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "kernel_scan.csv")
    write_kernel_scan(path, cfg.n, cfg.profile(), 1.0,
                      (1.0, 2.0, 4.0, 8.0, 16.0), cfg.t_set)
    print(f"wrote {path}")
    return 0


def cmd_resolvent(cfg):
    from .resolvent import la_norm_scan

    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "resolvent_scan.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "lambda", "norm", "lambda_norm"])
        for label, pot in (("free", PotentialSpec(0.0, cfg.delta, cfg.n)),
                           ("perturbed", cfg.potential())):
            rows, gaps = la_norm_scan(cfg.grid(), cfg.n, pot,
                                      cfg.lambda_grid)
            for lam, nrm, ln in rows:
                w.writerow([label, lam, repr(nrm), repr(ln)])
            for lam, err in gaps:
                print(f"gap {label} lambda={lam}: {err}", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def cmd_propagator(cfg):
    from .norms import op_norm_2
    from .propagator import (boundary_safe_gap, duhamel_split,
                             phi_difference, wave_multiplier,
                             wave_via_resolvent, write_propagator_norms)

    grid, n = cfg.grid(), cfg.n
    op0 = build_G0(grid, n)
    op = build_G(grid, n, cfg.potential())
    prof = cfg.profile()
    t, h = 4.0, 1.0
    eig = wave_multiplier(op, prof, h, t, square_profile=True)
    res = wave_via_resolvent(grid, n, cfg.potential(), prof, h, t)
    gap = boundary_safe_gap(res, eig, grid)
    split = duhamel_split(op0, op, prof, 0.5, t)
    phi = phi_difference(op0, op, prof, 0.5, t)
    resid = (op_norm_2(split.phi1_part + 0.5 * split.phi2_part - phi)
             / op_norm_2(phi))
    os.makedirs(cfg.out, exist_ok=True)
    write_propagator_norms(os.path.join(cfg.out, "propagator_norms.csv"),
                           [eig, res])
    print(f"eigen vs resolvent windowed gap at (t,h)=({t},{h}): {gap:.3e}")
    print(f"duhamel residual at (t,h)=({t},0.5): {resid:.3e}")
    ok = gap <= 0.02 and resid <= 0.01
    return 0 if ok else 1


def cmd_report(cfg):
    rows = []
    for name in sorted(os.listdir(cfg.out)):
        stem = re.fullmatch(r"estimate_(.*)\.json", name)
        if stem:
            # undo emit_reports' "." -> "_", not the ids' own "_" (3.18_s1)
            key = re.sub(r"(?<=\d)_(?=\d)", ".", stem[1])
            with open(os.path.join(cfg.out, name)) as fh:
                rows.extend(est.rollup_rows({key: json.load(fh)}))
    path = os.path.join(cfg.out, "rollup.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimate_id", "variable", "target", "fitted",
                    "tolerance", "pass"])
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0 if all(r[-1] for r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavedecay",
        description="numerical laboratory for dispersive wave estimates")
    parser.add_argument("command", choices=("kernel", "resolvent",
                                            "propagator", "verify",
                                            "report"))
    parser.add_argument("--config", default=None)
    parser.add_argument("--estimates", default=None,
                        help="comma separated estimate ids")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    overrides = {"out": args.out}
    if args.estimates is not None:
        overrides["estimate_ids"] = tuple(
            args.estimates.replace(",", " ").split())
    try:
        cfg = ExperimentConfig.load(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return {"kernel": cmd_kernel, "resolvent": cmd_resolvent,
            "propagator": cmd_propagator, "verify": cmd_verify,
            "report": cmd_report}[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
