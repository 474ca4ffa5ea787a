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
from dataclasses import dataclass, fields

import numpy as np

from . import estimates as est
from .fitting import check_fit_window
from .norms import COUNTS as norm_counts
from .profiles import bump
from .radialop import COUNTS as eigen_counts
from .radialop import PotentialSpec, RadialGrid, build_G, build_G0
from .resolvent import COUNTS as solve_counts

__all__ = ["ExperimentConfig", "main"]


class ConfigError(ValueError):
    pass


def _floats(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


# (section, key) -> (attribute, converter); configparser lowercases keys
_KEYS = {
    ("grid", "r"): ("R", float),
    ("grid", "m"): ("M", int),
    ("potential", "c"): ("c", float),
    ("potential", "delta"): ("delta", float),
    ("scan", "t_set"): ("t_set", _floats),
    ("mollifier", "r"): ("moll_R", float),
    ("mollifier", "m"): ("moll_M", int),
}


@dataclass
class ExperimentConfig:
    # the reference experiment fixes the dimension and the h-window
    n = 4
    h_set = (1.0, 0.5, 0.25, 0.125)

    R: float = 64.0
    M: int = 1280
    c: float = 2.0
    delta: float = 3.0
    t_set: tuple = (4.0, 5.66, 8.0, 11.31, 16.0, 22.63, 32.0, 45.25, 64.0)
    moll_R: float = 128.0
    moll_M: int = 1280
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
        overrides = overrides or {}
        settable = {f.name for f in fields(cls)}
        if unknown := sorted(set(overrides) - settable):
            raise ConfigError(f"unknown overrides: {', '.join(unknown)}")
        for key, val in overrides.items():
            if val is not None:
                setattr(cfg, key, val)
        cfg.validate()
        return cfg

    def validate(self):
        # nan and inf pass the range checks below; the commands would
        # then fail late or run on a degenerate grid or potential
        finite = {"R": self.R, "c": self.c, "delta": self.delta,
                  "moll_R": self.moll_R, "t_set": self.t_set}
        if bad := [k for k, v in finite.items() if not np.all(np.isfinite(v))]:
            raise ConfigError(f"non-finite values: {', '.join(bad)}")
        try:
            self.grid()
            self.potential()
            RadialGrid(self.moll_R, self.moll_M)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if unknown := [i for i in self.estimate_ids if not _selected([i])]:
            raise ConfigError(f"unknown estimate ids: {', '.join(unknown)}")
        # t_set is also the kernel subcommand's plain scan grid, so it must
        # carry a fit only when a group that fits over it is selected
        if set(_selected(self.estimate_ids)) & set(_selected(_FITS_T_SET)):
            try:
                check_fit_window(self.t_set)
            except ValueError as exc:
                raise ConfigError(f"t_set: {exc}") from exc

    def grid(self):
        return RadialGrid(self.R, self.M)

    def potential(self):
        return PotentialSpec(self.c, self.delta, self.n)

    def profile(self):
        return bump()


# ---------------------------------------------------------------------------
# estimate groups

GROUPS = (
    # free-kernel fits use their own t-window (no grid horizon applies)
    (("2.7", "2.8", "2.9"),
     lambda c: est.check_kernel_bounds(c.n, c.profile(), c.h_set)),
    (("2.1", "2.2", "2.3", "2.4"),
     lambda c: est.check_prop21(c.grid(), c.n, c.profile(), c.h_set,
                                c.t_set)),
    (("3.1",),
     lambda c: est.check_thm31(c.grid(), c.n, c.potential(), c.profile(),
                               c.h_set)),
    (("3.2", "3.15"),
     lambda c: est.check_smoothing(c.grid(), c.n, c.potential(),
                                   c.profile(), c.h_set[:3])),
    (("3.18", "3.19"),
     lambda c: est.check_thm34(c.grid(), c.n, c.potential(), c.profile(),
                               c.h_set[:3], c.t_set)),
    (("3.20",),
     lambda c: est.check_weighted_time_integral(
         c.grid(), c.n, c.potential(), c.profile(), c.h_set[:3])),
    (("3.40", "3.41", "3.43", "3.46"),
     lambda c: est.mollified_multiplier_suite(
         RadialGrid(c.moll_R, c.moll_M), c.n, c.potential())),
    (("4.1", "4.2", "4.6", "4.10"),
     lambda c: est.check_thm41(c.grid(), c.n, c.potential(), c.profile(),
                               c.h_set, c.t_set)),
    (("1.2", "1.3", "1.4", "4.3"),
     lambda c: est.assemble_thm11(c.grid(), c.n, c.potential(),
                                  t_set=c.t_set)),
)
# the first ids of the groups that fit over the whole t_set
_FITS_T_SET = ("2.1", "3.18", "4.1", "1.2")


def _selected(ids):
    return [fn for group_ids, fn in GROUPS
            if any(i in group_ids for i in ids)]


def _passed(node):
    """Whether every ``passed`` flag in a report tree holds."""
    if not isinstance(node, dict):
        return True
    return bool(node.get("passed", True)) and all(
        _passed(val) for val in node.values())


def cmd_verify(cfg):
    ids = cfg.estimate_ids
    if not ids:
        raise ConfigError("no estimates selected: pass --estimates")
    reports, group_s, group_counts = {}, {}, {}
    selected = _selected(ids)
    for group_ids, fn in GROUPS:
        if fn in selected:
            counts = {**norm_counts, **eigen_counts, **solve_counts}
            start = time.perf_counter()
            reports.update(fn(cfg))
            group_s[group_ids[0]] = time.perf_counter() - start
            now = {**norm_counts, **eigen_counts, **solve_counts}
            group_counts[group_ids[0]] = {
                key: now[key] - counts[key] for key in counts}
    est.emit_reports(reports, cfg.out)
    # the rollup's row order, which the reports' sorted JSON keys lose;
    # report writes its rows in this order
    order = [row[0] for row in est.rollup_rows(reports)]
    with open(os.path.join(cfg.out, "run_metadata.json"), "w") as fh:
        json.dump({"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                   "estimates": list(ids), "rollup_order": order,
                   "group_s": group_s, "group_counts": group_counts},
                  fh, indent=2)
    for key in sorted(reports):
        print(f"{key}: {'PASS' if _passed(reports[key]) else 'FAIL'}")
    return 0 if _passed(reports) else 1


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
                                      np.linspace(1.0, 8.0, 15))
            for lam, nrm, ln in rows:
                w.writerow([label, lam, repr(nrm), repr(ln)])
            for lam, err in gaps:
                print(f"gap {label} lambda={lam}: {err}", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def cmd_propagator(cfg):
    from .propagator import (boundary_safe_gap, duhamel_residual,
                             wave_multiplier, wave_via_resolvent,
                             write_propagator_norms)

    grid, n = cfg.grid(), cfg.n
    op0 = build_G0(grid, n)
    op = build_G(grid, n, cfg.potential())
    prof = cfg.profile()
    t, h = 4.0, 1.0
    eig = wave_multiplier(op, prof, h, t, square_profile=True)
    res = wave_via_resolvent(grid, n, cfg.potential(), prof, h, t)
    gap = boundary_safe_gap(res, eig, grid)
    resid = duhamel_residual(op0, op, prof, 0.5, t)
    os.makedirs(cfg.out, exist_ok=True)
    write_propagator_norms(os.path.join(cfg.out, "propagator_norms.csv"),
                           [eig, res])
    print(f"eigen vs resolvent windowed gap at (t,h)=({t},{h}): {gap:.3e}")
    print(f"duhamel residual at (t,h)=({t},0.5): {resid:.3e}")
    ok = gap <= 0.02 and resid <= 0.01
    return 0 if ok else 1


def _group_rank(key):
    """Index in GROUPS of the group that emits report key, whose estimate
    id is the part before the first "_"; len(GROUPS) for none."""
    base = key.split("_")[0]
    return next((i for i, (ids, _) in enumerate(GROUPS) if base in ids),
                len(GROUPS))


def cmd_report(cfg):
    if not os.path.isdir(cfg.out):
        raise ConfigError(f"no such directory: {cfg.out}")
    reports = {}
    for name in sorted(os.listdir(cfg.out)):
        stem = re.fullmatch(r"estimate_(.*)\.json", name)
        if stem:
            # undo emit_reports' "." -> "_", not the ids' own "_" (3.18_s1)
            key = re.sub(r"(?<=\d)_(?=\d)", ".", stem[1])
            with open(os.path.join(cfg.out, name)) as fh:
                reports[key] = json.load(fh)
    if not reports:
        raise ConfigError(f"no estimate_*.json in {cfg.out}")
    # verify's row order: the one its run_metadata.json records, then
    # GROUPS order for rows it does not record
    meta = os.path.join(cfg.out, "run_metadata.json")
    order = []
    if os.path.exists(meta):
        with open(meta) as fh:
            order = json.load(fh).get("rollup_order", [])
    rank = {row_id: i for i, row_id in enumerate(order)}
    keyed = [((rank.get(row[0], len(order)), _group_rank(key)), row)
             for key, node in reports.items()
             for row in est.rollup_rows({key: node})]
    rows = [row for _, row in sorted(keyed, key=lambda pair: pair[0])]
    path = est.write_rollup(rows, cfg.out)
    print(f"wrote {path} ({len(rows)} rows)")
    # verify's pass rule: every passed flag, also those no row carries
    return 0 if _passed(reports) else 1


COMMANDS = {"kernel": cmd_kernel, "resolvent": cmd_resolvent,
            "propagator": cmd_propagator, "verify": cmd_verify,
            "report": cmd_report}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wavedecay",
        description="numerical laboratory for dispersive wave estimates")
    parser.add_argument("command", choices=COMMANDS)
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
        return COMMANDS[args.command](
            ExperimentConfig.load(args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
