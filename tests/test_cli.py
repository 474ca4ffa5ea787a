import configparser
import filecmp
import json
import os
import re

import pytest

from wavedecay.cli import (_FITS_T_SET, _KEYS, GROUPS, ConfigError,
                           ExperimentConfig, _floats, _group_rank, main)
from wavedecay import resolvent
from wavedecay.norms import COUNTS
from wavedecay.radialop import _operator

BENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_floats_accepts_commas_and_spaces():
    assert _floats("1, 0.5 0.25") == (1.0, 0.5, 0.25)


def test_defaults_are_the_reference_experiment():
    cfg = ExperimentConfig()
    assert (cfg.n, cfg.R, cfg.M) == (4, 64.0, 1280)
    assert cfg.h_set == (1.0, 0.5, 0.25, 0.125)
    assert cfg.profile().support == (1.0, 2.0)


def test_load_reads_sections(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n"
                   "[potential]\nc = 1.5\n")
    cfg = ExperimentConfig.load(str(ini))
    assert (cfg.R, cfg.M, cfg.c) == (16.0, 159, 1.5)


def test_overrides_win(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\n")
    cfg = ExperimentConfig.load(str(ini), {"R": 32.0, "out": "from_flag",
                                           "estimate_ids": None})
    assert cfg.R == 32.0
    assert cfg.out == "from_flag"
    assert cfg.estimate_ids == ()   # None override leaves the default


def test_validation_failures(tmp_path):
    # the last fails fit_power_law's rule on a set a selected group fits
    for override in ({"M": 0},
                     {"t_set": (2.0, 4.0), "estimate_ids": ("3.1", "2.1")}):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(None, override)
    # a bad value or a bad mollifier grid stops verify at load, before any
    # group runs
    for body in ("[grid]\nR = not_a_number\n", "[mollifier]\nM = 1\n"):
        bad = tmp_path / "bad.ini"
        bad.write_text(body)
        with pytest.raises(ConfigError):
            ExperimentConfig.load(str(bad))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(bad), "--estimates", "3.2",
                     "--out", str(out)]) == 2
        assert not out.exists()
    # an id that no group carries is named, and nothing runs
    with pytest.raises(ConfigError, match="unknown estimate ids: 9.9, 3.180"):
        ExperimentConfig.load(None, {"estimate_ids": ("3.2", "9.9", "3.180")})
    out = tmp_path / "out"
    assert main(["verify", "--estimates", "9.9,3.180", "--out", str(out)]) == 2
    assert not out.exists()
    # an override must name a settable field: a folded constant or a
    # misspelling is named, and the class constant stays as it is
    with pytest.raises(ConfigError, match="unknown overrides: h_set, n_typo"):
        ExperimentConfig.load(None, {"h_set": (2.0,), "n_typo": 3})
    with pytest.raises(ConfigError, match="unknown overrides: n"):
        ExperimentConfig.load(None, {"n": None})
    assert ExperimentConfig.h_set == (1.0, 0.5, 0.25, 0.125)


def test_scan_configs_that_fit_still_load():
    """The defaults and the benchmark's configs load; a short t_set is
    fine where no selected group fits over it (the kernel subcommand's
    scan, or group 3.1 alone)."""
    for path in (None, os.path.join(BENCH, "bench.ini"),
                 os.path.join(BENCH, "smoke.ini")):
        ExperimentConfig.load(path)
    for ids in ((), ("3.1",)):
        ExperimentConfig.load(None, {"t_set": (2.0, 4.0),
                                     "estimate_ids": ids})


def test_every_key_is_set_by_a_shipped_config():
    """A key that no config in the tree sets is a constant in all but
    name: every key the loader knows is set by the benchmark's configs."""
    parser = configparser.ConfigParser(inline_comment_prefixes="#")
    for name in ("bench.ini", "smoke.ini"):
        parser.read(os.path.join(BENCH, name))
    shipped = {(sec, key) for sec in parser.sections()
               for key in parser.options(sec)}
    unset = sorted(set(_KEYS) - shipped)
    assert not unset, f"keys no shipped config sets: {unset}"


def test_groups_partition_estimate_ids():
    seen = []
    for ids, fn in GROUPS:
        assert callable(fn)
        seen.extend(ids)
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("ids, run", GROUPS, ids=[g[0][0] for g in GROUPS])
def test_fits_t_set_names_the_groups_that_fit_over_it(ids, run):
    """validate asks for a fit window on t_set exactly when a group in
    _FITS_T_SET is selected: those groups fail on a two-point t_set, every
    other group runs on it."""
    cfg = ExperimentConfig(R=16.0, M=159, t_set=(2.0, 4.0), moll_R=16.0,
                           moll_M=159)
    if ids[0] in _FITS_T_SET:
        with pytest.raises(ValueError, match="at least 4 samples"):
            run(cfg)
    else:
        assert run(cfg)


def test_main_exit_2_on_bad_config(capsys):
    assert main(["verify", "--config", "/definitely/not/there.ini"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, named", [
    ("verify", "[potential]\nc = nan\n", "c"),
    ("resolvent", "[potential]\nc = nan\n", "c"),
    ("resolvent", "[grid]\nR = inf\n", "R"),
    ("resolvent", "[potential]\ndelta = inf\n", "delta"),
    ("verify", "[mollifier]\nR = -inf\n", "moll_R"),
    ("kernel", "[scan]\nt_set = 4 8 inf 32\n", "t_set"),
], ids=["verify_c", "resolvent_c", "resolvent_R", "resolvent_delta",
        "verify_moll_R", "kernel_t_set"])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, command, body,
                                            named):
    """A nan or inf value is refused at load, exit 2 naming it, before
    any command writes a file."""
    ini = tmp_path / "exp.ini"
    ini.write_text(body)
    out = tmp_path / "out"
    assert main([command, "--config", str(ini), "--estimates", "3.1,3.40",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: non-finite values: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("body, named", [
    ("[grid]\nR = 16\nm_nodes = 5\n", "[grid] m_nodes"),
    ("[run]\ncache = on\n", "[run] cache"),
    ("[gird]\nR = 16\n", "[gird] r"),
    # keys the reference experiment fixes, and the flags' own values
    ("[experiment]\nn = 4\n", "[experiment] n"),
    ("[profile]\nkind = bump\n", "[profile] kind"),
    ("[scan]\nh_set = 1 0.5 0.25 0.125\n", "[scan] h_set"),
    ("[run]\nout = out\n", "[run] out"),
])
def test_unknown_key_is_a_config_error(tmp_path, capsys, body, named):
    ini = tmp_path / "exp.ini"
    ini.write_text(body)
    with pytest.raises(ConfigError, match=re.escape(named)):
        ExperimentConfig.load(str(ini))
    assert main(["verify", "--config", str(ini)]) == 2
    assert named in capsys.readouterr().err


def test_cache_flags_are_gone(capsys):
    for flag in ("--cache", "--no-cache"):
        with pytest.raises(SystemExit):
            main(["verify", flag])
    capsys.readouterr()


def test_verify_without_selection_is_a_config_error(tmp_path, capsys):
    """verify with no --estimates checks nothing: exit 2 naming the flag,
    write nothing."""
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--estimates" in err
    assert not out.exists()


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_report_without_estimates_is_a_config_error(tmp_path, capsys, make):
    """report over an out dir that is missing or holds no estimate_*.json
    has nothing to roll up: exit 2 naming the directory, write nothing."""
    out = tmp_path / "out"
    if make:
        out.mkdir()
        (out / "kernel_scan.csv").write_text("t\n")
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    if make:
        assert os.listdir(out) == ["kernel_scan.csv"]
    else:
        assert not out.exists()


def test_kernel_subcommand_writes_scan(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n[scan]\nt_set = 2 4\n")
    code = main(["kernel", "--config", str(ini), "--out",
                 str(tmp_path / "out")])
    assert code == 0
    lines = open(tmp_path / "out" / "kernel_scan.csv").read().splitlines()
    assert lines[0].startswith("sigma") or lines[0].startswith("t")
    assert len(lines) > 1


def test_verify_report_round_trip(tmp_path, capsys):
    """End-to-end: run all nine estimate groups on desk grids, then roll
    the emitted reports up again.  report leaves rollup.csv byte for byte
    as verify wrote it, "_" in report ids (3.18_s0.75) included, though
    groups such as 4.1 emit their ids out of name order (4.10_t before
    4.1_p2) and the JSON files sort the keys inside a report (3.18_s0's
    fits "1" before "0.5" in the rollup).  Without the order
    run_metadata.json records, the rows come in GROUPS order."""
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n[scan]\nt_set = 2 4 8 16\n"
                   "[mollifier]\nR = 16\nM = 159\n")
    out = tmp_path / "out"
    ids = [group_ids[0] for group_ids, _ in GROUPS]
    code = main(["verify", "--config", str(ini), "--estimates", ",".join(ids),
                 "--out", str(out)])
    assert code in (0, 1)
    text = capsys.readouterr().out
    assert "3.18_s0.75: " in text and ("PASS" in text or "FAIL" in text)
    assert not (out / ".cache").exists()
    emitted = [p for p in os.listdir(out) if p.startswith("estimate_")]
    assert "estimate_3_18_s0_75.json" in emitted
    # no report key, at any depth, starts with "_"
    keys = [p[len("estimate_"):] for p in emitted]
    for p in emitted:
        json.loads((out / p).read_text(),
                   object_pairs_hook=lambda kv: keys.extend(k for k, _ in kv))
    assert not [k for k in keys if k.startswith("_")]
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["estimates"] == ids
    written = tmp_path / "verify_rollup.csv"
    written.write_bytes((out / "rollup.csv").read_bytes())

    assert main(["report", "--out", str(out)]) == code
    rollup = (out / "rollup.csv").read_text().splitlines()
    assert rollup[0].split(",")[0] == "estimate_id"
    assert any(row.startswith("3.18_s0.75.fits.") for row in rollup)
    assert filecmp.cmp(written, out / "rollup.csv", shallow=False)

    (out / "run_metadata.json").unlink()
    assert main(["report", "--out", str(out)]) == code
    capsys.readouterr()
    rows = (out / "rollup.csv").read_text().splitlines()[1:]
    assert sorted(rows) == sorted(rollup[1:])
    row_ids = [row.split(",")[0] for row in rows]
    ranks = [_group_rank(".".join(i.split(".", 2)[:2])) for i in row_ids]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(GROUPS)


def test_verify_records_group_seconds(tmp_path, capsys):
    """run_metadata.json's group_s holds the wall seconds of exactly the
    selected groups, keyed by each group's first estimate id in GROUPS
    order whatever the order of --estimates, group_counts the norms
    counters, the eigensolves (one per operator the process had not yet
    built) and the resolvent LU work each group moved (none: these groups
    make no Lippmann-Schwinger solve), and report over the out dir still
    rebuilds rollup.csv byte for byte."""
    _operator.cache_clear()
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(ini), "--estimates",
                 "3.20,2.8,3.1", "--out", str(out)])
    assert code in (0, 1)
    meta = json.loads((out / "run_metadata.json").read_text())
    group_s, counts = meta["group_s"], meta["group_counts"]
    assert list(group_s) == ["2.7", "3.1", "3.20"]
    assert all(isinstance(s, float) and s >= 0.0 for s in group_s.values())
    assert list(counts) == list(group_s)
    assert all(set(c) == set(COUNTS) | {"radialop.eigensolves"}
               | set(resolvent.COUNTS) for c in counts.values())
    assert not any(c[key] for c in counts.values()
                   for key in resolvent.COUNTS)
    assert not any(counts["2.7"].values())
    # G0 and G: each solved once, by the first group that needs it
    assert [c["radialop.eigensolves"] for c in counts.values()] == [0, 2, 0]
    assert counts["3.1"]["norms.power_iterations"] > 0
    assert 0 < counts["3.1"]["norms.ritz_solves"] <= counts["3.1"][
        "norms.power_iterations"]
    written = (out / "rollup.csv").read_bytes()
    assert main(["report", "--out", str(out)]) == code
    assert (out / "rollup.csv").read_bytes() == written


_FIT = {"variable": "t", "target": -1.5, "fitted_exponent": -1.45,
        "tolerance": 0.2, "passed": True}


@pytest.mark.parametrize("name, node", [
    # every fit passes; the exponent-spread clause alone fails
    ("estimate_3_18_s1_5.json",
     {"fits": {"1": _FIT, "0.5": dict(_FIT, fitted_exponent=-1.17)},
      "exponent_spread": 0.28, "passed": False}),
    # the zero-potential node carries no fit and no ratio
    ("estimate_3_1.json",
     {"all_zero": False, "passed": False}),
], ids=["3.18_spread", "3.1_zero"])
def test_report_fails_on_flags_no_row_carries(tmp_path, capsys, name, node):
    """report exits by verify's rule, every passed flag of the reports,
    also where no rollup row carries the failing flag."""
    (tmp_path / name).write_text(json.dumps(node))
    assert main(["report", "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "rollup.csv").read_text().splitlines()
    assert all(row.endswith(",True") for row in rows[1:])
