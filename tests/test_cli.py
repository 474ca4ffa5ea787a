import json
import os
import re

import pytest

from wavedecay.cli import GROUPS, ConfigError, ExperimentConfig, _floats, main


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
                   "[potential]\nc = 1.5\n"
                   "[scan]\nh_set = 1 0.5 0.25 0.125\n"
                   "[run]\nestimates = 2.7, 3.1\n")
    cfg = ExperimentConfig.load(str(ini))
    assert (cfg.R, cfg.M, cfg.c) == (16.0, 159, 1.5)
    assert cfg.estimate_ids == ("2.7", "3.1")


def test_overrides_win(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[run]\nout = from_file\n")
    cfg = ExperimentConfig.load(str(ini), {"out": "from_flag",
                                           "estimate_ids": None})
    assert cfg.out == "from_flag"
    assert cfg.estimate_ids == ()   # None override leaves the default


def test_validation_failures(tmp_path):
    # the last three fail fit_power_law's rule on a set a group fits whole
    for override in ({"h_set": (2.0,)}, {"M": 0}, {"moll_s": 0.0},
                     {"theta_set": (0.5, -0.25)},
                     {"theta_set": (0.5, 0.25, 0.125)},
                     {"h_set": (1.0, 0.75, 0.5, 0.25)},
                     {"t_set": (2.0, 4.0), "estimate_ids": ("3.1", "2.1")}):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(None, override)
    # bad mollifier input and unfittable scan sets stop verify at load,
    # before any group runs
    for body in ("[grid]\nR = not_a_number\n", "[mollifier]\ns = 2.5\n",
                 "[mollifier]\nM = 1\n", "[scan]\ntheta_set = 0.5 0\n",
                 "[scan]\ntheta_set = 0.5 0.25 0.125\n"):
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


def test_scan_configs_that_fit_still_load():
    """The defaults and the benchmark's configs load; a short t_set is
    fine where no selected group fits over it (the kernel subcommand's
    scan, or group 3.1 alone)."""
    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    for path in (None, os.path.join(bench, "bench.ini"),
                 os.path.join(bench, "smoke.ini")):
        ExperimentConfig.load(path)
    for ids in ((), ("3.1",)):
        ExperimentConfig.load(None, {"t_set": (2.0, 4.0),
                                     "estimate_ids": ids})


def test_groups_partition_estimate_ids():
    seen = []
    for ids, fn in GROUPS:
        assert callable(fn)
        seen.extend(ids)
    assert len(seen) == len(set(seen))


def test_main_exit_2_on_bad_config(capsys):
    assert main(["verify", "--config", "/definitely/not/there.ini"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("body, named", [
    ("[grid]\nR = 16\nm_nodes = 5\n", "[grid] m_nodes"),
    ("[run]\ncache = on\n", "[run] cache"),
    ("[gird]\nR = 16\n", "[gird] r"),
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


def test_verify_without_selection_is_noop():
    assert main(["verify"]) == 0


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
    """End-to-end: run two estimate groups on a desk grid, one of them with
    "_" in its report ids (3.18_s0.75), then roll the emitted reports up
    again: report rebuilds the rows verify wrote, ids included."""
    ini = tmp_path / "exp.ini"
    ini.write_text("[grid]\nR = 16\nM = 159\n"
                   "[scan]\nh_set = 1 0.5 0.25 0.125\nt_set = 2 4 8 16\n"
                   "[run]\nestimates = 3.1, 3.18\n")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(ini), "--out", str(out)])
    assert code in (0, 1)
    text = capsys.readouterr().out
    assert "3.18_s0.75: " in text and ("PASS" in text or "FAIL" in text)
    assert (out / "run_metadata.json").exists()
    assert not (out / ".cache").exists()
    emitted = [p for p in os.listdir(out) if p.startswith("estimate_")]
    assert "estimate_3_18_s0_75.json" in emitted
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["estimates"] == ["3.1", "3.18"]
    written = (out / "rollup.csv").read_text().splitlines()

    code2 = main(["report", "--out", str(out)])
    rollup = (out / "rollup.csv").read_text().splitlines()
    assert rollup[0].split(",")[0] == "estimate_id"
    assert len(rollup) > 1
    assert sorted(rollup) == sorted(written)
    assert any(row.startswith("3.18_s0.75.fits.") for row in rollup)
    assert code2 == code
