"""Smoke tests of the benchmark itself, on the unit-test grid (R=16,
M=159) so that every workload's call list runs in seconds.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE = BENCH / "smoke.ini"
SMOKE_REF = BENCH / "reference" / "smoke"
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# the workload each layer is designed to be exercised by (README.md);
# specfun has none: only freekernel.free_resolvent_kernel calls it, and
# no workload reaches that function
DESIGNED = {
    "estimates": ["verify-bands"],
    "freekernel": ["verify-bands"],
    "resolvent": ["verify-lattice", "routes"],
    "funcalc": ["routes"],
    "norms": ["routes"],
    "propagator": ["routes"],
    **{layer: list(workloads.WORKLOADS)
       for layer in ("radialop", "cache", "profiles", "fitting", "cli")},
}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(name, 0, 0, 1, config=SMOKE,
                                   reference_root=SMOKE_REF)
            for name in workloads.WORKLOADS}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_emitted_with_units():
    rec = run.run_workload("verify-bands", 0, 0, 0, config=SMOKE,
                           reference_root=SMOKE_REF)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in rec["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in rec["metrics"].values())
    assert rec["checks_attempted"] > 0 and rec["checks_failed"] == 0
    for p in rec["passes"]:
        # the gauge samples at least at start, set-up end and exit
        assert p["gauge_samples"] >= 3
        assert p["wall_s"] == run.at_ref_speed(p["raw_wall_s"], p["gauge_s"])


def test_per_layer_metrics_emitted_with_units(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for rec in traced.values():
        assert {k: v["unit"] for k, v in rec["metrics"].items()} == want


def test_outputs_match_reference(traced):
    for rec in traced.values():
        assert rec["checks_attempted"] > 0
        assert rec["failed_checks"] == []


def test_every_traced_name_exists(traced):
    for rec in traced.values():
        assert rec["missing_trace_targets"] == []


@pytest.mark.parametrize("layer", sorted(DESIGNED))
def test_layer_spanned_on_its_workload(traced, layer):
    for name in DESIGNED[layer]:
        assert traced[name]["metrics"][f"{layer}.calls"]["value"] > 0, name


def test_designed_split(traced):
    m = {name: {k: v["value"] for k, v in rec["metrics"].items()}
         for name, rec in traced.items()}
    assert m["verify-bands"]["resolvent.lu_factors"] == 0
    assert m["verify-lattice"]["resolvent.lu_factors"] > 0
    assert m["verify-bands"]["funcalc.calls"] == 0
    assert m["verify-lattice"]["funcalc.calls"] == 0


def test_missing_name_reports_zero(monkeypatch):
    from wavedecay import estimates, resolvent  # noqa: F401 - import first

    monkeypatch.delattr(resolvent, "free_green_matrix")
    t = tracer.Tracer().install()
    assert "resolvent.free_green_matrix" in t.missing_targets()
    metrics, _ = t.summary()
    assert metrics["resolvent.green_matrices"] == 0


def test_gate_fails_perturbed_report():
    reference = run.load_reference("verify-bands", 0, SMOKE_REF)
    n, failed, dev = gate.compare(copy.deepcopy(reference), reference)
    assert n > 0 and failed == [] and dev == 0.0

    doc = "estimate_2_7_h.json"             # h-slope near -2.5

    nudged = copy.deepcopy(reference)
    nudged["verify"]["docs"][doc]["fitted_exponent"] *= 1 + 1e-4
    _, failed, dev = gate.compare(nudged, reference)
    assert failed == [f"verify/{doc}"] and dev == pytest.approx(1e-4)

    flipped = copy.deepcopy(reference)
    node = flipped["verify"]["docs"][doc]
    node["passed"] = not node["passed"]
    assert gate.compare(flipped, reference)[1] == [f"verify/{doc}"]

    gapped = copy.deepcopy(reference)
    gapped["verify"]["gaps"].append("_gaps: quadrature stalled")
    assert gate.compare(gapped, reference)[1] == ["verify/ran"]

    dropped = copy.deepcopy(reference)
    del dropped["verify"]["docs"][doc]
    assert gate.compare(dropped, reference)[1]


def test_gate_allows_one_printed_digit():
    reference = run.load_reference("routes", 0, SMOKE_REF)
    key = next(k for k in reference["propagator"]["docs"]["stdout"]
               if k.startswith("duhamel residual"))

    def moved(units):
        out = copy.deepcopy(reference)
        leaf = out["propagator"]["docs"]["stdout"][key]
        leaf["printed"] += units * 1e-7          # printed as 6.502e-04
        return gate.compare(out, reference)[1]

    assert moved(1) == [] and moved(-1) == []
    assert moved(2) == ["propagator/stdout"]
