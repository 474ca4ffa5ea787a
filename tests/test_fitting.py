from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavedecay.fitting import fit_power_law


def _samples(c, e, xs):
    return [(x, c * x ** e) for x in xs]


def test_exact_power_law():
    rep = fit_power_law(_samples(3.0, -2.0, [1.0, 2.0, 4.0, 8.0, 16.0]))
    assert rep.fitted_exponent == pytest.approx(-2.0, abs=1e-12)
    assert rep.fitted_constant == pytest.approx(3.0, rel=1e-12)
    assert rep.residual == pytest.approx(0.0, abs=1e-12)
    assert rep.window == (1.0, 16.0)


def test_bounded_perturbation():
    xs = np.geomspace(1.0, 64.0, 12)
    ys = xs ** -1.0 * (1.0 + 0.01 * np.sin(np.log(xs)))
    rep = fit_power_law(list(zip(xs, ys)), target=-1.0, tolerance=0.02)
    assert abs(rep.fitted_exponent + 1.0) < 0.02
    assert rep.passed


def test_two_sided_pass_rule():
    rows = _samples(1.0, -1.5, [1.0, 2.0, 4.0, 8.0])
    assert fit_power_law(rows, target=-1.5, tolerance=0.1).passed
    assert not fit_power_law(rows, target=-1.2, tolerance=0.1).passed
    assert fit_power_law(rows).passed      # no target: residual rule only


def test_one_sided_negative_target():
    # decaying at least as fast as the target passes
    rows = _samples(1.0, -2.0, [1.0, 2.0, 4.0, 8.0])
    assert fit_power_law(rows, target=-1.5, tolerance=0.1,
                         one_sided=True).passed
    rows = _samples(1.0, -1.0, [1.0, 2.0, 4.0, 8.0])
    assert not fit_power_law(rows, target=-1.5, tolerance=0.1,
                             one_sided=True).passed


def test_one_sided_positive_target():
    rows = _samples(1.0, 1.4, [1.0, 2.0, 4.0, 8.0])
    assert fit_power_law(rows, target=1.0, tolerance=0.1,
                         one_sided=True).passed
    rows = _samples(1.0, 0.5, [1.0, 2.0, 4.0, 8.0])
    assert not fit_power_law(rows, target=1.0, tolerance=0.1,
                             one_sided=True).passed


def test_residual_cap():
    """fit_power_law leaves the cap at inf; a report with a finite cap
    fails once the residual exceeds it."""
    xs = np.geomspace(1.0, 16.0, 8)
    ys = xs ** -1.0 * np.exp(0.5 * np.sin(3.0 * np.log(xs)))
    rep = fit_power_law(list(zip(xs, ys)), target=-1.0, tolerance=1.0)
    assert rep.residual_cap == np.inf and rep.passed
    capped = replace(rep, residual_cap=0.1)
    assert capped.residual > 0.1 and not capped.passed


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_power_law(_samples(1.0, -1.0, [1.0, 2.0, 4.0]))      # too few
    with pytest.raises(ValueError):
        fit_power_law(_samples(1.0, -1.0, [1.0, 1.5, 2.0, 3.0]))  # narrow
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -0.5), (4.0, 1.0), (8.0, 1.0)])


def test_as_dict_roundtrip():
    d = fit_power_law(_samples(2.0, 1.0, [1.0, 2.0, 4.0, 8.0]),
                      estimate_id="9.9", variable="h", target=1.0,
                      tolerance=0.2).as_dict()
    assert d["estimate_id"] == "9.9"
    assert d["passed"] is True
    assert isinstance(d["window"], list)


@given(st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_recovers_arbitrary_exponent(e, c):
    rep = fit_power_law(_samples(c, e, [0.5, 1.0, 2.0, 4.0, 8.0]))
    assert rep.fitted_exponent == pytest.approx(e, abs=1e-8)
