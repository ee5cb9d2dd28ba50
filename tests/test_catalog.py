"""Worked-example catalog: builders, claim evaluation, parameter handling."""

import pytest

from coble.catalog import (
    catalog_names,
    catalog_summary,
    run_check,
    verify_example,
)
from coble.constructions import BUILDERS, MAX_BLOWUPS, scroll_fiber_tower


def test_every_entry_verifies():
    names = catalog_names()
    assert len(names) == 7
    for name in names:
        report = verify_example(name)
        assert report.ok, [r.to_json() for r in report.results if not r.passed]
        assert report.results, name


def test_unknown_entry():
    with pytest.raises(KeyError, match="no catalog entry"):
        verify_example("pencil-of-unicorns")


def test_static_entries_take_no_parameters():
    with pytest.raises(ValueError, match="takes no parameters"):
        verify_example("triangle-pencil", {"n": 3})


def test_unknown_parameter_is_refused():
    with pytest.raises(ValueError, match=r"named x \(accepted: n, t, b\)"):
        verify_example("scroll-fiber-tower", {"x": 3})
    with pytest.raises(ValueError, match=r"named k \(accepted: m\)"):
        verify_example("sections-to-minus-four", {"m": 2, "k": 1})


def test_blowup_budget_refuses_before_building():
    n, t = 3, 0
    b = MAX_BLOWUPS - n - t - 3
    assert len(scroll_fiber_tower(n, t, b).sequences["X"][0].centers) == MAX_BLOWUPS
    with pytest.raises(ValueError, match=f"{MAX_BLOWUPS + 1} blow-ups is over the budget of {MAX_BLOWUPS}"):
        scroll_fiber_tower(n, t, b + 1)
    with pytest.raises(ValueError, match="over the budget"):
        verify_example("scroll-fiber-tower", {"b": 1_000_000})


def test_parametric_sweeps():
    # default parameters
    assert verify_example("scroll-fiber-tower").parameters == {"n": 3, "t": 0, "b": 4}
    # overrides merge into the defaults and feed the affine expectations
    for n, t, b in [(3, 1, 6), (4, 0, 9), (5, 2, 12)]:
        report = verify_example("scroll-fiber-tower", {"n": n, "t": t, "b": b})
        assert report.ok, (n, t, b)
        by_check = {r.check: r for r in report.results}
        assert by_check["k-squared"].expected == 5 - (n + t + b)
        assert by_check["k-squared"].actual == 5 - (n + t + b)
    for m in range(1, 7):
        report = verify_example("sections-to-minus-four", {"m": m})
        assert report.ok, m
        chain = next(r for r in report.results if r.check == "blow-down-chain")
        assert chain.actual["track_square"] == m


def test_report_shape():
    report = verify_example("triangle-pencil")
    data = report.to_json()
    assert data["name"] == "triangle-pencil" and data["ok"] is True
    assert all(
        set(c) == {"description", "check", "expected", "actual", "passed"}
        for c in data["claims"]
    )
    summary = catalog_summary()
    assert [s["name"] for s in summary] == catalog_names()
    assert all(s["claims"] > 0 for s in summary)
    parametric = {s["name"] for s in summary if s["parametric"]}
    assert parametric == {"scroll-fiber-tower", "sections-to-minus-four"}


def test_run_check_directly():
    sequences = BUILDERS["triangle-pencil"]().sequences
    seq_name = next(iter(sequences))
    assert (
        run_check(
            "pairing",
            {"sequence": seq_name, "a": [["K", 1]], "b": [["K", 1]]},
            sequences,
            {},
        )
        == 0
    )
    assert (
        run_check("k-squared", {"sequence": seq_name}, sequences, {}) == 0
    )
    assert run_check("reduce", {"vector": "(4;2,2,2)"}, {}, {}) == "conic"
    with pytest.raises(KeyError, match="unknown check"):
        run_check("prove-riemann-hypothesis", {}, {}, {})


def test_failed_claim_is_reported_not_raised():
    sequences = BUILDERS["triangle-pencil"]().sequences
    seq_name = next(iter(sequences))
    actual = run_check("k-squared", {"sequence": seq_name}, sequences, {})
    assert actual != 99  # a wrong expectation would simply fail to match
