"""The discrepancy report sink: partial runs update, never truncate."""

from conftest import merge_report

FULL = [
    "[PASS] criterion 1: cancellation",
    "  criterion 5 detail (W=3): a",
    "[PASS] criterion 5: W=3: b",
    "  criterion 5 detail (W=12): c",
    "[PASS] criterion 5: W=12: d",
    "  criterion 9 detail: e",
    "[FAIL] criterion 9: f",
]


def test_full_run_replaces_every_criterion():
    new = [line.replace(":", ": new", 1) for line in FULL]
    assert merge_report(FULL, new) == new


def test_subset_run_keeps_the_criteria_it_did_not_run():
    assert merge_report(FULL, ["[FAIL] criterion 1: again"]) == (
        ["[FAIL] criterion 1: again"] + FULL[1:])


def test_one_parametrization_does_not_drop_the_others():
    partial = ["  criterion 5 detail (W=3): x", "[PASS] criterion 5: W=3: y"]
    assert merge_report(FULL, partial) == FULL


def test_first_run_and_new_criteria_land_in_order():
    assert merge_report([], FULL) == FULL
    extra = ["[PASS] criterion 11: z"]
    assert merge_report(FULL, extra) == FULL + extra
    assert merge_report(extra, FULL) == FULL + extra
