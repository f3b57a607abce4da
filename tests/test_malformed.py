"""Every constructor on a battery of malformed inputs (``malformed_battery``)
reports what it reported when each class had a constructor of its own
(``golden_malformed``): the same exception class, message and position, or
the same object, and ``stats`` prints the same.

The one change: a nest with a bad step letter and a wrong path count or
path length reports the letter, as every other family reports an entry of
the wrong type before a wrong shape."""

import pytest

import golden_malformed
import malformed_battery

LETTER_FIRST = {
    "NilpNest/bad_entry_and_short_row": "nest: path 1 has step 'X', expected 'V'/'D'",
    "NilpNest/bad_entry_and_missing_row": "nest: path 1 has step 'X', expected 'V'/'D'",
    "NilpNest/bad_letter_and_long_path": "nest: path 2 has step 'X', expected 'V'/'D'",
}


def _expected(case):
    if case not in LETTER_FIRST:
        return golden_malformed.ANSWERS[case]
    message = LETTER_FIRST[case]
    return ("EntryError", message, None, None), ("", f"error: {message}\n", 2)


CASES = list(malformed_battery.cases())


def test_the_battery_is_the_recorded_one():
    assert [case for case, *_ in CASES] == list(golden_malformed.ANSWERS)


@pytest.mark.parametrize("case,cls,n,value", CASES, ids=[case for case, *_ in CASES])
def test_malformed_input_reports_what_it_reported(case, cls, n, value):
    expected = _expected(case)
    assert malformed_battery.construct(cls, n, value) == expected[0]
    assert malformed_battery.stats(cls, n, value) == expected[1]
