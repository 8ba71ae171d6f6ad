"""Acceptance battery: one test per `gallai.verify` check, each printing
a PASS line with its elapsed time and what it examined (visible with
pytest -s / -rA).  The checks themselves live in `gallai.verify`; this
module only runs them and asserts the runtime ceilings."""

import pytest

from gallai import verify

# Seconds per check.  A criterion whose work is split over two checks
# splits its ceiling between them: criterion 01 (60 s) over the two
# Goodman oracles, 07 (300 s) over the two partition checks, and 08
# (120 s) over GR* exactness and the Figure 1 fixture.
CEILINGS = {
    "goodman-oracle-small": 30,
    "goodman-oracle-n7": 30,
    "ramsey-brackets": 300,
    "gr-k4e-witnesses": 600,
    "partition-refinement-small": 150,
    "partition-soundness": 150,
    "grstar-exactness": 60,
    "figure1-fixture": 60,
}


@pytest.mark.parametrize("name, fn", verify.FULL_CHECKS, ids=[name for name, _ in verify.FULL_CHECKS])
def test_check(name, fn):
    result = verify.run_check(name, fn)
    assert result.ok, result.detail
    assert result.seconds <= CEILINGS.get(name, float("inf")), result.seconds
    print(f"PASS {name} ({result.seconds:.1f}s): {result.detail}")


def test_check_table_guards():
    names = [name for name, _ in verify.FULL_CHECKS]
    assert len(set(names)) == len(names)
    assert verify.FULL_CHECKS[: len(verify.FAST_CHECKS)] == verify.FAST_CHECKS
    assert CEILINGS.keys() <= set(names)
    # the checks that carry the ceilings of criteria 01, 02, 04, 07 and
    # 08: renaming or dropping one fails here instead of losing its ceiling
    assert CEILINGS.keys() >= {
        "goodman-oracle-small",
        "goodman-oracle-n7",
        "ramsey-brackets",
        "gr-k4e-witnesses",
        "partition-refinement-small",
        "partition-soundness",
        "grstar-exactness",
        "figure1-fixture",
    }
