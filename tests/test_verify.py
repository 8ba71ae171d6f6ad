import os
import subprocess
import sys
from pathlib import Path

import pytest

from gallai import search, verify


def test_run_suite_records_a_crash_as_failure(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    checks = list(verify.FAST_CHECKS)
    crashed = checks[1][0]
    checks[1] = (crashed, crash)
    monkeypatch.setattr(verify, "FAST_CHECKS", checks)
    results = verify.run_suite("fast")
    # the crash fails its own check and the battery runs on
    assert [r.name for r in results] == [name for name, _ in checks]
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == [crashed]
    assert failed[0].detail == "RuntimeError: boom"


SABOTAGED_SUITE = """
import sys
from gallai import formulas, verify

if sys.flags.optimize != 1:
    sys.exit("not running under -O")
formulas.gr_k3 = lambda k: 0
failed = [r.name for r in verify.run_suite("fast") if not r.ok]
print(",".join(failed))
"""


def test_suite_still_fails_under_python_O():
    # `python -O` strips `assert`; the checks must raise regardless
    src = Path(verify.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_SUITE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "formula-values" in proc.stdout.strip().split(",")


@pytest.mark.parametrize("row", verify.PROVED, ids=verify._label)
def test_proved_row_meets_its_cross_check(row):
    # no search: the recorded value against the library's formula or
    # construction, for the rows no test runs as well
    assert row.level in ("fast", "full", "ci", "record")
    want = verify._expected(row)
    assert want == row.value if row.exhaustive else want is None


PROVING_CHECKS = {
    "goodman-oracle-small",
    "goodman-oracle-n7",
    "ramsey-brackets",
    "gallai-min-mono-frontier",
    "max-protected-frontier",
}


def test_checks_prove_every_suite_row_once(monkeypatch):
    proved = []

    def record(row):
        proved.append(row)
        return verify._label(row)

    monkeypatch.setattr(verify, "_prove", record)
    for name, fn in verify.FULL_CHECKS:
        if name in PROVING_CHECKS:
            fn()
    suite_rows = [row for row in verify.PROVED if row.level in ("fast", "full")]
    assert sorted(proved) == sorted(suite_rows)
    proved.clear()
    for name, fn in verify.FAST_CHECKS:
        if name in PROVING_CHECKS:
            fn()
    assert proved == [row for row in verify.PROVED if row.level == "fast"]


def test_prove_rejects_an_edited_row():
    row = next(row for row in verify.PROVED if row.level == "fast" and row.value)
    verify._prove(row)
    for edit in ({"value": row.value + 1}, {"nodes": row.nodes + 1}):
        with pytest.raises(AssertionError):
            verify._prove(row._replace(**edit))
    # a parallel run inside the allowance is the serial walk, so its node
    # count is pinned as well
    row = next(row for row in verify.PROVED if row.jobs > 1 and row.level == "full")
    assert row.nodes <= search._PROBE
    with pytest.raises(AssertionError, match="nodes"):
        verify._prove(row._replace(nodes=row.nodes + 1))
