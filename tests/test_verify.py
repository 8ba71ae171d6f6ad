import os
import subprocess
import sys
from pathlib import Path

from gallai import verify


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
