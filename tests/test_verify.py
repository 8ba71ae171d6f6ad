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
