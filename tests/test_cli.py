import json
import os
import subprocess
import sys
from pathlib import Path

from gallai import parse_coloring, pentagon_coloring
from gallai.cli import main
from gallai.grstar import parse_extended_coloring, serialize_extended_coloring, figure1_fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_plain(capsys):
    code, out, _ = run(capsys, "formula", "gr-k3", "4")
    assert code == 0 and out.strip() == "26"


def test_formula_guarded(capsys):
    code, out, _ = run(capsys, "formula", "m3", "16")
    assert code == 0 and out.strip() == "8 asymptotic-only"


def test_formula_pair_output(capsys):
    code, out, _ = run(capsys, "formula", "g-bounds", "3", "11")
    assert code == 0 and out.strip() == "1 1"


def test_formula_arity_error(capsys):
    code, _, err = run(capsys, "formula", "gr-k3")
    assert code == 1 and "argument" in err


def test_construct_stdout_roundtrip(capsys):
    code, out, _ = run(capsys, "construct", "pentagon", "1", "2")
    assert code == 0
    assert parse_coloring(out) == pentagon_coloring(1, 2)


def test_construct_to_file_and_count(capsys, tmp_path):
    target = tmp_path / "g.gec"
    code, out, _ = run(capsys, "construct", "gr-k3", "4", "-o", str(target))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "count", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["n"] == 25 and doc["k"] == 4
    assert doc["rainbow"] == 0
    assert sum(doc["mono"].values()) == 0
    assert doc["protected_edges"] == 300  # C(25,2): no bad triangle at all


def test_construct_seed_reproducible(capsys):
    _, out1, _ = run(capsys, "construct", "nim-star", "20", "3", "3", "--seed", "4")
    _, out2, _ = run(capsys, "construct", "nim-star", "20", "3", "3", "--seed", "4")
    assert out1 == out2


def test_partition_output(capsys, tmp_path):
    target = tmp_path / "p.gec"
    run(capsys, "construct", "pentagon", "1", "2", "-o", str(target))
    code, out, _ = run(capsys, "partition", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "part 1: 1"
    assert "between colors: 1 2" in lines
    assert "reduced:" in lines
    reduced = parse_coloring("\n".join(lines[lines.index("reduced:") + 1 :]))
    assert reduced.n == 5


def test_partition_minimize(capsys, tmp_path):
    target = tmp_path / "m.gec"
    run(capsys, "construct", "goodman2", "4", "-o", str(target))
    code, out, _ = run(capsys, "partition", str(target), "--minimize")
    assert code == 0


def test_partition_rejects_rainbow(capsys, tmp_path):
    target = tmp_path / "r.gec"
    target.write_text("3 3\n1 2 1\n1 3 2\n2 3 3\n")
    code, _, err = run(capsys, "partition", str(target))
    assert code == 1 and "rainbow" in err


def test_count_parse_error(capsys, tmp_path):
    target = tmp_path / "bad.gec"
    target.write_text("3 2\n1 2 1\n")
    code, _, err = run(capsys, "count", str(target))
    assert code == 1 and "error" in err


def test_count_rejects_oversized_header(capsys, tmp_path):
    target = tmp_path / "huge.gec"
    target.write_text("1000000000 2\n1 2 1\n")
    code, out, err = run(capsys, "count", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "pair (1, 3) missing" in err


def test_grstar_check(capsys, tmp_path):
    target = tmp_path / "f.gecx"
    target.write_text(serialize_extended_coloring(figure1_fixture()))
    code, out, _ = run(capsys, "grstar-check", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] and doc["gallai"] and doc["monoTriangleFree"]
    assert doc["singletonClash"] is None


def test_grstar_check_failing_exit_code(capsys, tmp_path):
    target = tmp_path / "clash.gecx"
    target.write_text("2 2\n1 2 1\nSINGLETONS\n1 1\n2 2\n")
    code, out, _ = run(capsys, "grstar-check", str(target))
    assert code == 1
    assert json.loads(out)["singletonClash"] == [1, 2]


def test_grstar_search(capsys, tmp_path):
    code, out, _ = run(capsys, "grstar-search", "3", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["witness_gecx"] is None

    target = tmp_path / "w.gecx"
    code, out, _ = run(capsys, "grstar-search", "5", "3", "-o", str(target))
    doc = json.loads(out)
    assert doc["found"] is True
    ext = parse_extended_coloring(target.read_text())
    assert ext.pairs.n == 5


def test_grstar_search_budget_exhausted_is_an_error(capsys):
    code, out, err = run(capsys, "grstar-search", "6", "3", "--budget", "5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_search_rejects_nonpositive_jobs(capsys):
    for objective in ("min-mono", "exists-avoiding", "max-protected"):
        for jobs in ("0", "-2"):
            code, out, err = run(capsys, "search", objective, "5", "2", "--jobs", jobs)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "jobs" in err


def test_search_json_and_witness_file(capsys, tmp_path):
    target = tmp_path / "w.gec"
    code, out, _ = run(capsys, "search", "min-mono", "6", "2", "-o", str(target))
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2 and doc["exhaustive"] is True
    witness = parse_coloring(target.read_text())
    assert witness.n == 6
    assert doc["witness_gec"] == witness.serialize()


def test_search_exists_with_targets(capsys):
    code, out, _ = run(
        capsys, "search", "exists-avoiding", "8", "2", "--targets", "K4+e,K3"
    )
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_search_gallai_flag(capsys):
    code, out, _ = run(capsys, "search", "min-mono", "6", "3", "--gallai")
    assert json.loads(out)["value"] == 0


def test_search_target_validation(capsys):
    code, _, err = run(capsys, "search", "exists-avoiding", "5", "2", "--targets", "K9,K3")
    assert code == 1 and "unknown target" in err


def test_verify_suite_fast_json(capsys):
    code, out, _ = run(capsys, "verify-suite", "--level", "fast", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {c["name"] for c in doc["checks"]} >= {"pentagon-gadget", "figure1-fixture"}


def test_verify_suite_fast_text(capsys):
    code, out, _ = run(capsys, "verify-suite")
    assert code == 0
    assert "PASS goodman-oracle-small" in out
    assert out.strip().endswith("checks passed")


def _gallai(tmp_path, *argv):
    """One `gallai` process, as a user starts it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "gallai.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


BAD_CALLS = [
    ("formula", "goodman-m2", "0"),
    ("construct", "goodman2", "0"),
    ("count", "missing.gec"),
    ("count", "bad.gec"),
    ("partition", "missing.gec"),
    ("partition", "bad.gec"),
    ("grstar-check", "missing.gecx"),
    ("grstar-check", "bad.gec"),
    ("grstar-search", "0", "3"),
    ("search", "min-mono", "0", "2"),
    ("search", "exists-avoiding", "5", "2", "--targets", "K9,K3"),
    ("search", "min-mono", "5", "2", "--jobs", "0"),
    ("search", "min-mono", "5", "2", "--budget", "-5"),
    ("grstar-search", "5", "3", "--budget", "-1"),
    ("grstar-search", "1", "3", "--budget", "-1"),
    ("verify-suite", "--level", "bogus"),
]

GOOD_CALLS = [
    ("formula", "gr-k3", "3"),
    ("construct", "pentagon", "1", "2", "-o", "good.gec"),
    ("count", "good.gec"),
    ("partition", "good.gec"),
    ("grstar-check", "good.gecx"),
    ("grstar-search", "3", "2"),
    ("search", "min-mono", "6", "2", "--jobs", "2"),
    # 1,225 edges deep: the search has no depth limit, so the budget ends it
    ("search", "max-protected", "50", "2", "--budget", "5000"),
    ("verify-suite", "--level", "fast"),
]


def test_cli_contract(tmp_path):
    # every verb: bad input gives exit 1 and an error line, never a
    # traceback; one good call exits 0
    (tmp_path / "bad.gec").write_text("3 2\n1 2 1\n")
    (tmp_path / "good.gecx").write_text(serialize_extended_coloring(figure1_fixture()))
    verbs = set()
    for argv in BAD_CALLS:
        proc = _gallai(tmp_path, *argv)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert any(line.startswith("error:") for line in proc.stderr.splitlines()), argv
        verbs.add(argv[0])
    for argv in GOOD_CALLS:
        proc = _gallai(tmp_path, *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stderr == "", argv
        if "--budget" in argv:
            assert json.loads(proc.stdout)["exhaustive"] is False, argv
        verbs.add(argv[0])
    assert verbs == {
        "formula",
        "construct",
        "count",
        "partition",
        "grstar-check",
        "grstar-search",
        "search",
        "verify-suite",
    }
