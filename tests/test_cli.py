import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gallai import parse_coloring, pentagon_coloring
from gallai.cli import CONSTRUCT_MAX_N, main
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


def _timed(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    return (*result, time.perf_counter() - start)


def test_formula_refuses_values_past_the_digit_cap(capsys):
    # gr-k3 20000 has about 7,000 digits and gr-k4e 20000 3 more; at
    # k = 10^9 the power alone would run for minutes
    for argv in (("gr-k3", "20000"), ("gr-k4e", "20000", "3"), ("gr-k3", "1000000000")):
        code, out, err, seconds = _timed(capsys, "formula", *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: formula {argv[0]}:") and "4300 digits" in err
        assert seconds < 1, argv


def test_formula_prints_values_up_to_the_digit_cap(capsys):
    # gr_k3(12303) = 2 * 5^6151 + 1 has 4,300 digits and prints;
    # gr_k3(12304) = 5^6152 + 1 has 4,301 and is refused once computed
    code, out, _ = run(capsys, "formula", "gr-k3", "12303")
    assert code == 0 and len(out.strip()) == 4300
    code, out, err = run(capsys, "formula", "gr-k3", "12304")
    assert code == 1 and out == "" and err.startswith("error: formula gr-k3:")


@pytest.mark.parametrize(
    "argv",
    [
        ("formula", "goodman-m2", "7" * 4301),
        ("formula", "goodman-m2", "abc"),
        ("construct", "gr-k3", "7" * 4301),
        ("construct", "goodman2", "abc"),
    ],
)
def test_integer_arguments_are_refused_by_name(capsys, argv):
    # neither Python's digit-limit message nor int()'s own reaches the user
    verb, name, arg = argv
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: {verb} {name}: ") and "4300 digits" in line
    assert arg[:10] in line and "sys.set_int_max_str_digits" not in line


def _refuses_by_name(capsys, call, argv):
    # the 4,301 digits are not echoed: the line names the call, the
    # argument's first characters and length, and the digit limit
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith(f"error: {call}: '7777777777'... (4301 characters)")
    assert "4300 digits" in line and len(line) < 120


@pytest.mark.parametrize(
    "args", [("7" * 4301, "2"), ("5", "7" * 4301), ("5", "2", "--budget", "7" * 4301), ("5", "2", "--jobs", "7" * 4301)]
)
def test_search_integer_arguments_are_refused_by_name(capsys, args):
    _refuses_by_name(capsys, "search min-mono", ("search", "min-mono", *args))


@pytest.mark.parametrize("args", [("7" * 4301, "3"), ("5", "7" * 4301), ("5", "3", "--budget", "7" * 4301)])
def test_grstar_search_integer_arguments_are_refused_by_name(capsys, args):
    _refuses_by_name(capsys, "grstar-search", ("grstar-search", *args))


def test_construct_seed_is_refused_by_name(capsys):
    _refuses_by_name(
        capsys, "construct nim-star", ("construct", "nim-star", "40", "3", "4", "--seed", "7" * 4301)
    )


@pytest.mark.parametrize(
    "args",
    [
        # each asks for far more than CONSTRUCT_MAX_N vertices: the first
        # three ran out of memory under a 2 GB address-space limit, the
        # rest ran on past 10 s
        ("gr-k3", "40"),
        ("gr-k4e", "40", "2"),
        ("multiplicity", "5", "1000000000"),
        ("multiplicity", "1000000000", "3"),
        ("f-lower", "100", "1000000000"),
        ("goodman2", "1000000000"),
        ("nim-star", "1000000000", "2", "2"),
        ("f-lower", str(CONSTRUCT_MAX_N + 1), "4"),
    ],
)
def test_construct_refuses_sizes_past_the_cap(capsys, args):
    code, out, err, seconds = _timed(capsys, "construct", *args)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith(f"error: construct {args[0]}: ") and str(CONSTRUCT_MAX_N) in err
    assert seconds < 1


def test_construct_builds_at_the_cap(capsys):
    code, out, _ = run(capsys, "construct", "f-lower", str(CONSTRUCT_MAX_N), "4")
    assert code == 0 and out.startswith(f"{CONSTRUCT_MAX_N} 4\n")


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


def test_search_refuses_n_past_the_cap(capsys):
    for objective in ("min-mono", "exists-avoiding", "max-protected"):
        code, out, err, seconds = _timed(
            capsys, "search", objective, "1000000000", "2", "--budget", "10"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "n <= 100" in err
        assert seconds < 1, objective


def test_search_refuses_k_past_the_cap(capsys):
    # exists-avoiding would build a k-long default target list first
    for objective in ("min-mono", "exists-avoiding", "max-protected"):
        code, out, err, seconds = _timed(
            capsys, "search", objective, "5", "1000000000", "--budget", "10"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "k <= 32" in err
        assert seconds < 1, objective


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
    # each passing check reports what it examined
    assert all(c["detail"] for c in doc["checks"] if c["ok"])


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


def _gallai_without_site(tmp_path, *argv):
    """`python -S`: no site module, so no .pth file in site-packages
    preloads modules (some preload typing, random or importlib.resources)
    and hides an import that gallai itself pays for."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-S", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_skips_dataclasses_and_the_suite(tmp_path):
    # the start-up every verb pays: records are named tuples, and only
    # verify-suite imports gallai.verify
    proc = _gallai_without_site(tmp_path, "-c", "import sys, gallai.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "gallai.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "gallai.verify", "importlib.resources"}


def test_cli_verbs_run_without_site(tmp_path):
    (tmp_path / "p.gec").write_text(pentagon_coloring(1, 2).serialize())
    proc = _gallai_without_site(tmp_path, "-m", "gallai.cli", "formula", "gr-k3", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "11\n", "")
    proc = _gallai_without_site(tmp_path, "-m", "gallai.cli", "count", "p.gec")
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert (doc["n"], doc["rainbow"], doc["mono"]) == (5, 0, {"1": 0, "2": 0})


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
    ("search", "min-mono", "5", "2", "--targets", "K3,K3"),
    ("search", "max-protected", "5", "2", "--targets", "K3,K3"),
    ("search", "max-protected", "5", "2", "--gallai"),
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
