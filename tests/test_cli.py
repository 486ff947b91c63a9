import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circleact
from circleact.cli import main
from circleact.recovery import MAX_RECOVERED_WEIGHTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text_golden(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--weights", "1,2")
    assert code == 0
    assert out.splitlines() == [
        "|z1|^2",
        "|z2|^2",
        "Re(z1^2 zbar2)",
        "Im(z1^2 zbar2)",
    ]


def test_invariants_json_schema(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--weights", "1,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"k": [1, 0], "kbar": [1, 0], "part": "abs2"},
        {"k": [0, 1], "kbar": [0, 1], "part": "abs2"},
        {"k": [2, 0], "kbar": [0, 1], "part": "re"},
        {"k": [2, 0], "kbar": [0, 1], "part": "im"},
    ]


def test_invariants_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "invariants", "--weights", "2,2,3,4,6")
    _, second, _ = run_cli(capsys, "invariants", "--weights", "2,2,3,4,6")
    assert first == second


def test_stratify_json_and_recover_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "stratify", "--weights", "2,2,3,4,6", "--format", "json"
    )
    assert code == 0
    path = tmp_path / "diagram.json"
    path.write_text(out)

    code, out, _ = run_cli(capsys, "recover", "--diagram", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "weights": [2, 2, 3, 4, 6],
        "trivial_dim": 0,
        "m": 5,
        "n": 10,
    }


def run_piped(argv, stdin_text=""):
    out = io.StringIO()
    with redirect_stdout(out), mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=6), st.integers(0, 4))
def test_recover_reports_the_piped_action_at_every_trivial_dim(raw, t):
    weights = [w // math.gcd(*raw) for w in raw]
    argv = ["stratify", "--weights", ",".join(map(str, weights)), "--trivial-dim", str(t)]
    code, diagram = run_piped(argv + ["--format", "json"])
    assert code == 0
    code, out = run_piped(["recover", "--diagram", "-", "--format", "json"], diagram)
    assert code == 0
    m = len(weights)
    report = {"weights": sorted(weights), "trivial_dim": t, "m": m, "n": t + 2 * m}
    assert out == json.dumps(report) + "\n"


def test_recover_text_report():
    argv = ["stratify", "--weights", "1,2", "--trivial-dim", "3", "--format", "json"]
    _, diagram = run_piped(argv)
    code, out = run_piped(["recover", "--diagram", "-"], diagram)
    assert code == 0
    assert out.splitlines() == ["weights: [1, 2]", "trivial_dim: 3", "m: 2", "n: 7"]


def test_recover_reads_stdin(capsys, monkeypatch):
    _, out, _ = run_cli(capsys, "stratify", "--weights", "1,2,3", "--format", "json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "recover", "--diagram", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["weights"] == [1, 2, 3]


def test_stratify_text_lists_faces_strata_edges(capsys):
    code, out, _ = run_cli(capsys, "stratify", "--weights", "1,2,3")
    assert code == 0
    assert "ambient dimension: 6" in out
    assert "S_123  order 1  codim 0" in out
    assert "order:2  order 2  dim 1" in out
    assert "distinguished  order inf  dim 0" in out
    assert "order:2 < order:1" in out


def test_stratify_writes_dot(capsys, tmp_path):
    dot_path = tmp_path / "diagram.dot"
    code, _, _ = run_cli(
        capsys, "stratify", "--weights", "1,2,3", "--dot", str(dot_path)
    )
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    assert '"order:3" -> "order:1";' in dot


def test_stratify_respects_trivial_dim(capsys):
    code, out, _ = run_cli(
        capsys, "stratify", "--weights", "1", "--trivial-dim", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ambient_dim"] == 4
    assert {s["id"]: s["dim"] for s in data["strata"]} == {
        "order:1": 3,
        "distinguished": 2,
    }


def test_roundtrip_single_spec(capsys):
    code, out, _ = run_cli(capsys, "roundtrip", "--weights", "1,2,3")
    assert code == 0
    assert "pass" in out


def test_roundtrip_campaign(capsys):
    code, out, _ = run_cli(
        capsys, "roundtrip", "--trials", "50", "--seed", "7", "--max-m", "4",
        "--max-weight", "12",
    )
    assert code == 0
    report = json.loads(out)
    assert report == {"check": "roundtrip", "seed": 7, "trials": 50, "failures": 0}


def test_verify_emits_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--weights", "1,2", "--trials", "60", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ok"
    reports = [json.loads(line) for line in lines[:-1]]
    assert [r["check"] for r in reports] == [
        "invariance",
        "homogeneity",
        "separation",
        "membership_m2",
    ]
    assert all(r["failures"] == 0 for r in reports)


def test_bad_weights_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariants", "--weights", "2,4")
    assert code == 2
    assert "NotEffective" in err


def test_unparseable_weights_exit_code(capsys):
    code, _, err = run_cli(capsys, "invariants", "--weights", "1,banana")
    assert code == 2


@pytest.mark.parametrize("text", ["1,x", ""])
@pytest.mark.parametrize("command", ["invariants", "stratify", "roundtrip", "verify"])
def test_unparseable_weights_name_the_expected_format(capsys, command, text):
    code, out, err = run_cli(capsys, command, "--weights", text)
    assert code == 2
    assert out == ""
    assert f"argument --weights: expects comma-separated integers, got {text!r}" in err
    assert "_parse_weights" not in err


def test_all_zero_weights_share_one_refusal(capsys):
    errs = set()
    for command in ("invariants", "stratify", "roundtrip", "verify"):
        for text in ("0", "0,0"):
            code, out, err = run_cli(capsys, command, "--weights", text)
            assert code == 2
            assert out == ""
            errs.add(err)
    assert len(errs) == 1
    (err,) = errs
    assert err.startswith("error: EmptyAction: ") and err.count("\n") == 1


def test_missing_diagram_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "recover", "--diagram", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_malformed_diagram_json_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient_dim": 2}')
    code, _, err = run_cli(capsys, "recover", "--diagram", str(path))
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "stratify")[0] == 2  # --weights is required


@pytest.mark.parametrize(
    "argv",
    [
        ["roundtrip", "--trials", "-5"],
        ["verify", "--weights", "1,2", "--trials", "-5"],
    ],
    ids=["roundtrip", "verify"],
)
def test_negative_trials_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument --trials: must be >= 0, got -5" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_verify_tol_must_be_positive_and_finite(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "--weights", "1,2", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "argument --tol: must be a positive finite number" in err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--max-m", "--max-weight"])
def test_roundtrip_campaign_bounds_must_be_positive(capsys, flag, value):
    code, out, err = run_cli(capsys, "roundtrip", flag, value)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be > 0, got {value}" in err


def test_roundtrip_campaign_refuses_max_m_past_the_recovery_bound(capsys):
    # A campaign would build a list of up to --max-m weights per trial.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "roundtrip", "--trials", "3", "--seed", "1", "--max-m", "1000000000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert (
        f"argument --max-m: must be <= {MAX_RECOVERED_WEIGHTS} (the recovery bound), "
        "got 1000000000"
    ) in err
    assert "Traceback" not in err


WIRE_1_2 = {
    "ambient_dim": 4,
    "strata": [
        {"id": "order:1", "order": 1, "dim": 3},
        {"id": "order:2", "order": 2, "dim": 1},
        {"id": "distinguished", "order": "inf", "dim": 0},
    ],
    "closure": [
        ["distinguished", "order:1"],
        ["distinguished", "order:2"],
        ["order:2", "order:1"],
    ],
}


def _wire_with(key, value, stratum=None):
    data = json.loads(json.dumps(WIRE_1_2))
    (data if stratum is None else data["strata"][stratum])[key] = value
    return json.dumps(data)


OFF_SCHEMA_DIAGRAMS = {
    "top-level-list": "[]",
    "top-level-string": '"diagram"',
    "ambient-dim-null": _wire_with("ambient_dim", None),
    "ambient-dim-float": _wire_with("ambient_dim", 4.0),
    "ambient-dim-bool": _wire_with("ambient_dim", True),
    "strata-string": '{"strata": "xx"}',
    "stratum-not-object": '{"ambient_dim": 4, "strata": [3], "closure": []}',
    "closure-string": _wire_with("closure", "xx"),
    "closure-short-pair": _wire_with("closure", [["order:2"]]),
    "closure-int-pair": _wire_with("closure", [7]),
    "order-1.9": _wire_with("order", 1.9, stratum=1),
    "order-2.5": _wire_with("order", 2.5, stratum=1),
    "order-bool": _wire_with("order", True, stratum=0),
    "order-string": _wire_with("order", "2", stratum=1),
    "dim-float": _wire_with("dim", 1.0, stratum=1),
    "dim-bool": _wire_with("dim", False, stratum=2),
    "ambient-dim-not-top-plus-one": _wire_with("ambient_dim", 99),
    "nested-100000-deep": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("text", list(OFF_SCHEMA_DIAGRAMS.values()), ids=list(OFF_SCHEMA_DIAGRAMS))
def test_recover_rejects_off_schema_diagram(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "recover", "--diagram", str(path))
    assert code == 2
    assert out == ""
    assert "MalformedDiagram" in err
    assert "Traceback" not in err


def test_recover_accepts_the_unmodified_wire_fixture(capsys, tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(WIRE_1_2))
    code, out, _ = run_cli(capsys, "recover", "--diagram", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["weights"] == [1, 2]


@pytest.mark.parametrize("m", [10**6 + 1, 10**20])
def test_recover_refuses_a_diagram_claiming_too_many_weights(capsys, monkeypatch, m):
    diagram = {
        "ambient_dim": 2 * m,
        "strata": [
            {"id": "a", "order": 1, "dim": 2 * m - 1},
            {"id": "d", "order": "inf", "dim": 0},
        ],
        "closure": [["d", "a"]],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(diagram)))
    code, out, err = run_cli(capsys, "recover", "--diagram", "-")
    assert code == 2
    assert out == ""
    assert f"TooManyWeights: diagram claims m = {m} weights" in err
    assert "1000000" in err
    assert "Traceback" not in err


def test_stratify_text_refuses_more_than_16_coordinates(capsys, tmp_path):
    weights = ",".join(str(w) for w in range(1, 18))
    dot_path = tmp_path / "wide.dot"
    code, out, err = run_cli(capsys, "stratify", "--weights", weights, "--dot", str(dot_path))
    assert code == 2
    assert out == ""
    assert "TooManyFaces" in err
    assert "--format json" in err
    assert not dot_path.exists()
    code, out, _ = run_cli(capsys, "stratify", "--weights", weights, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["strata"]) == 18


def test_wide_stratify_json_pipes_into_recover(capsys, monkeypatch):
    weights = list(range(1, 65))
    code, out, _ = run_cli(
        capsys, "stratify", "--weights", ",".join(map(str, weights)), "--format", "json"
    )
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out, _ = run_cli(capsys, "recover", "--diagram", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["weights"] == weights


def test_invariants_refuses_a_huge_weight_ratio(capsys):
    code, out, err = run_cli(capsys, "invariants", "--weights", "1,10000000")
    assert code == 2
    assert out == ""
    assert "TooManyCandidates" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weights", ["1,1100", "1,10000"])
def test_verify_high_degree_generators_pass(capsys, weights):
    code, out, err = run_cli(capsys, "verify", "--weights", weights, "--trials", "4")
    assert code == 0
    assert err == ""
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [r["failures"] for r in reports] == [0, 0, 0, 0]
    assert out.splitlines()[-1] == "ok"


def test_recover_refuses_a_negative_fixed_point_dim(capsys, monkeypatch):
    diagram = {
        "ambient_dim": 4,
        "strata": [{"id": "a", "order": 1, "dim": 3}, {"id": "z", "order": "inf", "dim": -2}],
        "closure": [["z", "a"]],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(diagram)))
    code, out, err = run_cli(capsys, "recover", "--diagram", "-")
    assert code == 2
    assert out == ""
    assert "MalformedDiagram: distinguished stratum has negative dim -2" in err
    assert "Traceback" not in err


def test_recover_refuses_a_diagram_no_action_produces(capsys, monkeypatch):
    # counted weights (1, 1, 1, 6, 12) have no order-4 stratum
    orders_dims = [(1, 10), (4, 2), (6, 4), (12, 2)]
    diagram = {
        "ambient_dim": 11,
        "strata": [{"id": f"s{d}", "order": d, "dim": dim} for d, dim in orders_dims]
        + [{"id": "z", "order": "inf", "dim": 1}],
        "closure": [["z", f"s{d}"] for d, _ in orders_dims]
        + [[f"s{d}", f"s{e}"] for d, _ in orders_dims for e, _ in orders_dims
           if d != e and d % e == 0],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(diagram)))
    code, out, err = run_cli(capsys, "recover", "--diagram", "-")
    assert code == 2
    assert out == ""
    assert "UncertifiedDiagram" in err
    assert "Traceback" not in err


def test_recover_refuses_orders_missing_a_gcd():
    # orders N/p for the first 24 primes p: their gcd closure has 2^24 orders,
    # so a certificate that lets the closure grow hangs; run it in a child
    # process that the suite can time out instead of hanging.
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))][:24]
    n = math.prod(primes)
    strata = [{"id": "top", "order": 1, "dim": 48}]
    strata += [{"id": f"s{p}", "order": n // p, "dim": 2} for p in primes]
    diagram = {
        "ambient_dim": 49,
        "strata": strata + [{"id": "z", "order": "inf", "dim": 1}],
        "closure": [["z", s["id"]] for s in strata] + [[s["id"], "top"] for s in strata[1:]],
    }
    src = os.path.dirname(os.path.dirname(circleact.__file__))
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "circleact", "recover", "--diagram", "-"],
        input=json.dumps(diagram), capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert time.perf_counter() - start < 1.0
    code, out, err = child.returncode, child.stdout, child.stderr
    assert code == 2
    assert out == ""
    assert "UncertifiedDiagram: no stratum has order" in err
    assert "Traceback" not in err


def test_recover_names_the_smallest_unknown_closure_pair_under_every_hash_seed():
    diagram = json.dumps(
        {
            "ambient_dim": 3,
            "strata": [{"id": "a", "order": 1, "dim": 2}, {"id": "z", "order": "inf", "dim": 0}],
            "closure": [["z", "a"], ["q", "a"], ["b", "c"], ["x", "y"], ["m", "n"]],
        }
    )
    src = os.path.dirname(os.path.dirname(circleact.__file__))
    errs = set()
    for seed in "0123":
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "circleact", "recover", "--diagram", "-"],
            input=diagram,
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 2
        errs.add(done.stderr)
    assert len(errs) == 1
    assert "closure pair (b, c) names unknown strata" in errs.pop()


def test_cli_corpus_output_is_the_committed_golden_file():
    """tests/cli_corpus.txt was written by tests/cli_corpus.py; an intended
    output change regenerates it, so review shows the changed lines."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(circleact.__file__))
    done = subprocess.run(
        [sys.executable, os.path.join(tests, "cli_corpus.py")],
        capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(tests, "cli_corpus.txt"), "rb") as fh:
        golden = fh.read()
    assert done.stdout == golden
