"""Output-identity corpus for the circleact command line.

Runs a seeded set of in-process ``circleact.cli.main`` invocations over all
five commands, error cases included: bad ``--weights``, refused bounds,
malformed, perturbed and missing diagrams, and ``stratify --dot`` files.
For each invocation it prints one line: the argv, the exit code, and the
sha256 of everything the call wrote (stdout, then stderr, then the DOT file
if it wrote one).  Two source trees behave the same on the corpus iff their
outputs are equal:

    PYTHONPATH=<tree>/src python tests/cli_corpus.py > corpus.txt

``tests/cli_corpus.txt`` holds this tree's output, written with
``PYTHONHASHSEED=0``, and ``test_cli.py`` compares a fresh run with it byte
for byte; a change that means to alter an output regenerates it.

Files are written to a scratch directory entered as the working directory,
so argv and messages carry the same relative paths on every run.  The name
does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from random import Random

from circleact.cli import main

SEED = 20240817


def run(argv: list[str], stdin: str = "", dot: str | None = None) -> str:
    """One corpus line: argv, exit code and the digest of what was written."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a traceback the CLI should not have let out
        code = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = saved_stdin
    written = out.getvalue() + "\0" + err.getvalue()
    if dot is not None and os.path.exists(dot):
        with open(dot, encoding="utf-8") as fh:
            written += "\0" + fh.read()
        os.remove(dot)
    digest = hashlib.sha256(written.encode()).hexdigest()
    return f"{json.dumps(argv)} exit={code} sha256={digest}"


def weights_text(rng: Random, max_m: int = 4, max_weight: int = 12) -> str:
    """Raw weights as the CLI takes them: zeros and negatives included, and
    sometimes sharing a divisor (refused as NotEffective)."""
    m = rng.randint(1, max_m)
    return ",".join(str(rng.randint(-max_weight // 3, max_weight)) for _ in range(m))


def effective_weights(rng: Random, max_m: int = 5, max_weight: int = 12) -> list[int]:
    weights = [rng.randint(1, max_weight) for _ in range(rng.randint(1, max_m))]
    shared = math.gcd(*weights)
    return [w // shared for w in weights]


def perturbed(rng: Random, diagram: dict) -> dict:
    """The diagram with one field changed, a closure pair dropped or added,
    or a stratum removed."""
    data = json.loads(json.dumps(diagram))
    strata, closure = data["strata"], data["closure"]
    how = rng.randrange(6)
    if how == 0:
        data["ambient_dim"] += rng.choice([-2, -1, 1, 2])
    elif how == 1:
        rng.choice(strata)["dim"] += rng.choice([-2, -1, 1, 2])
    elif how == 2:
        finite = [s for s in strata if s["order"] != "inf"]
        rng.choice(finite)["order"] += rng.choice([1, 2, 3])
    elif how == 3 and closure:
        closure.pop(rng.randrange(len(closure)))
    elif how == 4:
        ids = [s["id"] for s in strata]
        closure.append([rng.choice(ids), rng.choice(ids)])
    else:
        strata.pop(rng.randrange(len(strata)))
    return data


MALFORMED = [
    "",
    "not json",
    "[]",
    '"diagram"',
    "[" * 5000 + "]" * 5000,
    '{"strata": "xx"}',
    '{"ambient_dim": 4, "strata": [3], "closure": []}',
    '{"ambient_dim": 4, "strata": [], "closure": []}',
]


def malformed_fields() -> list[str]:
    base = {
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
    texts = []
    for key, value, stratum in [
        ("ambient_dim", None, None),
        ("ambient_dim", 4.0, None),
        ("ambient_dim", True, None),
        ("ambient_dim", "4", None),
        ("closure", "xx", None),
        ("closure", [["order:2"]], None),
        ("closure", [7], None),
        ("closure", [["order:2", "nowhere"]], None),
        ("order", 1.9, 1),
        ("order", True, 0),
        ("order", "2", 1),
        ("order", 0, 1),
        ("order", -2, 1),
        ("order", "inf", 1),
        ("dim", 1.0, 1),
        ("dim", False, 2),
        ("dim", -1, 2),
        ("id", "order:1", 1),
    ]:
        data = json.loads(json.dumps(base))
        (data if stratum is None else data["strata"][stratum])[key] = value
        texts.append(json.dumps(data))
    return texts


def corpus() -> list[tuple[list[str], str, str | None]]:
    """(argv, stdin, DOT path) for every invocation, in a fixed order."""
    rng = Random(SEED)
    calls: list[tuple[list[str], str, str | None]] = []

    def add(argv, stdin="", dot=None):
        calls.append((argv, stdin, dot))

    # invariants
    for _ in range(70):
        fmt = rng.choice(["text", "json"])
        add(["invariants", "--weights", weights_text(rng), "--format", fmt])
    for bad in ["1,x", "", "x", "1,,2", "1.5,2", "0", "0,0", "2,4", "1,10000000"]:
        add(["invariants", "--weights", bad])
    add(["invariants"])

    # stratify, with and without DOT files
    for i in range(110):
        argv = ["stratify", "--weights", weights_text(rng, 6, 30)]
        if rng.random() < 0.5:
            argv += ["--trivial-dim", str(rng.randint(0, 4))]
        argv += ["--format", rng.choice(["text", "json"])]
        if i % 3 == 0:
            argv += ["--dot", "out.dot"]
            add(argv, dot="out.dot")
        else:
            add(argv)
    for bad in ["1,x", "", "3,6,9", "0,0"]:
        add(["stratify", "--weights", bad])
    add(["stratify", "--weights", "1,2", "--trivial-dim", "-1"])
    add(["stratify", "--weights", "1,2", "--trivial-dim", "x"])
    add(["stratify", "--weights", ",".join(["1"] * 17)])
    add(["stratify", "--weights", ",".join(["1"] * 17), "--format", "json"])
    add(["stratify", "--weights", "1,2", "--dot", "no-such-dir/out.dot"])
    add(["stratify"])

    # recover: genuine diagrams from files and stdin, perturbed, malformed, missing
    genuine = []
    for _ in range(60):
        weights = effective_weights(rng, 6, 30)
        trivial = rng.randint(0, 3)
        argv = ["stratify", "--weights", ",".join(map(str, weights)), "--trivial-dim",
                str(trivial), "--format", "json"]
        out = io.StringIO()
        with redirect_stdout(out):
            main(argv)
        genuine.append(json.loads(out.getvalue()))
    for i, diagram in enumerate(genuine):
        fmt = rng.choice(["text", "json"])
        if i % 2:
            add(["recover", "--diagram", "-", "--format", fmt], stdin=json.dumps(diagram))
        else:
            path = f"genuine-{i}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(diagram, fh)
            add(["recover", "--diagram", path, "--format", fmt])
    for _ in range(90):
        text = json.dumps(perturbed(rng, rng.choice(genuine)))
        add(["recover", "--diagram", "-", "--format", rng.choice(["text", "json"])], stdin=text)
    for i, text in enumerate(MALFORMED + malformed_fields()):
        path = f"malformed-{i}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        add(["recover", "--diagram", path])
        add(["recover", "--diagram", "-", "--format", "json"], stdin=text)
    add(["recover", "--diagram", "missing.json"])
    add(["recover", "--diagram", "."])
    add(["recover"])

    # roundtrip: single specs, small campaigns and refused bounds
    for _ in range(50):
        argv = ["roundtrip", "--weights", weights_text(rng, 5, 20)]
        if rng.random() < 0.5:
            argv += ["--trivial-dim", str(rng.randint(0, 3))]
        add(argv + ["--format", rng.choice(["text", "json"])])
    for _ in range(30):
        add(["roundtrip", "--trials", str(rng.randint(0, 20)), "--seed", str(rng.randint(0, 999)),
             "--max-m", str(rng.randint(1, 8)), "--max-weight", str(rng.randint(1, 40))])
    for flag, value in [("--trials", "-1"), ("--trials", "x"), ("--max-m", "0"), ("--max-m", "-3"),
                        ("--max-m", "x"), ("--max-weight", "0"), ("--max-weight", "-3"),
                        ("--seed", "x"), ("--weights", "1,x"), ("--weights", "2,4")]:
        add(["roundtrip", flag, value])

    # verify: a few trials each, and refused tolerances and trial counts
    for _ in range(40):
        weights = ",".join(map(str, effective_weights(rng, 3, 6)))
        add(["verify", "--weights", weights, "--trials", str(rng.randint(0, 12)),
             "--seed", str(rng.randint(0, 999)), "--format", rng.choice(["text", "json"])])
    for flag, value in [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
                        ("--tol", "x"), ("--trials", "-5"), ("--weights", "2,4"),
                        ("--weights", "1,x")]:
        add(["verify", "--weights", "1,2", flag, value] if flag != "--weights"
            else ["verify", flag, value])

    # the parser itself
    for argv in [[], ["nope"], ["-h"], ["invariants", "-h"], ["recover", "--format", "xml"]]:
        add(argv)
    return calls


def main_corpus() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        home = os.getcwd()
        os.chdir(scratch)
        try:
            calls = corpus()
            for argv, stdin, dot in calls:
                print(run(argv, stdin, dot))
        finally:
            os.chdir(home)
    print(f"{len(calls)} invocations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main_corpus())
