"""The benchmark's seeded workloads.

Each workload turns a seed into an endless stream of input blocks, runs one
input through circleact's public API (`call`, which returns the seconds
spent inside circleact and the raw output), and checks the output against
the oracles in checks.py (`check`, which returns the problems found).
Inputs are plain data; `call` builds the package's own values from them,
so the package sees only the generated inputs.

Blocks are stratified samples of each workload's input space, so that runs
with different seeds do the same mix of work.  Parameters, rationale and
predictions live in workloads.json.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
PARAMS = json.loads((HERE / "workloads.json").read_text())
DIGESTS_PATH = HERE / "hilbert_digests.json"
OUTCOME = "recovery.recover_weights."


def effective_weights(rng: Random, m: int, max_weight: int) -> tuple[int, ...]:
    """m weights in 1..max_weight divided by their gcd (the CLI campaign's rule)."""
    weights = [rng.randint(1, max_weight) for _ in range(m)]
    shared = math.gcd(*weights)
    return tuple(w // shared for w in weights)


def hilbert_universe(m_range, max_weight):
    """Every sorted effective weight tuple with m in m_range, entries <= max_weight."""
    out = []

    def grow(prefix, low, m):
        if len(prefix) == m:
            if math.gcd(*prefix) == 1:
                out.append(tuple(prefix))
            return
        for w in range(low, max_weight + 1):
            grow(prefix + [w], w, m)

    for m in range(m_range[0], m_range[1] + 1):
        grow([], 1, m)
    return out


def canonical_generators(generators) -> str:
    return json.dumps([g.to_json() for g in generators], separators=(",", ":"))


class Hilbert:
    """realize_generators(hilbert_basis(spec)) over the whole universe of
    small specs, each block a systematic sample of the universe ordered by
    recorded cost, so that every block holds one spec of each cost band."""

    name = "hilbert"

    def __init__(self):
        table = json.loads(DIGESTS_PATH.read_text())["specs"]
        rows = {tuple(map(int, key.split(","))): row for key, row in table.items()}
        self.digests = {weights: digest for weights, (_, digest, _) in rows.items()}
        self.universe = sorted(rows, key=lambda w: (rows[w][2], w))
        self.step = PARAMS[self.name]["generator"]["block_step"]

    def blocks(self, seed):
        """Offsets go through a seeded permutation of range(step) before
        any repeats, so a run's blocks sample the universe without
        replacement and its tail rests on nearly the same specs every run."""
        rng = Random(seed)
        while True:
            for offset in rng.sample(range(self.step), self.step):
                yield [(0, w) for w in self.universe[offset :: self.step]]

    def call(self, api, item):
        start = perf_counter()
        basis = api.invariants.hilbert_basis(api.action.ActionSpec(*item))
        generators = api.invariants.realize_generators(basis)
        return perf_counter() - start, (basis, generators)

    def check(self, item, raw, counts):
        basis, generators = raw
        weights = item[1]
        pairs = [(e.holomorphic, e.antiholomorphic) for e in basis]
        return checks.hilbert_problems(
            weights, pairs, canonical_generators(generators), self.digests[weights]
        )


class StratifyWide:
    """orbit_strata -> to_json -> from_json -> recover_weights, plus
    hasse_edges, on wide specs: one spec per entry of block_m."""

    name = "stratify_wide"

    def __init__(self):
        self.gen = PARAMS[self.name]["generator"]

    def blocks(self, seed):
        rng = Random(seed)
        while True:
            yield [
                (rng.randint(0, self.gen["max_trivial_dim"]),
                 effective_weights(rng, m, self.gen["max_weight"]))
                for m in self.gen["block_m"]
            ]

    def call(self, api, item):
        strat = api.stratification
        start = perf_counter()
        wire = strat.orbit_strata(api.action.ActionSpec(*item)).to_json()
        diagram = strat.StratificationDiagram.from_json(wire)
        recovered = api.recovery.recover_weights(diagram)
        hasse = strat.hasse_edges(diagram)
        return perf_counter() - start, (wire, recovered, hasse)

    def check(self, item, raw, counts):
        wire, recovered, hasse = raw
        report = {"weights": list(recovered), "trivial_dim": item[0]}
        counts[OUTCOME + checks.recovery_outcome(wire, report)] += 1
        return checks.stratify_problems(*item, wire, recovered, hasse)


def run_main(cli, argv, stdin_text, stderr):
    """cli.main(argv) in-process, with stdin fed and stdout captured."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def perturb(text: str, kind: str, pick: float, shift: int) -> str:
    """A well-typed change to a wire diagram: shift one finite stratum's dim,
    drop one finite stratum with its closure pairs, or shift ambient_dim."""
    diagram = json.loads(text)
    finite = [s for s in diagram["strata"] if s["order"] != checks.INF]
    target = finite[int(pick * len(finite))]
    if kind == "dim":
        target["dim"] += shift
    elif kind == "drop":
        diagram["strata"].remove(target)
        diagram["closure"] = [pair for pair in diagram["closure"] if target["id"] not in pair]
    else:
        diagram["ambient_dim"] += shift
    return json.dumps(diagram)


class CliRoundtrip:
    """The README pipe in-process: `stratify --format json` into
    `recover --diagram -`, with a fixed quarter of diagrams perturbed."""

    name = "cli_roundtrip"
    KINDS = ("dim", "drop", "ambient")

    def __init__(self):
        self.gen = PARAMS[self.name]["generator"]

    def blocks(self, seed):
        rng = Random(seed)
        while True:
            block = []
            for index in range(self.gen["block_size"]):
                m = rng.randint(1, self.gen["max_m"])
                weights = effective_weights(rng, m, self.gen["max_weight"])
                trivial_dim = rng.randint(0, self.gen["max_trivial_dim"])
                change = None
                if index % 4 == 3:
                    kind = self.KINDS[(index // 4) % len(self.KINDS)]
                    change = (kind, rng.random(), rng.choice((-2, 2)))
                block.append((trivial_dim, weights, change))
            yield block

    def call(self, api, item):
        trivial_dim, weights, change = item
        argv = ["stratify", "--weights", ",".join(map(str, weights)),
                "--trivial-dim", str(trivial_dim), "--format", "json"]
        stderr = io.StringIO()
        start = perf_counter()
        code, text = run_main(api.cli, argv, "", stderr)
        elapsed = perf_counter() - start
        if code != 0:
            return elapsed, (code, text, text, None, "", stderr.getvalue())
        fed = text if change is None else perturb(text, *change)
        start = perf_counter()
        recover_code, report = run_main(
            api.cli, ["recover", "--diagram", "-", "--format", "json"], fed, stderr)
        elapsed += perf_counter() - start
        return elapsed, (code, text, fed, recover_code, report, stderr.getvalue())

    def check(self, item, raw, counts):
        trivial_dim, weights, change = item
        code, text, fed, recover_code, report, stderr = raw
        diagram = json.loads(text) if code == 0 else None
        answer = json.loads(report) if recover_code == 0 else None
        if recover_code is not None:
            counts[OUTCOME + checks.recovery_outcome(json.loads(fed), answer)] += 1
        return checks.roundtrip_problems(
            trivial_dim, weights, change is not None, code, diagram, recover_code, answer, stderr
        )


class Verify:
    """run_property_suite(spec, trials, seed) at a fixed trial count: one
    spec per m in each block, so m = 2 (membership) is always present."""

    name = "verify"

    def __init__(self):
        self.gen = PARAMS[self.name]["generator"]

    def blocks(self, seed):
        rng = Random(seed)
        low, high = self.gen["m"]
        while True:
            yield [
                (effective_weights(rng, m, self.gen["max_weight"]), rng.randrange(2**31))
                for m in range(low, high + 1)
            ]

    def call(self, api, item):
        weights, suite_seed = item
        start = perf_counter()
        reports = api.numeric.run_property_suite(
            api.action.ActionSpec(0, weights), self.gen["trials"], suite_seed)
        return perf_counter() - start, reports

    def check(self, item, raw, counts):
        return checks.verify_problems(len(item[0]), self.gen["trials"], raw)


WORKLOADS = {w.name: w for w in (Hilbert, StratifyWide, CliRoundtrip, Verify)}
