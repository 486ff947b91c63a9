"""Tests for the benchmark itself: each output check fails on a corrupted
output, the metric names match BENCHMARK.json, and spans keep their schema.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
from tracing import PER_LAYER_UNITS, SPAN_FIELDS, Tracer, self_times
from workloads import (
    PARAMS,
    WORKLOADS,
    CliRoundtrip,
    Hilbert,
    StratifyWide,
    Verify,
    canonical_generators,
    hilbert_universe,
    perturb,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def api():
    sys.path.insert(0, str(run.SRC))
    return run.import_fresh()


# --- hilbert ---------------------------------------------------------------


def hilbert_output(api, weights):
    workload = Hilbert()
    _, (basis, generators) = workload.call(api, (0, weights))
    pairs = sorted((e.holomorphic, e.antiholomorphic) for e in basis)
    return workload.digests[weights], pairs, canonical_generators(generators)


def test_hilbert_check_passes_on_the_program_output(api):
    digest, pairs, text = hilbert_output(api, (1, 2, 3))
    assert checks.hilbert_problems((1, 2, 3), pairs, text, digest) == []


def test_hilbert_check_fails_on_each_corruption(api):
    weights = (1, 2, 3)
    digest, pairs, text = hilbert_output(api, weights)
    off_diagonal = next(i for i, (k, kbar) in enumerate(pairs) if k != kbar)
    k, kbar = pairs[off_diagonal]
    conjugate = pairs.index((kbar, k))
    unit = ((1, 0, 0), (1, 0, 0))

    def check(basis, gens=text):
        return " ".join(checks.hilbert_problems(weights, basis, gens, digest))

    assert "conjugate" in check([p for i, p in enumerate(pairs) if i != off_diagonal])
    # A whole conjugate pair missing leaves a valid-looking antichain: only
    # the digest of the realized generators can tell.
    pair_dropped = [p for i, p in enumerate(pairs) if i not in (off_diagonal, conjugate)]
    gens = [g for g in json.loads(text) if {(tuple(g["k"]), tuple(g["kbar"]))} & {(k, kbar), (kbar, k)}]
    assert len(gens) == 2
    fewer = json.dumps([g for g in json.loads(text) if g not in gens], separators=(",", ":"))
    assert check(pair_dropped, fewer).startswith("generator digest")
    assert "|z1|^2 is missing" in check([p for p in pairs if p != unit])
    assert "circle weight" in check(pairs + [((1, 0, 0), (0, 0, 0))])
    summed = tuple(a + b for a, b in zip(k, unit[0])), tuple(a + b for a, b in zip(kbar, unit[1]))
    mirrored = summed[1], summed[0]
    assert "dominates" in check(pairs + [summed, mirrored])
    assert "digest" in check(pairs, text[:-1] + ",{}]")


def test_hilbert_universe_matches_the_digest_table():
    gen = PARAMS["hilbert"]["generator"]
    assert sorted(Hilbert().digests) == sorted(hilbert_universe(gen["m"], gen["max_weight"]))


# --- stratify_wide ---------------------------------------------------------


def stratify_output(api, item):
    _, (wire, recovered, hasse) = StratifyWide().call(api, item)
    return wire, recovered, hasse


def test_stratify_check_fails_on_each_corruption(api):
    item = (2, (6, 10, 15, 4))
    wire, recovered, hasse = stratify_output(api, item)
    assert checks.stratify_problems(*item, wire, recovered, hasse) == []

    def with_strata(edit):
        corrupt = json.loads(json.dumps(wire))
        edit(corrupt)
        return " ".join(checks.stratify_problems(*item, corrupt, recovered, hasse))

    def dim_plus_2(d):
        d["strata"][0]["dim"] += 2

    def drop_order_2(d):
        d["strata"] = [s for s in d["strata"] if s["order"] != 2]

    def drop_closure_pair(d):
        d["closure"].pop()

    def ambient_plus_2(d):
        d["ambient_dim"] += 2

    assert "dim" in with_strata(dim_plus_2)
    assert "gcd closure" in with_strata(drop_order_2)
    assert "divisibility" in with_strata(drop_closure_pair)
    assert "ambient_dim" in with_strata(ambient_plus_2)
    wrong = (1,) + tuple(recovered[1:])
    assert "recovered" in " ".join(checks.stratify_problems(*item, wire, wrong, hasse))
    fewer = set(list(hasse)[1:])
    assert "hasse" in " ".join(checks.stratify_problems(*item, wire, recovered, fewer))


def test_gcd_closure_is_closed_under_pairwise_gcd():
    assert checks.gcd_closure((6, 10, 15)) == {1, 2, 3, 5, 6, 10, 15}
    assert checks.gcd_closure((12, 18, 8)) == {2, 4, 6, 8, 12, 18}


# --- cli_roundtrip ---------------------------------------------------------


def roundtrip_check(item, raw, counts=None):
    return CliRoundtrip().check(item, raw, Counter() if counts is None else counts)


def test_roundtrip_check_passes_and_certifies_untouched_diagrams(api):
    item = (3, (4, 6, 9), None)
    _, raw = CliRoundtrip().call(api, item)
    counts = Counter()
    assert roundtrip_check(item, raw, counts) == []
    assert counts == {"recovery.recover_weights.accepted_certified": 1}


def test_roundtrip_check_fails_on_each_corruption(api):
    item = (3, (4, 6, 9), None)
    _, raw = CliRoundtrip().call(api, item)
    code, text, fed, recover_code, report, stderr = raw
    wrong_weight = report.replace("[4, 6, 9]", "[4, 6, 10]")
    assert roundtrip_check(item, (code, text, fed, recover_code, wrong_weight, stderr))
    wrong_dim = json.loads(text)
    wrong_dim["strata"][0]["dim"] += 2
    bad_text = json.dumps(wrong_dim)
    assert roundtrip_check(item, (code, bad_text, bad_text, recover_code, report, stderr))
    assert roundtrip_check(item, (code, text, fed, 2, "", stderr))
    assert roundtrip_check(item, (code, text, fed, recover_code, report, "Traceback (most"))
    assert roundtrip_check(item, (1, "", "", None, "", "error"))
    perturbed = (3, (4, 6, 9), ("dim", 0.0, 2))
    assert roundtrip_check(perturbed, (code, text, fed, 1, "", ""))
    assert roundtrip_check(perturbed, (code, text, fed, 2, "", "")) == []


def test_wrongly_accepted_perturbation_counts_as_uncertified(api):
    # recover ignores ambient_dim, so shifting it is accepted with an answer
    # whose own diagram differs.
    item = (1, (1, 2), ("ambient", 0.0, 2))
    _, raw = CliRoundtrip().call(api, item)
    counts = Counter()
    assert roundtrip_check(item, raw, counts) == []
    assert counts == {"recovery.recover_weights.accepted_uncertified": 1}


def test_perturbations_are_well_typed_and_each_changes_the_diagram():
    text = json.dumps({
        "ambient_dim": 4,
        "strata": [{"id": "order:1", "order": 1, "dim": 3},
                   {"id": "order:2", "order": 2, "dim": 1},
                   {"id": "distinguished", "order": "inf", "dim": 0}],
        "closure": [["distinguished", "order:1"], ["distinguished", "order:2"],
                    ["order:2", "order:1"]],
    })
    dim = json.loads(perturb(text, "dim", 0.9, -2))
    assert dim["strata"][1]["dim"] == -1
    drop = json.loads(perturb(text, "drop", 0.0, 2))
    assert [s["id"] for s in drop["strata"]] == ["order:2", "distinguished"]
    assert drop["closure"] == [["distinguished", "order:2"]]
    assert json.loads(perturb(text, "ambient", 0.0, 2))["ambient_dim"] == 6


def test_a_fixed_quarter_of_cli_inputs_is_perturbed():
    block = next(CliRoundtrip().blocks(7))
    kinds = Counter(change[0] for _, _, change in block if change)
    assert sum(kinds.values()) == len(block) // 4
    assert set(kinds) == {"dim", "drop", "ambient"}


# --- verify ----------------------------------------------------------------


def test_verify_check_fails_on_each_corruption(api):
    item = ((1, 2), 11)
    _, reports = Verify().call(api, item)
    trials = PARAMS["verify"]["generator"]["trials"]
    assert checks.verify_problems(2, trials, reports) == []
    failing = [dict(r, failures=1) if r["check"] == "separation" else r for r in reports]
    assert "separation has 1 failures" in checks.verify_problems(2, trials, failing)
    no_membership = [r for r in reports if r["check"] != "membership_m2"]
    assert checks.verify_problems(2, trials, no_membership)
    assert checks.verify_problems(2, trials + 1, reports)


# --- metric names, spans, environment --------------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="same_orbit misses an on-orbit pair here, so the suite reports a "
    "separation failure; verify stays out of BENCHMARK.json until this passes",
)
def test_verify_passes_where_same_orbit_picks_the_wrong_basin(api):
    item = ((1, 4, 8), 736660294)
    _, reports = Verify().call(api, item)
    assert checks.verify_problems(3, PARAMS["verify"]["generator"]["trials"], reports) == []


def test_each_input_counts_at_its_fastest_repeat(api, monkeypatch):
    class Scripted:
        """Inputs 1, 2, 3 take that many ms on even calls, three times as
        long on odd ones; set-up's warm-up calls input 1 nine times."""

        name = "hilbert"

        def __init__(self):
            self.calls = Counter()

        def blocks(self, seed):
            while True:
                yield [1, 2, 3]

        def call(self, api, item):
            self.calls[item] += 1
            return item * (3 if self.calls[item] % 2 else 1) / 1000, None

        def check(self, item, raw, counts):
            return []

    monkeypatch.setattr(run, "import_fresh", lambda: api)  # keep the fixture's modules
    tally, metrics, summary = run.measure(Scripted(), 0, 0)
    repeats = PARAMS["hilbert"]["repeats"]
    assert (tally.attempted, tally.failed) == (3 * repeats, 0)
    assert summary["blocks"] == 1 and summary["repeats"] == repeats >= 2
    assert metrics["spec_p50_ms"]["value"] == pytest.approx(2.0)
    assert metrics["specs_per_s"]["value"] == pytest.approx(500.0)
    assert run.fastest(None, 0.5, 0.2) == 0.2 and run.fastest(None, None) is None


def test_metric_and_workload_names_match_benchmark_json():
    assert list(WORKLOADS) == list(PARAMS)
    listed = [name for name in WORKLOADS if "excluded" not in PARAMS[name]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == listed
    assert all(w["why"] == PARAMS[w["name"]]["why"] for w in BENCHMARK["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


def test_span_records_nest_and_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.spec = 5
    assert outer(1) == 4
    records = tracer.records()
    assert [tuple(r) for r in records] == [SPAN_FIELDS, SPAN_FIELDS]
    assert [(r["name"], r["parent"], r["spec"]) for r in records] == [("outer", -1, 5), ("inner", 0, 5)]
    assert all(r["start"] <= r["end"] for r in records)
    totals, calls = self_times(tracer.spans)
    outer_span = records[0]["end"] - records[0]["start"]
    inner_span = records[1]["end"] - records[1]["start"]
    assert totals["outer"] == pytest.approx(outer_span - inner_span)
    assert calls == {"outer": 1, "inner": 1}


def test_install_wraps_every_binding_and_restore_undoes_it(api):
    originals = (api.numeric.same_orbit, api.numeric.hilbert_basis, api.cli.orbit_strata)
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert api.numeric.hilbert_basis is api.invariants.hilbert_basis is not originals[1]
        assert api.cli.orbit_strata is api.stratification.orbit_strata is not originals[2]
        api.numeric.run_property_suite(api.action.ActionSpec(0, (1, 2)), 4, 0)
    finally:
        restore()
    assert (api.numeric.same_orbit, api.numeric.hilbert_basis, api.cli.orbit_strata) == originals
    names = [span[0] for span in tracer.spans]
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert names[0] == "numeric.run_property_suite"
    assert parents["invariants.hilbert_basis"] == "numeric.run_property_suite"
    assert parents["numeric.same_orbit"] == "numeric.check_separation"
    assert tracer.counts["numeric.check_separation.trials"] == 4


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hilbert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
