"""Regenerate hilbert_digests.json, the hilbert workload's universe of specs.

For every spec in the universe (see workloads.json) it records the Hilbert
basis size, a digest of the canonical generator JSON (after checking the
basis with the structural oracles in checks.py) and the spec's cost: the
fastest of three timed calls, in ms.  The workload orders the universe by
that cost, so that every block samples each cost band once; only the order
matters, not the hardware the costs were taken on.  Run from the repository
root; it takes about three minutes:

    python3 perfbench/make_digests.py
"""

import json
import sys
from time import perf_counter

import checks
from workloads import DIGESTS_PATH, PARAMS, canonical_generators, hilbert_universe

sys.path.insert(0, str(DIGESTS_PATH.parent.parent / "src"))

from circleact import ActionSpec, hilbert_basis, realize_generators  # noqa: E402


def main() -> int:
    gen = PARAMS["hilbert"]["generator"]
    specs = {}
    for weights in hilbert_universe(gen["m"], gen["max_weight"]):
        times = []
        for _ in range(3):
            start = perf_counter()
            basis = hilbert_basis(ActionSpec(0, weights))
            generators = realize_generators(basis)
            times.append(perf_counter() - start)
        text = canonical_generators(generators)
        pairs = [(e.holomorphic, e.antiholomorphic) for e in basis]
        problems = checks.hilbert_problems(weights, pairs, text, checks.digest(text))
        if problems:
            print(f"{weights}: {problems}", file=sys.stderr)
            return 1
        specs[",".join(map(str, weights))] = [len(basis), checks.digest(text), round(min(times) * 1e3, 2)]
    rows = ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}" for key, row in specs.items())
    head = json.dumps({"m": gen["m"], "max_weight": gen["max_weight"]})[:-1]
    DIGESTS_PATH.write_text(f'{head}, "specs": {{\n{rows}\n}}}}\n')
    print(f"wrote {len(specs)} specs to {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
