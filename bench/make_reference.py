"""Regenerate bench/reference.json from the current sources.

Usage: ``python3 bench/make_reference.py``

Runs every op key each workload can generate once, untraced, and stores the
check count and the output digest that ``run.py`` compares each op against.
Run it only in a change that redefines the benchmark, never in one that
claims a speed-up: the reference is what makes a faster op count as correct.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    env = run.child_env()
    reference = {}
    for name, spec in run.WORKLOADS.items():
        keys = {}
        for lam in run.LAMBDAS:
            if spec.verifier:
                for vseed in run.VERIFIER_SEEDS:
                    keys[f"{lam}:{vseed}"] = [*spec.args, "--lambda", lam, "--seed", str(vseed)]
            else:
                keys[lam] = [*spec.args, "--lambda", lam]
        counts, digests = set(), {}
        for key, args in keys.items():
            _, _, code, out = run.spawn([*run.CLI, *args], env)
            if code != 0:
                print(f"{name} {key}: exit code {code}", file=sys.stderr)
                return 1
            count, digests[key] = run.output_facts(name, out)
            counts.add(count)
            print(f"{name} {key}: {count} {digests[key][:12]}", flush=True)
        if len(counts) != 1:
            print(f"{name}: the count depends on the op: {sorted(counts)}", file=sys.stderr)
            return 1
        entry = {"digests": digests}
        if spec.verifier:
            entry["total"] = counts.pop()
        reference[name] = entry
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
