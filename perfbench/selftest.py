#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark, runs its built-in checks (the percentile rule,
per-seed corpus determinism, and the output content check against a
truncated stream and a dropped object), then runs every workload of
BENCHMARK.json briefly, untraced and traced, and checks that each result
line carries exactly the metrics BENCHMARK.json names, with their units.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (this directory's run.py)


def check_result(line, expected, label):
    """Returns a list of problems with one result line."""
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (label, sorted(result)))
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: not correct (%s failed)" % (label, result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted %r" % (label, result["attempted"]))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append("%s: missing %s, extra %s, wrong unit %s"
                        % (label, missing, extra, wrong))
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s = %r" % (label, name, value))
    return problems


def main():
    binary = run.build()
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    problems = []
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        problems.append("perfbench --self-test failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload["name"], trace)
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, out.returncode))
                continue
            expected = {m["name"]: m["unit"] for m in bench[key]}
            problems += check_result(lines[-1], expected, label)
            print("selftest: %s ok" % label, file=sys.stderr)

    for p in problems:
        print("selftest FAIL: " + p, file=sys.stderr)
    print("selftest: %s" % ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
