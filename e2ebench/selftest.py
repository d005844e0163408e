#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny scale.

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json shrunk with --tiny, untraced and
traced, from the repository root, and checks that each run passes its
correctness gate and emits exactly the metrics BENCHMARK.json declares,
with their units.
The negative case pins a wrong replay fingerprint and checks that every
repetition is then reported as a failed operation.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "e2ebench", "run.py")


def bench(*args):
    p = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if p.returncode != 0:
        raise AssertionError(f"{args}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics(label, result, declared):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}"
    assert set(got) == set(want), f"{label}: metrics {sorted(set(got) ^ set(want))} differ"
    for name, m in got.items():
        assert m["unit"] == want[name], f"{label}: {name} unit {m['unit']} != {want[name]}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in [wl["name"] for wl in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{w} --trace {trace}"
            try:
                r = bench("--workload", w, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
                check_metrics(label, r, declared)
                assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{label}: gate {r}"
                if trace == "1":
                    coverage = r["metrics"]["bench.span_coverage"]["value"]
                    assert 0.95 <= coverage <= 1.0, f"{label}: top-level spans cover {coverage:.3f}"
                    # The shard counters come from the fleet probe's run.
                    for name in ("simcore.shard_rounds", "simcore.shard_messages"):
                        assert r["metrics"][name]["value"] > 0, f"{label}: {name} is 0"
                print(f"ok   {label}")
            except AssertionError as e:
                failures.append(str(e))
                print(f"FAIL {e}")
        label = f"{w} wrong pinned fingerprint"
        try:
            r = bench("--workload", w, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny",
                      "--expect-fingerprint", "0x1")
            runs = r["attempted"]
            assert not r["correct"] and r["failed"] >= 1, f"{label}: not reported: {r}"
            print(f"ok   {label} ({r['failed']} of {runs} operations failed)")
        except AssertionError as e:
            failures.append(str(e))
            print(f"FAIL {e}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
