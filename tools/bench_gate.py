#!/usr/bin/env python3
"""bench_gate — machine-independent ratio gate over google-benchmark JSON.

    python3 tools/bench_gate.py RESULTS.json NUMERATOR DENOMINATOR BOUND

Passes (exit 0) when per-item time of NUMERATOR divided by per-item time of
DENOMINATOR is below BOUND, and fails (exit 1) otherwise.  A benchmark's
per-item time is 1 / items_per_second when it reports items, else its CPU
time.  With --benchmark_repetitions, the fastest repetition of each
benchmark is compared: on a shared runner, noise only ever adds time.
Both sides come from one run on one machine, so the ratio holds across
runners where absolute times do not.

Example (CI bench-smoke, from build-bench/):

    ./bench_crypto --benchmark_filter='^BM_SchnorrBatchVerify/64$|^BM_SchnorrVerifierHotKey$' \
        --benchmark_repetitions=5 --benchmark_format=json > gate.json
    python3 ../tools/bench_gate.py gate.json BM_SchnorrBatchVerify/64 \
        BM_SchnorrVerifierHotKey 0.25
"""

import json
import sys

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def per_item_ns(results, name):
    times = []
    for bench in results["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if bench.get("run_name", bench["name"]) != name:
            continue
        if bench.get("items_per_second"):
            times.append(1e9 / bench["items_per_second"])
        else:
            times.append(bench["cpu_time"] * TO_NS[bench.get("time_unit", "ns")])
    if not times:
        sys.exit(f"bench_gate: no runs of {name}")
    return min(times)


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    path, numerator, denominator, bound = argv[1], argv[2], argv[3], float(argv[4])
    with open(path) as f:
        results = json.load(f)
    num = per_item_ns(results, numerator)
    den = per_item_ns(results, denominator)
    ratio = num / den
    verdict = "ok" if ratio < bound else "FAIL"
    print(f"bench_gate: {numerator} {num:.0f} ns/item / {denominator} "
          f"{den:.0f} ns/item = {ratio:.3f} (bound < {bound}): {verdict}")
    return 0 if ratio < bound else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
