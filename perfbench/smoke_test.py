#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json at
its seconds-long `smoke` size, untraced and traced, and fails unless
each run exits 0 with a correct result that emits every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json with its unit,
and the traced run writes a well-formed span file.
"""

import json
import os
import subprocess
import sys

SPAN_KEYS = {"run", "id", "parent", "name", "start_ns", "end_ns"}

# Per-layer metrics that must be non-zero on each workload's own layers.
OWN_LAYERS = {
    "vivaldi_chaos": ["sim.clean_s", "sim.attack_s", "netsim.probes_retried", "attack.active_lies"],
    "nps_attack": ["sim.clean_s", "sim.attack_s", "core.vetted_steps", "attack.active_lies"],
    "svc_loopback": ["svc.core_ns_per_dgram", "wire.decode_ns", "svc.rx_datagrams", "svc.lat_p99_us"],
}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2007",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_spans(path, errors):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    if not spans:
        errors.append(f"{path}: no spans")
        return
    if any(set(s) != SPAN_KEYS for s in spans):
        errors.append(f"{path}: span with keys other than {sorted(SPAN_KEYS)}")
    if len({s["run"] for s in spans}) != 1:
        errors.append(f"{path}: spans of more than one run")
    ids = {s["id"] for s in spans}
    if any(s["parent"] not in ids and s["parent"] != 0 for s in spans):
        errors.append(f"{path}: span whose parent is not recorded")
    if any(s["end_ns"] < s["start_ns"] for s in spans):
        errors.append(f"{path}: span ending before it starts")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            code, result, stderr = run(workload, trace)
            if result is None:
                errors.append(f"{tag}: no result (exit {code}): {stderr.strip()[-300:]}")
                continue
            if code != 0:
                errors.append(f"{tag}: exit code {code}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                errors.append(f"{tag}: output checks failed: {result.get('failed')}/{result.get('attempted')}")
            metrics = result.get("metrics", {})
            units = {name: m.get("unit") for name, m in metrics.items()}
            if units != wanted[trace]:
                errors.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                errors.append(f"{tag}: an end-to-end metric is not positive")
            if trace == 1:
                for name in OWN_LAYERS[workload]:
                    if metrics.get(name, {}).get("value", 0) <= 0:
                        errors.append(f"{tag}: per-layer metric {name} is not positive")
                path = os.path.join("perfbench", "out", f"{workload}.spans.jsonl")
                if os.path.isfile(path):
                    check_spans(path, errors)
                else:
                    errors.append(f"{tag}: span file {path} missing")
            print(f"smoke: {tag}: exit {code}, correct {result.get('correct')}, "
                  f"{len(metrics)} metrics", flush=True)
    for e in errors:
        print(f"smoke: FAIL: {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
