#!/usr/bin/env python3
"""Self-tests of the benchmark.

usage: python3 pipebench/test_pipebench.py

Determinism: for every workload, the integer result digest (selection sets,
CDF counts, ledger totals, compete split, route and answer digests) must be
byte-identical for the same seed run twice and for BSR_THREADS 1 and 2, and
must differ for another seed, which proves the seed reaches the inputs. The
runs use the benchmark's own inputs with the shortest measuring time (the
minimum of three passes), so the test takes a few minutes.

Layer map: layer_map.json must name exactly the metrics of BENCHMARK.json
and point every per-layer metric at end-to-end metrics and workloads that
exist.

Exits nonzero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

import run

SEED_A = 20170614
SEED_B = 7


def digest(workload, seed, threads):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", "0"]
    env = dict(os.environ, BSR_THREADS=str(threads))
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=run.RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"FAIL {workload} seed {seed} threads {threads}: "
                         f"exit {done.returncode}")
    found = re.search(r"^result digest (\d+)$", done.stdout, re.MULTILINE)
    if not found:
        raise SystemExit(f"FAIL {workload}: no result digest printed")
    return found.group(1)


def check_determinism():
    for workload in run.WORKLOADS:
        first = digest(workload, SEED_A, 2)
        again = digest(workload, SEED_A, 2)
        serial = digest(workload, SEED_A, 1)
        other = digest(workload, SEED_B, 2)
        print(f"{workload}: seed {SEED_A} -> {first} / {again} (2 threads), "
              f"{serial} (1 thread); seed {SEED_B} -> {other}", flush=True)
        if not first == again == serial:
            raise SystemExit(f"FAIL {workload}: digest differs between runs or threads")
        if other == first:
            raise SystemExit(f"FAIL {workload}: digest ignores the seed")


def check_layer_map():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "layer_map.json"), encoding="utf-8") as f:
        layer_map = json.load(f)
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    if set(layer_map["end_to_end"]) != e2e or set(layer_map["per_layer"]) != per_layer:
        raise SystemExit("FAIL layer_map.json metric names differ from BENCHMARK.json")
    for name, entry in layer_map["end_to_end"].items():
        if not set(entry["home"]) <= workloads:
            raise SystemExit(f"FAIL layer_map.json: unknown home workload of {name}")
    for name, entry in layer_map["per_layer"].items():
        for target in entry["moves"]:
            if target["metric"] not in e2e or not set(target["workloads"]) <= workloads:
                raise SystemExit(f"FAIL layer_map.json: bad target of {name}")
    print(f"layer map: {len(e2e)} end-to-end and {len(per_layer)} per-layer metrics")


def main():
    check_layer_map()
    if not run.build():
        raise SystemExit("FAIL build")
    check_determinism()
    print("OK")


if __name__ == "__main__":
    main()
