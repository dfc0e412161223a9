#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload it checks that an
untraced run prints every end-to-end metric of BENCHMARK.json with its
unit and no failed op, that a traced run prints every per-layer metric
with its unit, and that a run whose expected outputs were deliberately
falsified (--corrupt) reports failed ops, so no oracle is vacuous.  It
also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

SECONDS = "2"


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(workload, *extra, cwd="."):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS] + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result(workload, *extra):
    p = run(workload, "--smoke", *extra)
    if p.returncode != 0:
        fail("%s %s exited %d:\n%s" % (workload, " ".join(extra), p.returncode, p.stderr[-3000:]))
    lines = p.stdout.strip().split("\n")
    r = json.loads(lines[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(r)))
    if "info" not in json.loads(lines[-2]):
        fail("%s: no info line before the result" % workload)
    return r


def check_metrics(workload, r, expected):
    got = r["metrics"]
    for m in expected:
        if m["name"] not in got:
            fail("%s: metric %s missing" % (workload, m["name"]))
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s, want %s" % (workload, m["name"], got[m["name"]]["unit"], m["unit"]))
        if not isinstance(got[m["name"]]["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, m["name"]))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        fail("%s: unexpected metrics %s" % (workload, sorted(extra)))


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        name = w["name"]
        r = result(name, "--trace", "0")
        check_metrics(name, r, bench["end_to_end"])
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            fail("%s: %d of %d ops failed" % (name, r["failed"], r["attempted"]))
        for m in bench["end_to_end"]:
            if r["metrics"][m["name"]]["value"] <= 0:
                fail("%s: %s is not positive" % (name, m["name"]))
        r = result(name, "--trace", "1")
        check_metrics(name, r, bench["per_layer"])
        if not r["correct"]:
            fail("%s: traced run has failed ops" % name)
        r = result(name, "--trace", "0", "--corrupt")
        if r["correct"] or r["failed"] < 1:
            fail("%s: a falsified expected output went unnoticed" % name)
        print("smoke: %s ok" % name)

    # A directory with only the benchmark's own files must be refused.
    bare = os.path.join(".bench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    p = run(bench["workloads"][0]["name"], "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("a directory without the repository was not refused")
    print("smoke: bare directory refused ok")


if __name__ == "__main__":
    main()
