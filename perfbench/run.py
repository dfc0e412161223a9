#!/usr/bin/env python3
"""The repository benchmark: build gbcd, gbc-router and the load
generator from source, run one workload, print its result.

    python3 perfbench/run.py --workload batch_greedy|serve_mix|serve_update \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records seed, revision, nproc, daemon
flags and per-metric sample counts.  Sockets, data dirs, daemon logs
and trace files go to .bench_run/ in the checkout.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["batch_greedy", "serve_mix", "serve_update"]
EXE = os.path.join("_build", "default", "perfbench", "gbcbench.exe")
TARGETS = ["./perfbench/gbcbench.exe", "./bin/gbcd.exe", "./bin/gbc_router.exe"]
RUN_DIR = ".bench_run"


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-md5:" + h.hexdigest()


def run(cmd, timeout, **kw):
    """Run a child in its own process group; on timeout the whole group
    is terminated (the load generator then stops its daemons) and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        die("%s timed out after %ss" % (cmd[0], timeout), 1)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs (perfbench/smoke.py)")
    p.add_argument("--corrupt", action="store_true",
                   help="falsify one expected output; the run must report failed ops")
    a = p.parse_args()

    if not all(os.path.exists(f) for f in ("dune-project", "lib", "bin", "programs")):
        die("run from the root of a gbc checkout (dune-project, lib/, bin/, programs/ missing)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run(["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS, 840,
                      stdout=sys.stderr, env=env)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if code != 0:
        die("build failed")

    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace), "--gbcd", os.path.join("_build", "default", "bin", "gbcd.exe"),
           "--router", os.path.join("_build", "default", "bin", "gbc_router.exe"),
           "--programs", "programs", "--run-dir", RUN_DIR, "--rev", revision()]
    if a.smoke:
        cmd.append("--smoke")
    if a.corrupt:
        cmd.append("--corrupt")
    code, out = run(cmd, 170, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        die("%s exited with %d" % (a.workload, code), 1)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line", 1)
    result["metrics"] = complete(result["metrics"], a.trace)
    lines[-1] = json.dumps(result)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


def complete(metrics, trace):
    """The metrics in BENCHMARK.json's order and units.  A traced run
    reports the layers on its workload's path; the others read 0."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    out = {}
    for m in spec:
        got = metrics.pop(m["name"], None)
        if got is None:
            if not trace:
                die("metric %s missing" % m["name"], 1)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            die("metric %s: %r" % (m["name"], got), 1)
        out[m["name"]] = got
    if metrics:
        die("metrics missing from BENCHMARK.json: %s" % ", ".join(sorted(metrics)), 1)
    return out


if __name__ == "__main__":
    main()
