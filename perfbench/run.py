#!/usr/bin/env python3
"""Build and run the HEX benchmark.

One run:
    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

builds perfbench and hexd from this checkout's sources into .bench_build/
(the Go build cache lives there too), runs one workload, and passes its
output through; the last line is the JSON result.

Repeat mode:
    python3 perfbench/run.py --repeat 10 --workload all --seed 1 --seconds 15

runs each workload N times with seeds seed, seed+1, ..., and prints, for
every metric, the median and quartiles of its N values. It flags, and exits
with code 1 for, every end-to-end metric whose spread (interquartile range
over median) exceeds its bound in BENCHMARK.json, and every run that is not
correct or has failed operations.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["paper", "serve", "campaign"]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command keeps telemetry counters under the user config
        # directory; point it into the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def go_binary():
    """The go command from PATH, or from the toolchain's usual home."""
    return shutil.which("go") or "/usr/local/go/bin/go"


def build():
    """Builds both binaries; go build skips the link when they are current."""
    os.makedirs(BUILD, exist_ok=True)
    src = os.path.join(ROOT, "perfbench")
    for out, pkg in (("perfbench", "."), ("hexd", "repro/cmd/hexd")):
        r = subprocess.run([go_binary(), "build", "-o", os.path.join(BUILD, out), pkg],
                           cwd=src, env=go_env(), stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: building %s failed" % pkg)


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds, trace, capture):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--hexd", os.path.join(BUILD, "hexd"), "--work", BUILD]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode, None
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if r.returncode == 0 and lines else None)


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def repeat(args):
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    limit = bounds() if args.trace == 0 else {}
    flagged = []
    for w in names:
        results = []
        for i in range(args.repeat):
            t0 = time.monotonic()
            code, res = run_once(w, args.seed + i, args.seconds, args.trace, True)
            elapsed = time.monotonic() - t0
            if code != 0 or res is None:
                sys.exit("perfbench: %s seed %d failed with exit code %d" % (w, args.seed + i, code))
            results.append(res)
            print("%s seed %d: %.0f s correct=%s attempted=%d failed=%d %s" % (
                w, args.seed + i, elapsed, res["correct"], res["attempted"], res["failed"],
                " ".join("%s=%.4g" % (m, v["value"]) for m, v in sorted(res["metrics"].items())
                         if m in limit)), flush=True)
            if not res["correct"] or res["failed"]:
                flagged.append("%s/seed %d" % (w, args.seed + i))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: failed share %s" % (w, shares))
        for m in sorted(results[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = limit.get(m)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  EXCEEDS BOUND %.2f" % bound
                flagged.append("%s/%s" % (w, m))
            print("  %-32s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f%s" % (
                m, med, q1, q3, spread, flag), flush=True)
    if flagged:
        print("flagged: " + ", ".join(flagged))
        return 1
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="paper, serve, campaign; repeat mode also takes all or a comma list")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run each workload N times and summarize")
    args = p.parse_args()
    build()
    if args.repeat:
        if args.repeat < 4:
            sys.exit("perfbench: --repeat needs at least 4 runs for quartiles")
        return repeat(args)
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
