#!/usr/bin/env python3
"""Build and run the HIPStR host-time benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload spec --seed 1 --seconds 20 --trace 0

builds perfbench/main.exe with the release profile into _perfbench/build
and runs it with the same arguments; its last line of standard output is
the result JSON. The build's own output goes to standard error.

    python3 perfbench/run.py steady --workload kernels --runs 10 [--seed0 1]
                                    [--seconds 20] [--out FILE]

is the steadiness command: it runs one workload RUNS times, each in a
fresh process with its own seed, and prints for every end-to-end metric
the median, the quartiles, the spread (Q3 - Q1) / median and the largest
deviation from the median. With --out it also writes the values to FILE.

    python3 perfbench/run.py overhead --workload serve --seed 1 [--seconds 20]

runs the workload untraced and traced (fresh processes, same seed) and
prints each end-to-end figure of both, and the tracing overhead.
"""

import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join("_perfbench", "build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
E2E = ["setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "guest_mips", "peak_rss_mb"]


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(
                "perfbench: %s not found; run from the root of the repository\n" % needed
            )
            sys.exit(2)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--profile", "release",
        "--build-dir", os.path.abspath(BUILD_DIR), "--cache=disabled", "./perfbench/main.exe",
    ]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(r.returncode or 1)


def run_once(args):
    """Run main.exe; return (exit code, parsed last line or None, stdout)."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    result = None
    if r.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return r.returncode, result, r.stdout


def figures(stdout, prefix):
    """The name=value figures of the stdout line starting with prefix."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith(prefix):
            for field in line[len(prefix):].split():
                if "=" in field:
                    k, v = field.split("=")
                    out[k] = float(v)
    return out


def option(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    if default is None:
        sys.stderr.write("perfbench: missing %s\n" % name)
        sys.exit(2)
    return default


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    dev = max(abs(v - med) for v in values)
    return med, q1, q3, (q3 - q1) / med, dev / med


def steady(argv):
    workload = option(argv, "--workload")
    runs = int(option(argv, "--runs", "10"))
    seed0 = int(option(argv, "--seed0", "1"))
    seconds = option(argv, "--seconds", "20")
    out = option(argv, "--out", "")
    values = {m: [] for m in E2E}
    measured = {m: [] for m in E2E}
    shares = []
    for seed in range(seed0, seed0 + runs):
        code, res, stdout = run_once(
            ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
        )
        if res is None:
            sys.stderr.write("perfbench: run with seed %d exited %d\n" % (seed, code))
            sys.exit(1)
        raw = figures(stdout, "as measured:")
        for m in E2E:
            values[m].append(res["metrics"][m]["value"])
            measured[m].append(raw[m])
        shares.append((res["failed"], res["attempted"], res["correct"]))
        sys.stderr.write(
            "seed %d: %s\n"
            % (seed, " ".join("%s=%.4g" % (m, res["metrics"][m]["value"]) for m in E2E))
        )
    print("%s, %d runs, seeds %d-%d, %s s each" % (workload, runs, seed0, seed0 + runs - 1, seconds))
    print("%-12s %12s %12s %12s %9s %9s" % ("metric", "median", "q1", "q3", "iqr/med", "maxdev"))
    for m in E2E:
        med, q1, q3, iqr, dev = summary(values[m])
        print("%-12s %12.5g %12.5g %12.5g %8.2f%% %8.2f%%" % (m, med, q1, q3, 100 * iqr, 100 * dev))
    print("as measured, before scaling to the calibration loop's reference speed:")
    for m in E2E:
        med, q1, q3, iqr, dev = summary(measured[m])
        print("%-12s %12.5g %12.5g %12.5g %8.2f%% %8.2f%%" % (m, med, q1, q3, 100 * iqr, 100 * dev))
    print("failed/attempted: %s" % sorted(set("%d/%d" % (f, a) for f, a, _ in shares)))
    print("correct: %s" % all(c for _, _, c in shares))
    if out:
        with open(out, "w") as f:
            json.dump({"workload": workload, "seconds": seconds, "seeds": [seed0, seed0 + runs - 1],
                       "values": values, "measured": measured, "shares": shares}, f, indent=1)


def overhead(argv):
    workload = option(argv, "--workload")
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "20")
    base = ["--workload", workload, "--seed", seed, "--seconds", seconds]
    _, plain, _ = run_once(base + ["--trace", "0"])
    _, _, traced_out = run_once(base + ["--trace", "1"])
    traced = figures(traced_out, "traced end-to-end:")
    if plain is None or not traced:
        sys.stderr.write("perfbench: a run failed\n")
        sys.exit(1)
    print("%-12s %12s %12s %10s" % ("metric", "untraced", "traced", "overhead"))
    for m in E2E:
        u = plain["metrics"][m]["value"]
        print("%-12s %12.5g %12.5g %9.1f%%" % (m, u, traced[m], 100 * (traced[m] - u) / u))


def main():
    argv = sys.argv[1:]
    build()
    if argv and argv[0] == "steady":
        steady(argv[1:])
    elif argv and argv[0] == "overhead":
        overhead(argv[1:])
    else:
        r = subprocess.run([EXE] + argv)
        sys.exit(r.returncode)


if __name__ == "__main__":
    main()
