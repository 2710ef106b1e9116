#!/usr/bin/env python3
"""Build the program from source and run the closed-loop benchmark.

One run of one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload synth --seed 1 --seconds 45 --trace 0

Every BENCHMARK.json workload, outputs checked, end-to-end metrics printed:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Corruption self-test (every workload, timed or not, must report error_rate > 0):

    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative
to the repository root; run output (span traces) goes to .bench_out.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["synth", "dataplane-filter"]
# Not timed by BENCHMARK.json (their figures followed the shared host's
# speed too closely to be steady), but runnable by hand and probed in
# every traced run, so their layers and output checks stay live.
BY_HAND = ["dataplane-stateful", "verify"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def newest_source_mtime():
    newest = 0.0
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, files in os.walk(top):
            for f in files:
                if f.endswith((".cpp", ".h", ".txt")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, f)))
    return newest


def ensure_built():
    """Configure and build on first use or when a source changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    bdir = build_dir()
    binary = os.path.join(bdir, "nfbench")
    if os.path.isfile(binary) and os.path.getmtime(binary) >= newest_source_mtime():
        return binary
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "--target", "nfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except FileNotFoundError:
            fail("cmake is not installed")
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return binary


def run_bench(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--root", ROOT, *extra]
    # nfbench forks one process per segment: give it its own process
    # group so a timeout stops the whole group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_metric_lists(binary):
    """BENCHMARK.json must list exactly the metrics the binary emits."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    out = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    emitted = json.loads(out)
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        have = [(m["name"], m["unit"]) for m in emitted[key]]
        if sorted(want) != sorted(have):
            print(f"BENCHMARK.json {key} differs from the metrics nfbench emits",
                  file=sys.stderr)
            ok = False
    return ok


def run_all(binary, args):
    ok = check_metric_lists(binary)
    rows = []
    for w in WORKLOADS:
        rc, lines = run_bench(binary, w, args.seed, args.seconds, args.trace)
        res = result_of(lines)
        if rc != 0 or res is None:
            print(f"{w}: run failed (exit {rc})", file=sys.stderr)
            ok = False
            continue
        ok = ok and res["correct"] and res["failed"] == 0
        rows.append((w, res))
    print()
    for w, res in rows:
        rate = res["failed"] / res["attempted"]
        print(f"{w}: error_rate {rate:.6f} ({res['failed']} failed / "
              f"{res['attempted']} attempted)")
        for name, m in res["metrics"].items():
            print(f"  {name:42s} {m['value']:18.6f} {m['unit']}")
    return 0 if ok else 1


def selftest(binary, args):
    """Each workload, with one compared output corrupted, must fail."""
    ok = True
    for w in WORKLOADS + BY_HAND:
        rc, lines = run_bench(binary, w, args.seed, 1, 0, ["--corrupt"], echo=False)
        res = result_of(lines)
        bites = rc == 0 and res is not None and not res["correct"] and res["failed"] > 0
        rate = res["failed"] / res["attempted"] if res else float("nan")
        print(f"selftest {w}: error_rate {rate:.6f} -> "
              f"{'checks bite' if bites else 'CORRUPTION NOT DETECTED'}")
        ok = ok and bites
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + BY_HAND)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every BENCHMARK.json workload")
    ap.add_argument("--selftest", action="store_true",
                    help="corrupt one compared output per workload")
    args = ap.parse_args()
    if not (args.all or args.selftest or args.workload):
        ap.error("give --workload, --all or --selftest")
    binary = ensure_built()
    if args.all:
        return run_all(binary, args)
    if args.selftest:
        return selftest(binary, args)
    rc, lines = run_bench(binary, args.workload, args.seed, args.seconds, args.trace)
    if rc != 0 or result_of(lines) is None:
        print(f"run.py: {args.workload} exited {rc} without a result", file=sys.stderr)
        return rc or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
