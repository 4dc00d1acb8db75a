#!/usr/bin/env python3
"""Build and run the clique-listing benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload congest --seed 1 --seconds 10 --trace 0

builds the benchmark from source (release, offline, `parallel` features),
runs the workload in its own process and prints its metrics; the last line of
standard output is one JSON object. `--trace 1` runs the traced variant and
prints the per-layer metrics instead, and writes the spans next to the build.

Steadiness mode runs workloads repeatedly and prints, per end-to-end metric,
the median and the spread between the quartiles as a share of the median,
against the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness --seeds 1,2 --repeats 3
    python3 perfbench/run.py --steadiness --seeds 1-10 --sets 2 --workload churn

The build goes to $CARGO_TARGET_DIR, or `.bench_build` at the root of the
checkout when that is unset.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
# A run must end within this many seconds; a hung child is killed before it.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def commit():
    """The checked-out commit, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def load_spec():
    with open(SPEC_FILE) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, stamp, threads=None):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", stamp]
    if trace:
        cmd += ["--spans-out", os.path.join(target_dir(), f"spans-{workload}-seed{seed}.tsv")]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def check_result(stdout, trace, spec):
    """The parsed result line, if it names exactly the metrics of its list."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, "the last line is not JSON"
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(expected):
        return None, f"metrics {sorted(set(got) ^ set(expected))} differ from BENCHMARK.json"
    return result, None


def single(args):
    if args.trace not in (0, 1):
        print("run.py: --trace must be 0 or 1", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1
    code, stdout = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                            commit(), args.threads)
    if code != 0:
        sys.stdout.write(stdout)
        return code
    result, problem = check_result(stdout, args.trace, spec)
    if problem:
        # Print what ran, but never a result line that breaks the contract.
        sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    stamp = commit()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    metrics = spec["end_to_end"]
    print(f"# steadiness: commit={stamp} seeds={seeds} repeats={args.repeats} "
          f"sets={args.sets} seconds={args.seconds} nproc={os.cpu_count()}")
    steady = True
    for workload in names:
        # values[set][metric] = one value per (seed, repeat)
        values = [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
        for s in range(args.sets):
            for seed in seeds:
                for _ in range(args.repeats):
                    code, stdout = run_once(binary, workload, seed, args.seconds, 0, stamp)
                    result, problem = check_result(stdout, 0, spec) if code == 0 else (None, f"exit {code}")
                    if problem or not result["correct"]:
                        print(f"{workload} seed {seed}: {problem or 'incorrect output'}")
                        return 1
                    for m in metrics:
                        values[s][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{workload}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med, q1, q3, rel = spread(values[0][name])
            ok = name == "setup_s" or rel <= bound / 3
            line = f"  {name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{rel:>9.3f}{bound:>8.2f}  "
            line += "steady" if ok else "NOISY (spread above bound/3)"
            if args.sets > 1:
                # How much worse the second set's median reads than the first's.
                med2 = statistics.median(values[1][name])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                line += f"; set 2 median {med2:.4f}, worse by {worse:+.3f}"
                ok = ok and worse <= bound
            steady = steady and ok
            print(line)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--threads", type=int, help="override the workload's thread grant")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--seeds", default="1,2", help="steadiness: e.g. 1,2 or 1-10")
    parser.add_argument("--repeats", type=int, default=3, help="steadiness: runs per seed")
    parser.add_argument("--sets", type=int, default=1, help="steadiness: independent sets to compare")
    args = parser.parse_args()
    if args.seconds is None:
        try:
            args.seconds = load_spec()["run_seconds"]
        except (OSError, ValueError, KeyError):
            parser.error("--seconds is required")
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
