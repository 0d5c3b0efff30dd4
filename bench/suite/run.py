#!/usr/bin/env python3
"""Runner for the pccheck benchmark suite (bench/suite/README.md).

Modes:

  run.py --workload W --seed N --seconds S --trace 0|1
      Build pccheck_bench from this checkout into .bench_build/, run one
      workload and print its output. The last line is one JSON object
      with the keys correct, attempted, failed and metrics: every
      end-to-end metric of BENCHMARK.json with --trace 0, every
      per-layer metric with --trace 1 (the window is then split between
      an untraced and a traced run, which trace.overhead compares).

  run.py --sets 2 --runs 5 [--seed N] [--seconds S] [--workloads a,b]
      Alternate runs of one build between the sets; run r of every set
      uses seed N + r. Print each set's median and quartiles per
      (workload, metric). Fail when a spread (quartile distance over
      median, setup_s exempt) or the gap between two sets' medians
      exceeds the metric's bound.

  run.py --pair PARENT CHANGE [--pairs 10] [--seed N] [--seconds S]
         [--workloads a,b]
      Build this benchmark against two trees and compare them: pairs
      alternate which side runs first; a gain needs >= 9/10 wins and a
      median gap beyond the parent's quartile distance; a metric whose
      spread exceeds its bound is "unresolved" unless every change run
      beats every parent run. A workload whose change fails a larger
      share of its attempts is "worse" on failed_frac, and none of its
      gains count. Fails when any row is "worse".

  --workloads defaults to BENCHMARK.json's workloads; name ceiling to
  add the ungated one (README.md).

  run.py --smoke --bin BIN
      ctest smoke: --selftest, every workload in smoke mode untraced and
      traced, and a schema check of each JSON result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD_ROOT = ROOT / ".bench_build"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the binary gets what the build left.
RUN_TIMEOUT_S = 170


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(spec, traced):
    return {m["name"]: m for m in spec["per_layer" if traced else "end_to_end"]}


def build(tree, build_dir):
    """Configure and build pccheck_bench against tree/src; return its path.

    Raises subprocess.CalledProcessError when the tree has no sources or
    the build fails. Build output goes to stderr so stdout stays clean.
    """
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(SUITE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DPCCHECK_ROOT=" + str(Path(tree).resolve())],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "pccheck_bench"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    return build_dir / "pccheck_bench"


def parse_results(stdout):
    """Map workload -> JSON result from pccheck_bench output.

    Each result line follows that workload's "<workload> audit ..." line.
    """
    results = {}
    workload = None
    for line in stdout.splitlines():
        words = line.split()
        if len(words) >= 2 and words[1] == "audit":
            workload = words[0]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
            workload = None
    return results


def check_result(result, spec, traced, require_all=True):
    """Schema errors of one result against BENCHMARK.json (empty = ok)."""
    errors = []
    if set(result) != RESULT_KEYS:
        return ["keys are %s, want %s" % (sorted(result), sorted(RESULT_KEYS))]
    for key in ("attempted", "failed"):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append("%s is not a whole number: %r" % (key, value))
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted is below 1")
    if not isinstance(result["correct"], bool):
        errors.append("correct is not a boolean")
    expected = metric_specs(spec, traced)
    for name, metric in result["metrics"].items():
        if name not in expected:
            errors.append("unexpected metric " + name)
            continue
        if set(metric) != {"value", "unit"}:
            errors.append("%s has keys %s" % (name, sorted(metric)))
            continue
        value = metric["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            errors.append("%s value is not a finite number" % name)
        elif not traced and value <= 0:
            errors.append("%s is %r; end-to-end metrics are never 0"
                          % (name, value))
        if metric["unit"] != expected[name]["unit"]:
            errors.append("%s unit %r, want %r"
                          % (name, metric["unit"], expected[name]["unit"]))
    if require_all:
        for name in sorted(set(expected) - set(result["metrics"])):
            errors.append("missing metric " + name)
    return errors


def run_binary(binary, workload, seed, seconds, trace_out=None):
    """Run one workload; return (returncode, stdout)."""
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds]
    if trace_out:
        cmd.append("--trace-out=" + str(trace_out))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def measure(binary, spec, workload, seed, seconds):
    """Untraced run -> {"metrics": {metric: value}, "failed", "attempted"};
    raises on a run that exits non-zero, fails its audit or breaks the
    schema."""
    code, stdout = run_binary(binary, workload, seed, seconds)
    result = parse_results(stdout).get(workload)
    if result is None:
        raise RuntimeError("%s: no result (exit %d)" % (workload, code))
    errors = check_result(result, spec, traced=False)
    if code != 0 or not result["correct"] or errors:
        raise RuntimeError("%s seed %d: exit %d, correct %s, %s"
                           % (workload, seed, code, result["correct"], errors))
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"]}


# ---- statistics --------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worse_by(base, other, better):
    """How much worse other is than base, as a share of base (<0: better)."""
    if base == 0:
        return 0.0 if other == base else math.inf
    delta = (other - base) / abs(base)
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def wins(parent, change, better):
    """Pairs the change wins; ties count for neither side."""
    return sum(1 for p, c in zip(parent, change) if beats(c, p, better))


def verdict(parent, change, better, bound):
    """Classify one (workload, metric) of a parent/change comparison."""
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    n = min(len(parent), len(change))
    if (wins(parent, change, better) >= math.ceil(0.9 * n)
            and beats(cm, pm, better) and abs(cm - pm) > p3 - p1):
        return "gain"
    if max(spread(parent), spread(change)) > bound:
        if all(beats(c, p, better) for c in change for p in parent):
            return "better"
        return "unresolved"
    if worse_by(pm, cm, better) > bound:
        return "worse"
    return "unchanged"


def failed_share(runs):
    """(failed, attempted) summed over measure() results."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def judge_workload(parent_runs, change_runs, metrics):
    """[(metric, verdict)] of one workload, failed_frac first.

    failed_frac is "worse" when the change fails a larger share of its
    attempts than the parent (aborted checkpoints, wrong recoveries);
    a gain on any metric of that workload is then denied.
    """
    pf, pa = failed_share(parent_runs)
    cf, ca = failed_share(change_runs)
    more_failures = cf * pa > pf * ca
    rows = [("failed_frac", "worse" if more_failures else
             "better" if cf * pa < pf * ca else "unchanged")]
    for m in metrics:
        v = verdict([r["metrics"][m["name"]] for r in parent_runs],
                    [r["metrics"][m["name"]] for r in change_runs],
                    m["better"], m["bound"])
        if more_failures and v in ("gain", "better"):
            v = "denied: more failures"
        rows.append((m["name"], v))
    return rows


def sets_failures(sets, better, bound, exempt_spread=False):
    """Why one (workload, metric) fails the --sets check (empty = ok)."""
    out = []
    medians = [statistics.median(s) for s in sets]
    for i, values in enumerate(sets):
        if not exempt_spread and spread(values) > bound:
            out.append("set %d spread %.3f > bound %.3f"
                       % (i + 1, spread(values), bound))
        if i and abs(worse_by(medians[0], medians[i], better)) > bound:
            out.append("set %d median differs from set 1 by %.3f > %.3f"
                       % (i + 1, abs(worse_by(medians[0], medians[i], better)),
                          bound))
    return out


# ---- modes ---------------------------------------------------------------

def mode_run(args, spec):
    try:
        binary = build(ROOT, BUILD_ROOT / "suite")
    except (subprocess.CalledProcessError, OSError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1
    traced = args.trace == 1
    seconds = args.seconds / 2 if traced else args.seconds
    trace_out = (BUILD_ROOT / "suite" / ("trace-%s.json" % args.workload)
                 if traced else None)
    try:
        code, stdout = run_binary(binary, args.workload, args.seed, seconds,
                                  trace_out)
    except subprocess.TimeoutExpired:
        print("pccheck_bench timed out", file=sys.stderr)
        return 1
    result = parse_results(stdout).get(args.workload)
    for line in stdout.splitlines():
        if not line.startswith("{"):
            print(line)
    if result is None:
        print("no result (exit %d)" % code, file=sys.stderr)
        return 1
    errors = check_result(result, spec, traced)
    if errors:
        print("result does not match BENCHMARK.json: %s" % errors,
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def selected_workloads(args, spec):
    """--workloads, else BENCHMARK.json's; pccheck_bench rejects unknown
    names, and also runs the ungated ceiling."""
    if args.workloads:
        return args.workloads.split(",")
    return [w["name"] for w in spec["workloads"]]


def fmt_stats(values):
    q1, q2, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (q2, q1, q3)


def mode_sets(args, spec):
    workloads = selected_workloads(args, spec)
    binary = build(ROOT, BUILD_ROOT / "suite")
    metrics = spec["end_to_end"]
    data = {}
    for r in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                values = measure(binary, spec, w, args.seed + r,
                                 args.seconds)["metrics"]
                print("# run %d set %d %s done" % (r + 1, s + 1, w),
                      file=sys.stderr)
                for m in metrics:
                    data.setdefault((w, m["name"]),
                                    [[] for _ in range(args.sets)])
                    data[(w, m["name"])][s].append(values[m["name"]])
    failed = False
    print("%-17s %-13s %-6s %s  verdict" % (
        "workload", "metric", "bound",
        "  ".join("set %d median [q1, q3] spread" % (s + 1)
                  for s in range(args.sets))))
    for w in workloads:
        for m in metrics:
            sets = data[(w, m["name"])]
            problems = sets_failures(sets, m["better"], m["bound"],
                                     exempt_spread=m["name"] == "setup_s")
            failed = failed or bool(problems)
            cells = "  ".join("%s %.3f" % (fmt_stats(v), spread(v))
                              for v in sets)
            print("%-17s %-13s %-6.3f %s  %s" % (
                w, m["name"], m["bound"], cells,
                "; ".join(problems) if problems else "ok"))
    return 1 if failed else 0


def mode_pair(args, spec):
    workloads = selected_workloads(args, spec)
    sides = {"parent": Path(args.pair[0]), "change": Path(args.pair[1])}
    binaries = {side: build(tree, BUILD_ROOT / ("pair-" + side))
                for side, tree in sides.items()}
    metrics = spec["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    runs = {}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                runs.setdefault((side, w), []).append(
                    measure(binaries[side], spec, w, args.seed + i,
                            args.seconds))
        print("# pair %d done" % (i + 1), file=sys.stderr)
    worse = False
    print("%-17s %-13s %-26s %-26s %-5s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for w in workloads:
        parent_runs, change_runs = runs[("parent", w)], runs[("change", w)]
        for name, v in judge_workload(parent_runs, change_runs, metrics):
            worse = worse or v == "worse"
            if name == "failed_frac":
                cells = ["%d/%d" % failed_share(r)
                         for r in (parent_runs, change_runs)] + ["-"]
            else:
                parent = [r["metrics"][name] for r in parent_runs]
                change = [r["metrics"][name] for r in change_runs]
                cells = [fmt_stats(parent), fmt_stats(change),
                         "%2d/%-2d" % (wins(parent, change, better[name]),
                                       len(parent))]
            print("%-17s %-13s %-26s %-26s %-5s %s" % (w, name, *cells, v))
    return 1 if worse else 0


def mode_smoke(args, spec):
    binary = Path(args.bin)
    errors = []
    proc = subprocess.run([str(binary), "--selftest"], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        errors.append("selftest failed:\n" + proc.stdout)
    names = [w["name"] for w in spec["workloads"]]
    trace = binary.parent / "smoke-trace.json"
    for traced in (False, True):
        cmd = [str(binary), "--workload=all", "--smoke", "--seconds=0.2"]
        if traced:
            cmd.append("--trace-out=" + str(trace))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            errors.append("%s exited %d" % (" ".join(cmd), proc.returncode))
        results = parse_results(proc.stdout)
        missing = sorted(set(names) - set(results))
        if missing:
            errors.append("no results for %s" % missing)
        for name, result in results.items():
            # Smoke windows are too short for every percentile, so
            # refused metrics may be missing; everything present must
            # match BENCHMARK.json.
            errors += ["%s: %s" % (name, e) for e in
                       check_result(result, spec, traced, require_all=traced)]
            if not result.get("correct"):
                errors.append("%s: audit failed" % name)
    for error in errors:
        print("smoke FAIL: " + error)
    print("# smoke %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--pair", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.smoke:
        if not args.bin:
            parser.error("--smoke needs --bin")
        return mode_smoke(args, spec)
    if args.sets:
        return mode_sets(args, spec)
    if args.pair:
        return mode_pair(args, spec)
    if args.workload:
        return mode_run(args, spec)
    parser.error("give --workload, --sets, --pair or --smoke")
    return 2


if __name__ == "__main__":
    sys.exit(main())
