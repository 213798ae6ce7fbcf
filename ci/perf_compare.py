#!/usr/bin/env python3
"""Compares the service benchmark between two revisions.

    python3 ci/perf_compare.py <base-rev> <change-rev>

Runs BENCHMARK.json's command on both revisions in ten alternating pairs
per workload and prints a verdict per workload and end-to-end metric:
better, worse, unresolved or within bound.  Exits 2 when the revisions
differ in the benchmark itself, 1 when a metric reads worse or a run
fails, 0 otherwise.  The rule, the output and the exit status are
described in docs/benchmarking.md, section 6.
"""
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
WINS_NEEDED = 9


def log(message):
    print("perf_compare: " + message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True)


def resolve(rev):
    """The full commit sha `rev` names, or None."""
    result = git("rev-parse", "--verify", "--quiet", rev + "^{commit}")
    return result.stdout.decode().strip() if result.returncode == 0 else None


def benchmark_config(base, change):
    """BENCHMARK.json as both revisions hold it, or None when they differ
    in it or under any path it lists."""
    def differ(*paths):
        return git("diff", "--quiet", base, change, "--", *paths).returncode != 0

    if differ("BENCHMARK.json"):
        return None
    shown = git("show", change + ":BENCHMARK.json")
    if shown.returncode != 0:
        return None
    config = json.loads(shown.stdout)
    return None if differ(*config["paths"]) else config


def export(sha):
    """Exports `sha` into .bench_build/compare/<sha>/ unless a previous
    run did; returns the directory."""
    target = os.path.join(ROOT, ".bench_build", "compare", sha)
    if not os.path.isdir(target):
        partial = target + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = git("archive", sha)
        if archive.returncode != 0:
            raise RuntimeError("git archive %s failed" % sha)
        subprocess.run(["tar", "-x", "-C", partial], input=archive.stdout,
                       check=True)
        os.replace(partial, target)
    return target


def run(directory, command, workload, seed, seconds):
    """One benchmark run: (exit status, result object or None, counts line)."""
    env = dict(os.environ)
    # An absolute build directory would make both sides share one tree.
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    counts = next((line for line in lines if line.startswith("counts ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result if isinstance(result, dict) else None, counts


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(base, change, better, bound):
    """Judges one metric from paired runs: base[k] and change[k] ran as
    pair k.  `better` is "higher" or "lower"; `bound` is the fraction of
    the base median by which the change may be worse."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_median, b_q3 = quartiles(base)
    c_quartiles = quartiles(change)
    iqr = b_q3 - b_q1
    if b_median:
        spread = iqr / abs(b_median)
    else:
        spread = 0.0 if iqr == 0 else math.inf
    gain = sign * (c_quartiles[1] - b_median)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    beats_all = min(sign * c for c in change) > max(sign * b for b in base)
    loses_all = max(sign * c for c in change) < min(sign * b for b in base)
    if wins >= WINS_NEEDED and gain > iqr:
        verdict = "better"
    elif -gain > bound * abs(b_median) and (spread <= bound or loses_all):
        verdict = "worse"
    elif spread > bound and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"verdict": verdict, "wins": wins, "pairs": len(base),
            "spread": spread, "base": (b_q1, b_median, b_q3),
            "change": c_quartiles}


def fmt(value):
    return "%.6g" % value


def report_workload(workload, sides, metrics):
    """Prints one workload's comparison; returns (verdicts, ok)."""
    print("== %s ==" % workload)
    ok = True
    shares = {}
    for side, runs in sides.items():
        correct = sum(status == 0 and result is not None and
                      result.get("correct") is True
                      for status, result, _ in runs)
        attempted = sum(result.get("attempted", 0)
                        for _, result, _ in runs if result)
        failed = sum(result.get("failed", 0) for _, result, _ in runs if result)
        shares[side] = failed / attempted if attempted else 1.0
        ok = ok and correct == len(runs)
        print("%-6s %d/%d runs correct, %d/%d operations failed"
              % (side, correct, len(runs), failed, attempted))
    if shares["change"] > shares["base"]:
        print("change fails a larger share of operations than base")
        ok = False
    equal = sum(b[2] is not None and b[2] == c[2]
                for b, c in zip(sides["base"], sides["change"]))
    print("counts lines equal on %d/%d seeds" % (equal, len(sides["base"])))

    verdicts = []
    for metric in metrics:
        name = metric["name"]
        pairs = [(b[1]["metrics"][name]["value"], c[1]["metrics"][name]["value"])
                 for b, c in zip(sides["base"], sides["change"])
                 if b[1] and c[1] and name in b[1].get("metrics", {})
                 and name in c[1].get("metrics", {})]
        print()
        if len(pairs) < 2:
            print("%s: %d complete pairs, no verdict" % (name, len(pairs)))
            ok = False
            continue
        base = [b for b, _ in pairs]
        change = [c for _, c in pairs]
        result = compare(base, change, metric["better"], metric["bound"])
        verdicts.append(result["verdict"])
        print("%s (%s, %s is better, bound %s): %s"
              % (name, metric["unit"], metric["better"], fmt(metric["bound"]),
                 result["verdict"]))
        for side, values, (q1, median, q3) in (
                ("base", base, result["base"]),
                ("change", change, result["change"])):
            print("  %-6s median %s  quartiles %s .. %s  runs %s"
                  % (side, fmt(median), fmt(q1), fmt(q3),
                     " ".join(fmt(v) for v in values)))
        ratio = (result["change"][1] / result["base"][1]
                 if result["base"][1] else math.nan)
        print("  change/base %.3f, base spread %.3f, change wins %d/%d pairs"
              % (ratio, result["spread"], result["wins"], result["pairs"]))
    print()
    return verdicts, ok


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    shas = [resolve(rev) for rev in argv]
    for rev, sha in zip(argv, shas):
        if sha is None:
            log("not a commit: " + rev)
            return 2
    base, change = shas
    config = benchmark_config(base, change)
    if config is None:
        log("%s and %s differ in BENCHMARK.json or the paths it lists; "
            "a comparison must run identical benchmark code" % tuple(argv))
        return 2
    directories = {"base": export(base), "change": export(change)}
    print("base   %s\nchange %s\n%d pairs per workload, %d s per run\n"
          % (base, change, PAIRS, config["run_seconds"]))

    all_verdicts = []
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sides = {"base": [], "change": []}
        for seed in range(1, PAIRS + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                log("%s pair %d/%d: %s" % (workload, seed, PAIRS, side))
                sides[side].append(run(directories[side], config["command"],
                                       workload, seed, config["run_seconds"]))
        verdicts, workload_ok = report_workload(workload, sides,
                                                config["end_to_end"])
        all_verdicts += verdicts
        ok = ok and workload_ok

    tally = ", ".join("%d %s" % (all_verdicts.count(v), v)
                      for v in ("worse", "better", "unresolved", "within bound"))
    print("summary: " + tally + ("" if ok else "; failed runs or operations"))
    return 0 if ok and "worse" not in all_verdicts else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
