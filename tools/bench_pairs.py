"""Alternating benchmark pairs of two checkouts, with the verdict on each
end-to-end metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N
        [--seed S] [--seconds T] [--record PATH]

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout, N times each, parent first in odd pairs and change first
in even ones, and reads only the JSON object each run prints last.  For
each workload and metric it prints each side's median and quartiles, the
pairs the change wins (ties count for neither) and a verdict:

    gain         the change wins at least 9 of every 10 pairs, and the
                 medians differ, in its favour, by more than the distance
                 between the parent's quartiles (at least 10 pairs);
    regression   the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json (a fraction of
                 the parent's median);
    unresolved   the parent's quartiles lie further apart than that bound,
                 and not every change run beats every parent run;
    within bound otherwise.

A run whose result says `correct: false`, or which failed more requests
than the other side's run of the same pair and workload, timed a program
that gave wrong answers: such runs are printed, every metric row of their
workload reads `incorrect` instead of a verdict, and the script exits 1.
In a run of all workloads, a workload's failed requests are its "FAILED"
lines; each recorded run keeps its own workload's `correct` and `failed`,
and `attempted` counts the whole run.

Each run's "# run" line (under its "== <name>" line in a run of all
workloads) holds the median latency of each CLI command; each side's
median of those per-command medians is printed after the verdicts, as
information with no verdict of its own, and --record keeps them.

The direction and bound of each metric are read from CHANGE's
BENCHMARK.json.  With --record, the summary and every run (with the
requests it sent) are also written to PATH as JSON, in the layout of the
committed BENCH_*.json files, with the code each side measured: a SHA-256
over its src/blowdyn/*.py, and its `git rev-parse HEAD` where the checkout
has a .git.  A change measured before it is committed has no commit of its
own (its HEAD is the commit it sits on), so the source hash names its code.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """(environment, result, {workload: failed requests}, {workload:
    {command: p50 latency}}) of one benchmark run in `checkout`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit("bench_pairs: %s in %s exited %d:\n%s"
                         % (" ".join(argv[1:]), checkout, proc.returncode,
                            proc.stderr))
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), None)
    result = json.loads(lines[-1])
    return (env, result, workload_failures(lines, workload, result),
            command_p50s(lines, workload))


def command_p50s(lines, workload):
    """{workload: {command: p50 latency, s}} from the "# run" line of each
    workload of one run."""
    out, current = {}, workload
    for line in lines:
        if line.startswith("== "):
            current = line[3:].strip()
        elif line.startswith("# run "):
            out[current] = json.loads(line[len("# run "):]).get(
                "p50_by_command_s", {})
    return out


def workload_failures(lines, workload, result):
    """{workload: failed requests} of one run.  A run of all workloads
    prints each one's report under a "== <name>" line, with one "FAILED"
    line per failed request."""
    if workload != "all":
        return {workload: result["failed"]}
    out, current = {}, None
    for line in lines[:-1]:
        if line.startswith("== "):
            current = line[3:].strip()
            out[current] = 0
        elif line.startswith("FAILED ") and current is not None:
            out[current] += 1
    return out


def incorrect_runs(runs):
    """The runs that are not correct, or that failed more requests than
    the other side's run of the same pair and workload."""
    failed = {(r["pair"], r["workload"], r["side"]): r["failed"]
              for r in runs}
    other = dict(zip(SIDES, SIDES[::-1]))
    return [r for r in runs if not r["correct"] or r["failed"] > failed.get(
        (r["pair"], r["workload"], other[r["side"]]), r["failed"])]


def measured_code(checkout):
    """{"src_sha256", "git_head"} of a checkout: the SHA-256 of the lines
    "<name> <SHA-256 of the file>" over src/blowdyn/*.py in name order, and
    the commit HEAD names (None without a .git)."""
    src = os.path.join(checkout, "src", "blowdyn")
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            line = "%s %s\n" % (name, hashlib.sha256(fh.read()).hexdigest())
        digest.update(line.encode())
    head = None
    if os.path.exists(os.path.join(checkout, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              stdout=subprocess.PIPE, text=True)
        head = proc.stdout.strip() or None
    return {"src_sha256": digest.hexdigest(), "git_head": head}


def split_metrics(result, workload):
    """{workload: {metric: value}} from one run's final JSON object; a run
    of one workload names its metrics without the workload prefix."""
    out = {}
    for name, m in result["metrics"].items():
        w, metric = name.split(".", 1) if workload == "all" else (
            workload, name)
        out.setdefault(w, {})[metric] = m["value"]
    return out


def summarize(parent, change):
    """The record's summary entry of one metric, from the per-pair values
    of each side."""
    return {
        "parent_median": statistics.median(parent),
        "parent_quartiles": quartiles(parent),
        "change_median": statistics.median(change),
        "change_quartiles": quartiles(change),
        "pairs": len(parent),
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def verdict(s, parent, change, higher_better, bound):
    """(wins, verdict) of the change against the parent, from the per-pair
    values of each side and their summary s."""
    sign = 1 if higher_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gap = sign * (s["change_median"] - s["parent_median"])
    q1, q3 = s["parent_quartiles"]
    base = abs(s["parent_median"]) or 1.0
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > q3 - q1:
        return wins, "gain"
    if bound is None:
        return wins, "no gain"
    if -gap > bound * base:
        return wins, "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > bound * base and not all_better:
        return wins, "unresolved"
    return wins, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=("tower", "analysis", "orbit", "all"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--record", metavar="PATH",
                    help="also write the summary and the runs here")
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    kinds = {m["name"]: (m["better"] == "higher", m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}

    code = {side: measured_code(roots[side]) for side in SIDES}
    values = {}  # (workload, metric) -> {side: [value per pair]}
    latency = {}  # (workload, command) -> {side: [p50 per pair]}
    runs, env = [], {}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            env[side], result, failures, p50s = run_once(
                roots[side], args.workload, args.seed, seconds)
            for w, metrics in split_metrics(result, args.workload).items():
                failed = failures.get(w, result["failed"])
                correct = (result["correct"] if args.workload != "all"
                           else not failed)
                for metric, value in metrics.items():
                    values.setdefault((w, metric), {s: [] for s in SIDES})[
                        side].append(value)
                for cmd, value in p50s.get(w, {}).items():
                    latency.setdefault((w, cmd), {s: [] for s in SIDES})[
                        side].append(value)
                runs.append({"pair": pair, "side": side, "workload": w,
                             "seed": args.seed, "correct": correct,
                             "attempted": result["attempted"],
                             "failed": failed, "metrics": metrics,
                             "p50_by_command_s": p50s.get(w, {})})
            print("pair %d %s done" % (pair, side), file=sys.stderr,
                  flush=True)

    bad = incorrect_runs(runs)
    for r in bad:
        print("incorrect run: pair %d %s %s: correct %s, %d failed"
              % (r["pair"], r["side"], r["workload"],
                 str(r["correct"]).lower(), r["failed"]))
    suspect = {r["workload"] for r in bad}
    summary = {}
    row = "%-16s %-14s %12s %25s %12s %25s %6s  %s"
    print(row % ("workload", "metric", "parent", "[q1, q3]", "change",
                 "[q1, q3]", "wins", "verdict"))
    for (w, metric), sides in values.items():
        higher, bound = kinds.get(metric, (True, None))
        s = summarize(sides["parent"], sides["change"])
        wins, v = verdict(s, sides["parent"], sides["change"], higher,
                          bound)
        if w in suspect:
            v = "incorrect"
        s["change_better_pairs"] = wins
        s["verdict"] = v
        summary.setdefault(w, {})[metric] = s
        print(row % (w, metric, "%.6g" % s["parent_median"],
                     "[%.6g, %.6g]" % tuple(s["parent_quartiles"]),
                     "%.6g" % s["change_median"],
                     "[%.6g, %.6g]" % tuple(s["change_quartiles"]),
                     "%d/%d" % (wins, s["pairs"]), v))
    by_command = {}
    print("\nper-command p50 latency, s (information, no verdict)")
    for (w, cmd), sides in latency.items():
        s = summarize(sides["parent"], sides["change"])
        by_command.setdefault(w, {})[cmd] = s
        print(row % (w, cmd, "%.6g" % s["parent_median"],
                     "[%.6g, %.6g]" % tuple(s["parent_quartiles"]),
                     "%.6g" % s["change_median"],
                     "[%.6g, %.6g]" % tuple(s["change_quartiles"]),
                     "", "info"))
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({
                "command": "python3 perfbench/run.py --workload %s --seed %d "
                           "--seconds %g --trace 0"
                           % (args.workload, args.seed, seconds),
                "environment": env,
                "code": code,
                "summary": summary,
                "p50_by_command_s": by_command,
                "runs": runs,
            }, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
