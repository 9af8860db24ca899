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
    """(environment, result) of one benchmark run in `checkout`."""
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
    return env, json.loads(lines[-1])


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
    runs, env = [], {}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            env[side], result = run_once(roots[side], args.workload,
                                         args.seed, seconds)
            for w, metrics in split_metrics(result, args.workload).items():
                for metric, value in metrics.items():
                    values.setdefault((w, metric), {s: [] for s in SIDES})[
                        side].append(value)
                runs.append({"pair": pair, "side": side, "workload": w,
                             "seed": args.seed, "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"], "metrics": metrics})
            print("pair %d %s done" % (pair, side), file=sys.stderr,
                  flush=True)

    summary = {}
    row = "%-16s %-14s %12s %25s %12s %25s %6s  %s"
    print(row % ("workload", "metric", "parent", "[q1, q3]", "change",
                 "[q1, q3]", "wins", "verdict"))
    for (w, metric), sides in values.items():
        higher, bound = kinds.get(metric, (True, None))
        s = summarize(sides["parent"], sides["change"])
        wins, v = verdict(s, sides["parent"], sides["change"], higher,
                          bound)
        s["change_better_pairs"] = wins
        s["verdict"] = v
        summary.setdefault(w, {})[metric] = s
        print(row % (w, metric, "%.6g" % s["parent_median"],
                     "[%.6g, %.6g]" % tuple(s["parent_quartiles"]),
                     "%.6g" % s["change_median"],
                     "[%.6g, %.6g]" % tuple(s["change_quartiles"]),
                     "%d/%d" % (wins, s["pairs"]), v))
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({
                "command": "python3 perfbench/run.py --workload %s --seed %d "
                           "--seconds %g --trace 0"
                           % (args.workload, args.seed, seconds),
                "environment": env,
                "code": code,
                "summary": summary,
                "runs": runs,
            }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
