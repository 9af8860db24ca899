"""Record the expected output of every pool request into expected.json.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record.py

Exact outputs are stored as SHA-256 digests, classify and fatou-demo
outputs as the fields the oracle compares.  Numeric outputs are not
recorded; the oracle checks them by their defining properties, and this
script refuses to record a pool whose numeric outputs fail those checks.
"""

import json
import os
import shutil
import sys

import run
import workloads
from oracle import Oracle, summarize


def main():
    invoke = run.invoker(run.load_program())
    oracle = Oracle({}, invoke)
    expected, bad = {}, []
    for name in workloads.WORKLOADS:
        pool = workloads.Pool(name, os.path.join(run.OUT, "record"))
        pool.write()
        seen = set()
        for alts in pool.slots:
            for group in alts:
                if group[0].key in seen:
                    continue
                seen.add(group[0].key)
                for req in group:
                    code, out, err = invoke(req.argv())
                    if code != 0:
                        bad.append((req.key, err.strip()))
                        continue
                    value = summarize(req, out)
                    if value is None:
                        reason = oracle.check(req, code, out, err)
                        if reason:
                            bad.append((req.key, reason))
                    else:
                        expected[req.key] = value
        shutil.rmtree(pool.root, ignore_errors=True)
        print("%s: %d pool requests" % (name, len(seen)), flush=True)
    for key, reason in bad:
        print("FAILED %s: %s" % (key, reason), file=sys.stderr)
    if bad:
        return 1
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
