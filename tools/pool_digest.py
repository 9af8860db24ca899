"""Digest of every distinct benchmark pool request, run against one checkout.

    python3 tools/pool_digest.py CHECKOUT [--workload NAME]
    python3 tools/pool_digest.py CHECKOUT --against PARENT_CHECKOUT [--show]

Builds the request pool of each workload from CHECKOUT/perfbench/workloads.py
(read, never changed) and runs every distinct request once, in-process,
through the blowdyn CLI imported from CHECKOUT/src.  An orbit request runs
together with the classify requests that read its CSV, in pool order.  Each
request prints one line:

    <key> <exit code> <SHA-256 of stdout> [<SHA-256 of the CSV>]

the CSV digest only for orbit requests.  The pool's files live under a
relative directory of a fresh temporary working directory, so the paths
inside the outputs are the same for every checkout, and comparing two
checkouts is one diff of two runs.

With --against, each checkout is digested in its own subprocess (a process
imports blowdyn from one checkout only), the differing lines are printed as
a unified diff, and the exit status is 1 if any differ.  With --show as
well, each request whose stdout digest differs is followed by a unified
diff of its two stdouts (a CSV that differs stays digest-only); each
subprocess then keeps its stdouts in a directory given by --keep.
"""

import os
import sys

# one BLAS/OpenMP thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

WORKLOADS = ("tower", "analysis", "orbit")


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load(checkout):
    """The checkout's CLI entry point and its workloads module."""
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import blowdyn.cli
    import workloads
    for mod, root in ((blowdyn.cli, src), (workloads, checkout)):
        if not os.path.abspath(mod.__file__).startswith(root + os.sep):
            raise SystemExit("pool_digest: imported %s, not from %s"
                             % (mod.__file__, root))
    return blowdyn.cli.main, workloads


def invoke(main, argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(args=argv, prog_name="blowdyn")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1)
        except Exception:
            code = 3
    return code, out.getvalue()


def distinct_groups(pool):
    """Each request group of the pool once, in pool order."""
    seen = set()
    for alts in pool.slots:
        for group in alts:
            if group[0].key not in seen:
                seen.add(group[0].key)
                yield group


def digest(main, workloads, name, keep=None):
    """Print the digest line of each distinct request of the workload;
    with keep, also write each stdout to keep/<SHA-256 of the key>."""
    pool = workloads.Pool(name, "pool")
    pool.write()
    for group in distinct_groups(pool):
        for req in group:
            code, out = invoke(main, req.argv())
            if keep:
                with open(os.path.join(keep, sha(req.key)), "w") as fh:
                    fh.write(out)
            cells = [req.key, str(code), sha(out)]
            if req.cmd == "orbit":
                with open(req.info["csv"], "rb") as fh:
                    cells.append(sha(fh.read()))
            print(" ".join(cells), flush=True)


def compare(checkout, parent, workload, show):
    """Digest both checkouts, one subprocess each, and print a diff of the
    two digests, then with show the stdout diff of each request whose
    stdout digest differs; 1 if the digests differ, else 0."""
    digests, kept = [], []
    try:
        for root in (parent, checkout):
            argv = [sys.executable, os.path.abspath(__file__), root,
                    "--workload", workload]
            if show:
                kept.append(tempfile.mkdtemp(prefix="pool-digest-out-"))
                argv += ["--keep", kept[-1]]
            out = subprocess.run(argv, check=True, stdout=subprocess.PIPE,
                                 text=True).stdout
            digests.append(out.splitlines())
        diff = list(difflib.unified_diff(*digests, parent, checkout,
                                         lineterm="", n=0))
        for line in diff:
            print(line)
        if show:
            before = {cells[0]: cells[2]
                      for cells in map(str.split, digests[0])}
            for key, _, out_sha, *_ in map(str.split, digests[1]):
                if before.get(key, out_sha) != out_sha:
                    show_stdouts(key, kept, (parent, checkout))
    finally:
        for path in kept:
            shutil.rmtree(path, ignore_errors=True)
    print("pool_digest: %d lines, %s" % (len(digests[1]), "differ" if diff
                                          else "identical"), file=sys.stderr)
    return 1 if diff else 0


def show_stdouts(key, kept, roots):
    """Print the unified diff of one request's two kept stdouts."""
    texts = []
    for path in kept:
        with open(os.path.join(path, sha(key))) as fh:
            texts.append(fh.read().splitlines())
    for line in difflib.unified_diff(
            *texts, *("%s: %s" % (root, key) for root in roots),
            lineterm=""):
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--against", metavar="PARENT_CHECKOUT",
                    help="compare with this checkout's digest")
    ap.add_argument("--show", action="store_true",
                    help="with --against, diff the stdouts that differ")
    ap.add_argument("--keep", metavar="DIR",
                    help="write each request's stdout into DIR")
    args = ap.parse_args()
    if args.show and not args.against:
        ap.error("--show needs --against")
    if args.against:
        return compare(os.path.abspath(args.checkout),
                       os.path.abspath(args.against), args.workload,
                       args.show)
    cli, workloads = load(os.path.abspath(args.checkout))
    keep = args.keep and os.path.abspath(args.keep)
    here = os.getcwd()
    work = tempfile.mkdtemp(prefix="pool-digest-")
    os.chdir(work)
    try:
        for name in (WORKLOADS if args.workload == "all"
                     else (args.workload,)):
            digest(cli, workloads, name, keep)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
