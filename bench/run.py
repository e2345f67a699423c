"""deplin's benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the workload's job runs
untraced, repeatedly, for S seconds, its outputs are checked and the
end-to-end metrics are printed.  With ``--trace 1`` the per-layer metrics
come from a traced run (see ``layers.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the details (repetitions, quartiles,
check messages, nproc and the Python version), which are also written to
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PY = sys.executable or "python3"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
RSS_POLL_S = 0.05
PAGE = os.sysconf("SC_PAGE_SIZE")

WORKLOADS = {
    # name: (input set, analyze worker count)
    "treebank_short": ("treebank_short", 1),
    "treebank_short_par": ("treebank_short", NPROC),
    "ud_long": ("ud_long", 1),
    "baselines": ("baselines", None),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DEPLIN_THREADS", None)
    return env


def cli(*args) -> list[str]:
    return [PY, "-m", "deplin.cli", *args]


def _tree_rss(pid: int) -> int:
    """Resident bytes of a process and all its descendants."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


class Run:
    """One child process: wall time, peak RSS of its process tree, exit
    code and standard error."""

    def __init__(self, cmd: list[str], work: str):
        err_path = os.path.join(work, "stderr.txt")
        peak = [0]
        done = threading.Event()

        with open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([str(c) for c in cmd], env=child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)

            def poll():
                while not done.wait(RSS_POLL_S):
                    peak[0] = max(peak[0], _tree_rss(proc.pid))

            poller = threading.Thread(target=poll)
            poller.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                done.set()
                poller.join()
            self.wall = time.perf_counter() - started
        # wait4 reaped the child; tell Popen so that it does not wait again
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss covers the largest single process, the poll the tree's sum
        self.peak_rss = max(peak[0], usage.ru_maxrss * 1024)
        with open(err_path, encoding="utf-8") as fh:
            self.stderr = fh.read()


def digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "count": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "count": len(values)}


def setup(input_set: str, seed: int, work: str) -> tuple[str, list[float], list[str]]:
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter;
    the copies must be byte-identical."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"inputs{i}")
        run = Run([PY, os.path.join(BENCH, "inputs.py"), input_set, str(seed), out], work)
        if run.returncode != 0:
            raise RuntimeError(f"input generation failed: {run.stderr}")
        times.append(run.wall)
        digests.append({f: digest(os.path.join(out, f)) for f in sorted(os.listdir(out))})
    msgs = [] if all(d == digests[0] for d in digests) else \
        ["the same seed wrote different inputs"]
    return os.path.join(work, "inputs0"), times, msgs


def _repeat(seconds: float, once) -> list[dict]:
    reps: list[dict] = []
    started = time.perf_counter()
    while not reps or time.perf_counter() - started < seconds:
        reps.append(once(len(reps)))
    return reps


def _analyze_counts(stderr: str) -> tuple[int, int]:
    """(processed, skipped) from ``analyze``'s summary line."""
    for line in stderr.splitlines():
        if line.startswith("processed "):
            words = line.split()
            return int(words[1]), int(words[4])
    return -1, -1


def default_features() -> list[str]:
    from deplin import features
    return [n for n in features.default_features() if n != "n"]


def treebank_short(inputs: str, work: str, seed: int, seconds: float, threads: int) -> dict:
    import checks

    hv = os.path.join(inputs, "treebank.hv")
    heads = checks.read_heads(hv)
    first_csv = os.path.join(work, "rep0.csv")

    def once(i):
        out = first_csv if i == 0 else os.path.join(work, "rep.csv")
        run = Run(cli("analyze", hv, out, "--threads", threads), work)
        return {"wall_s": run.wall, "peak_rss": run.peak_rss, "items": len(heads),
                "returncode": run.returncode, "counts": _analyze_counts(run.stderr),
                "digest": digest(out)}

    reps = _repeat(seconds, once)
    failed, msgs = checks.treebank_csv(first_csv, heads, default_features(), seed)
    failed *= len(reps)
    ref_threads = NPROC if threads == 1 else 1
    ref_csv = os.path.join(work, "reference.csv")
    ref = Run(cli("analyze", hv, ref_csv, "--threads", ref_threads), work)
    if ref.returncode != 0 or digest(ref_csv) != reps[0]["digest"]:
        msgs.append(f"CSV at {threads} workers differs from the CSV at {ref_threads}")
        failed += _differing_lines(first_csv, ref_csv)
    for i, rep in enumerate(reps):
        if rep["returncode"] != 0 or rep["counts"] != (len(heads), 0):
            msgs.append(f"rep {i}: exit {rep['returncode']}, "
                        f"(processed, skipped) = {rep['counts']}")
            failed += len(heads)
        elif rep["digest"] != reps[0]["digest"]:
            msgs.append(f"rep {i}: CSV differs from rep 0")
            failed += len(heads)
    return {"reps": reps, "failed": failed, "msgs": msgs,
            "input": f"{len(heads)} head vectors, n uniform in [1, 30]"}


def _differing_lines(a: str, b: str) -> int:
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        la, lb = fa.readlines(), fb.readlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def _convert_report(stderr: str) -> tuple[tuple[int, int, int], list[int]]:
    """((converted, filtered, errors), error line numbers) from ``convert``."""
    counts, lines = (-1, -1, -1), []
    for line in stderr.splitlines():
        if line.startswith("converted "):
            w = line.replace(",", "").split()
            counts = (int(w[1]), int(w[3]), int(w[5]))
        elif line.startswith("  line "):
            lines.append(int(line.split()[1].rstrip(":")))
    return counts, lines


def ud_long(inputs: str, work: str, seed: int, seconds: float) -> dict:
    import checks

    conllu = os.path.join(inputs, "ud.conllu")
    expected_hv = os.path.join(inputs, "ud_expected.hv")
    with open(os.path.join(inputs, "ud_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    valid = len(manifest["orders"])
    malformed = manifest["malformed_first_lines"]
    names = default_features() + ["D_min_planar"]
    expected_digest = digest(expected_hv)
    first_hv, first_csv = os.path.join(work, "ud0.hv"), os.path.join(work, "ud0.csv")

    def once(i):
        hv = first_hv if i == 0 else os.path.join(work, "ud.hv")
        csv = first_csv if i == 0 else os.path.join(work, "ud.csv")
        conv = Run(cli("convert", conllu, hv, "--remove-punct"), work)
        ana = Run(cli("analyze", hv, csv, "--threads", 1, "--features", ",".join(names)),
                  work)
        counts, err_lines = _convert_report(conv.stderr)
        return {"wall_s": conv.wall + ana.wall, "convert_s": conv.wall,
                "peak_rss": max(conv.peak_rss, ana.peak_rss), "items": manifest["sentences"],
                "returncode": (conv.returncode, ana.returncode), "convert": counts,
                "error_lines": err_lines, "counts": _analyze_counts(ana.stderr),
                "hv_digest": digest(hv), "digest": digest(csv)}

    reps = _repeat(seconds, once)
    msgs = []
    failed = 0
    if reps[0]["hv_digest"] != expected_digest:
        msgs.append("converted head vectors differ from the generated trees")
        failed += _differing_lines(first_hv, expected_hv)
    for i, rep in enumerate(reps):
        wrong = set(rep["error_lines"]) ^ set(malformed)
        if rep["returncode"] != (0, 0) or rep["convert"] != (valid, 0, len(malformed)) or wrong:
            msgs.append(f"rep {i}: exit {rep['returncode']}, (converted, filtered, errors) = "
                        f"{rep['convert']}, expected {(valid, 0, len(malformed))}")
            failed += max(len(wrong), 1)
        if rep["counts"] != (valid, 0):
            msgs.append(f"rep {i}: (processed, skipped) = {rep['counts']}")
            failed += valid
        elif (rep["hv_digest"], rep["digest"]) != (reps[0]["hv_digest"], reps[0]["digest"]):
            msgs.append(f"rep {i}: output differs from rep 0")
            failed += valid
    row_failed, row_msgs = checks.treebank_csv(
        first_csv, checks.read_heads(first_hv), names, seed, manifest["orders"])
    return {"reps": reps, "failed": failed + row_failed * len(reps), "msgs": msgs + row_msgs,
            "input": f"{valid} CoNLL-U sentences, n in [30, 150], plus "
                     f"{len(malformed)} malformed ones"}


def baselines(inputs: str, work: str, seed: int, seconds: float) -> dict:
    import checks

    trees_path = os.path.join(inputs, "baselines.hv")
    out = os.path.join(work, "baselines.json")
    run = Run([PY, os.path.join(BENCH, "baselines_job.py"), trees_path, seed, seconds, out],
              work)
    if run.returncode != 0:
        raise RuntimeError(f"baselines job failed: {run.stderr}")
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    heads = checks.read_heads(trees_path)
    failed, msgs = checks.baselines(data["tasks"], data["reps"], heads)
    items = sum(r["samples"] for r in data["reps"][0]["results"])
    reps = [{"wall_s": r["wall_s"], "items": items, "peak_rss": run.peak_rss}
            for r in data["reps"]]
    return {"reps": reps, "failed": failed, "msgs": msgs,
            "input": f"{len(data['tasks'])} estimate calls, {items} ensemble members"}


def untraced(workload: str, seed: int, seconds: float, work: str) -> dict:
    input_set, threads = WORKLOADS[workload]
    inputs, setup_times, setup_msgs = setup(input_set, seed, work)
    if input_set == "treebank_short":
        res = treebank_short(inputs, work, seed, seconds, threads)
    elif input_set == "ud_long":
        res = ud_long(inputs, work, seed, seconds)
    else:
        res = baselines(inputs, work, seed, seconds)
    reps = res["reps"]
    rates = [r["items"] / r["wall_s"] for r in reps]
    rss = [r["peak_rss"] / 2**20 for r in reps]
    attempted = sum(r["items"] for r in reps)
    failed = min(attempted, res["failed"])
    msgs = setup_msgs + res["msgs"]
    return {
        "correct": not msgs and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": statistics.median(rates), "unit": "items/s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        },
        "detail": {
            "input": res["input"],
            "threads": threads,
            "setup_s": quartiles(setup_times),
            "items_per_s": quartiles(rates),
            "peak_rss_mb": quartiles(rss),
            "error_frac": failed / attempted,
            "messages": msgs,
            "reps": [{k: v for k, v in r.items() if "digest" not in k} for r in reps],
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/deplin/__init__.py", "tests/oracles.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a deplin checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH, SRC]
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            import layers
            result = layers.traced(args.workload, args.seed, work)
        else:
            result = untraced(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail = result.pop("detail")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=NPROC, python=platform.python_version(),
                  correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"])
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
