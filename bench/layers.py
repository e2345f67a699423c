"""The traced run: per-layer metrics of every ``src/deplin`` module.

Every traced run measures the same layer suite, whatever its workload, so
that each layer is timed on the input set where it does most work:

* ``treebank_short`` inputs: ``cli``, ``trees``, ``treebank`` and the
  ``features`` of the default set (``properties`` shows through these);
* ``ud_long`` inputs: ``conllu`` and ``features.D_min_planar``;
* ``baselines`` inputs: ``baselines`` and exhaustive ``generate``;
* scaling curves: ``linarr`` solvers and metrics, random ``generate``.

Only ``trace.overhead_frac`` belongs to the named workload: the wall time of
its job traced over the same job untraced, minus one.  Spans are recorded
here, around calls into deplin's public functions; deplin itself is not
instrumented.  All spans are written to ``.bench_out/`` at the end.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import time

import baselines_job
import checks
import inputs
import run
from tracing import NullTracer, Tracer, dump

from deplin import (
    ALL_KINDS,
    Arrangement,
    PreprocessOptions,
    RootedTree,
    TreebankSource,
    TreeKind,
    classify_arrangement,
    convert,
    count_trees,
    features,
    flux,
    min_D_planar,
    min_D_projective,
    num_crossings,
    random_arrangement,
    random_tree,
)
from deplin.treebank import render_value

CLI_STARTUP_REPEATS = 7
CLI_OVERHEAD_PAIRS = 1
# Scaling curves.  A point whose call takes longer than BUDGET_S ends its
# curve: the larger sizes are recorded as over budget and not run.  Keep the
# budget the same on every commit.
BUDGET_S = 0.03
SIZES = (10, 100, 1000, 10000)
COLD_COUNT_SIZES = (100, 1000, 3000)
REPEAT_S = 0.05  # calls faster than the budget repeat for about this long
MAX_REPEATS = 50
LR = TreeKind("labeled", "rooted")
# a section returns its metrics; its tracer, item count, failures and (for
# its own workload) tracing overhead; and its check messages
Section = tuple[dict, dict, list[str]]


# -- treebank passes ---------------------------------------------------------

def analyze_pass(hv_path: str, out_csv: str, names: list[str], tracer) -> dict:
    """``deplin analyze`` at one worker, step by step in this process: read
    (which parses), parse again, evaluate each feature on one context in
    registry order, render, write.  Writes the same CSV as the CLI."""
    feats = features.resolve(names)
    spans = [f"features.{name}" for name in names]
    sentences = skipped = 0
    started = time.perf_counter()
    with open(out_csv, "w", encoding="utf-8", newline="") as out:
        out.write(",".join(["sentence_id", "n"] + names) + "\n")
        records = iter(TreebankSource(hv_path, "skip_and_report"))
        while True:
            s = tracer.begin("treebank.read", sentences + 1)
            rec = next(records, None)
            tracer.end(s)
            if rec is None:
                break
            sentences += 1
            if rec.error is not None:
                skipped += 1
                continue
            row = tracer.begin("treebank.row", sentences)
            s = tracer.begin("trees.from_head_vector", sentences)
            tree = RootedTree.from_head_vector(rec.heads)
            tracer.end(s)
            ctx = features.FeatureContext(tree, Arrangement.identity(tree.n))
            cells = [str(sentences), str(tree.n)]
            for feat, span in zip(feats, spans):
                s = tracer.begin(span, sentences)
                value = feat.func(ctx)
                tracer.end(s)
                s = tracer.begin("treebank.render_value", sentences)
                cells.append(render_value(value))
                tracer.end(s)
            out.write(",".join(cells) + "\n")
            tracer.end(row)
    return {"wall_s": time.perf_counter() - started, "sentences": sentences,
            "skipped": skipped}


def _per_item_us(selfs: dict, name: str, items: int, field: int = 2) -> float:
    """Self time (or, with field=1, whole duration) per item, in µs."""
    return selfs.get(name, (0, 0.0, 0.0))[field] / items * 1e6


def treebank_section(inp: str, work: str, workload: str, seed: int) -> Section:
    hv = os.path.join(inp, "treebank.hv")
    names = run.default_features()
    cli_csv = os.path.join(work, "cli.csv")
    null_csv = os.path.join(work, "null.csv")
    cli_walls, null_walls = [], []
    for _ in range(CLI_OVERHEAD_PAIRS):
        cli_walls.append(run.Run(run.cli("analyze", hv, cli_csv, "--threads", 1), work).wall)
        null = analyze_pass(hv, null_csv, names, NullTracer())
        null_walls.append(null["wall_s"])
    tracer = Tracer("treebank_short")
    traced_csv = os.path.join(work, "traced.csv")
    traced = analyze_pass(hv, traced_csv, names, tracer)
    msgs = [] if run.digest(traced_csv) == run.digest(cli_csv) == run.digest(null_csv) \
        else ["traced analyze pass wrote a different CSV from deplin analyze"]
    processed = traced["sentences"] - traced["skipped"]
    selfs = tracer.self_times()
    m = {f"features.{name}.us": _per_item_us(selfs, f"features.{name}", processed)
         for name in names}
    m["trees.from_head_vector.us"] = _per_item_us(selfs, "trees.from_head_vector", processed)
    m["treebank.read.us"] = _per_item_us(selfs, "treebank.read", traced["sentences"])
    m["treebank.render_value.us"] = _per_item_us(selfs, "treebank.render_value", processed)
    m["treebank.overhead.us"] = \
        (statistics.median(cli_walls) - statistics.median(null_walls)) / processed * 1e6
    m["treebank.sentences"] = traced["sentences"]
    m["treebank.skipped"] = traced["skipped"]
    overhead = traced["wall_s"] / statistics.median(null_walls) - 1
    return m, {"tracer": tracer, "items": traced["sentences"], "overhead": overhead}, msgs


def ud_section(inp: str, work: str, workload: str, seed: int) -> Section:
    conllu = os.path.join(inp, "ud.conllu")
    hv = os.path.join(work, "ud.hv")
    names = run.default_features() + ["D_min_planar"]
    with open(os.path.join(inp, "ud_manifest.json"), encoding="utf-8") as fh:
        sentences = json.load(fh)["sentences"]
    opts = PreprocessOptions(remove_punct=True)
    tracer = Tracer("ud_long")

    def job(tr):
        s = tr.begin("conllu.convert", 0)
        report = convert(conllu, hv, opts)
        tr.end(s)
        return report, analyze_pass(hv, os.path.join(work, "ud.csv"), names, tr)

    started = time.perf_counter()
    report, traced = job(tracer)
    traced_wall = time.perf_counter() - started
    msgs = [] if run.digest(hv) == run.digest(os.path.join(inp, "ud_expected.hv")) \
        else ["converted head vectors differ from the generated trees"]
    selfs = tracer.self_times()
    m = {
        "conllu.convert.us": _per_item_us(selfs, "conllu.convert", sentences),
        "conllu.converted": report.converted,
        "conllu.errored": len(report.errored),
        "conllu.filtered": report.filtered,
        "features.D_min_planar.us": _per_item_us(
            selfs, "features.D_min_planar", traced["sentences"] - traced["skipped"]),
    }
    extra = {"tracer": tracer, "items": sentences}
    if workload == "ud_long":
        started = time.perf_counter()
        job(NullTracer())
        extra["overhead"] = traced_wall / (time.perf_counter() - started) - 1
    return m, extra, msgs


def baselines_section(inp: str, work: str, workload: str, seed: int) -> Section:
    trees = baselines_job.load_trees(os.path.join(inp, "baselines.hv"))
    job = baselines_job.tasks(trees, seed)
    tracer = Tracer("baselines")
    results = baselines_job.run_once(trees, job, tracer)
    selfs = tracer.self_times()
    m = {}
    members: dict[str, int] = {}
    for task, res in zip(job, results):
        key = baselines_job.span_name(task)
        members[key] = members.get(key, 0) + res["samples"]
    for c in baselines_job.CONSTRAINTS:
        key = f"baselines.estimate_over_arrangements.{c}"
        m[f"{key}.us"] = _per_item_us(selfs, f"{key}.arr_mc", members[f"{key}.arr_mc"], 1)
        m[f"{key}.self_us"] = _per_item_us(selfs, f"{key}.arr_mc", members[f"{key}.arr_mc"])
        m[f"generate.exhaustive_arrangements.{c}.us"] = _per_item_us(
            selfs, f"generate.exhaustive_arrangements.{c}", members[f"{key}.arr_exact"])
    for kind in map(str, ALL_KINDS):
        key = f"baselines.estimate_over_trees.{kind}"
        m[f"{key}.us"] = _per_item_us(selfs, f"{key}.trees_mc", members[f"{key}.trees_mc"], 1)
        m[f"{key}.self_us"] = _per_item_us(selfs, f"{key}.trees_mc", members[f"{key}.trees_mc"])
        m[f"generate.exhaustive_trees.{kind}.us"] = _per_item_us(
            selfs, f"generate.exhaustive_trees.{kind}", members[f"{key}.trees_exact"])
    heads = checks.read_heads(os.path.join(inp, "baselines.hv"))
    failed, msgs = checks.baselines(job, [{"results": results}], heads)
    calls = sum(e - s for name, s, e, parent, _ in tracer.spans if parent < 0) / 1e9
    extra = {"tracer": tracer, "items": sum(members.values()), "failed": failed}
    if workload == "baselines":
        started = time.perf_counter()
        baselines_job.run_once(trees, job)
        extra["overhead"] = calls / (time.perf_counter() - started) - 1
    return m, extra, msgs


# -- scaling curves ----------------------------------------------------------

def _time_call(fn, args) -> float:
    """Seconds per call: the first call alone when it is over the budget,
    else the median of repeated calls."""
    t0 = time.perf_counter()
    fn(*args)
    first = time.perf_counter() - t0
    if first > BUDGET_S:
        return first
    times = []
    deadline = time.perf_counter() + REPEAT_S
    while len(times) < MAX_REPEATS and (len(times) < 3 or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _curve(points: dict, name: str, measure, sizes=SIZES) -> None:
    """Record ``measure(n)`` seconds for each size until one is over the
    budget or raises; ``measure`` returns None when filling caches before
    the call was already over the budget."""
    stop = None
    for n in sizes:
        key = f"{name}.n{n}.ms"
        if stop:
            points[key] = {"status": stop}
            continue
        try:
            seconds = measure(n)
        except Exception as exc:  # a failed point is a result, not a crash
            points[key] = {"status": "failed", "error": f"{type(exc).__name__}: {exc}"[:200]}
            stop = "not_run_after_failure"
            continue
        if seconds is None:
            points[key] = {"status": "over_budget", "note": "cache warm-up over budget"}
            stop = "over_budget"
            continue
        points[key] = {"status": "ok", "ms": seconds * 1e3}
        if seconds > BUDGET_S:
            stop = "over_budget"


def _calls(fn, make, warm=None):
    def measure(n):
        if warm is not None:
            t0 = time.perf_counter()
            warm(n)
            if time.perf_counter() - t0 > BUDGET_S:
                return None
        return _time_call(fn, make(n))
    return measure


def _cold_count(n: int) -> float:
    """Seconds for count_trees(unlabeled-rooted, n) in a fresh interpreter."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {run.SRC!r})\n"
            "from deplin import TreeKind, count_trees\n"
            "t = time.perf_counter()\n"
            f"count_trees(TreeKind('unlabeled', 'rooted'), {n})\n"
            "print(time.perf_counter() - t)\n")
    out = subprocess.run([run.PY, "-c", code], capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(out.stderr.strip().splitlines()[-1])
    return float(out.stdout)


def _path(n: int) -> RootedTree:
    return RootedTree.from_head_vector((0,) + tuple(range(1, n)))


def _star(n: int) -> RootedTree:
    return RootedTree.from_head_vector((0,) + (1,) * (n - 1))


def curves(seed: int) -> dict:
    """Scaling curves in a fixed order.  The unlabeled tree kinds share
    deplin's count table, which the unlabeled-free curve fills first."""
    rng = random.Random(seed)
    shapes = {"random": lambda n: random_tree(LR, n, rng), "path": _path, "star": _star}

    def with_arrangement(n):
        t = random_tree(LR, n, rng)
        return t, Arrangement.from_vertex_order(rng.sample(range(1, n + 1), n))

    points: dict = {}
    for shape, make in shapes.items():
        _curve(points, f"linarr.min_D_projective.{shape}",
               _calls(min_D_projective, lambda n: (make(n),)))
        _curve(points, f"linarr.min_D_planar.{shape}",
               _calls(min_D_planar, lambda n: (make(n).to_free(),)))
    for name, fn in (("flux", flux), ("classify_arrangement", classify_arrangement),
                     ("num_crossings", num_crossings)):
        _curve(points, f"linarr.{name}.random", _calls(fn, with_arrangement))
    for kind in ALL_KINDS:
        _curve(points, f"generate.random_tree.{kind}",
               _calls(random_tree, lambda n: (kind, n, rng), warm=lambda n: count_trees(kind, n)))
    for c in baselines_job.CONSTRAINTS:
        _curve(points, f"generate.random_arrangement.{c}.random",
               _calls(random_arrangement, lambda n: (random_tree(LR, n, rng), c, rng)))
    _curve(points, "generate.random_arrangement.projective.path",
           _calls(random_arrangement, lambda n: (_path(n), "projective", rng)))
    _curve(points, "generate.count_trees.unlabeled-rooted.cold", _cold_count,
           sizes=COLD_COUNT_SIZES)
    return points


# -- the traced run ------------------------------------------------------------

def _unit(name: str) -> str:
    return {"us": "us", "self_us": "us", "ms": "ms",
            "overhead_frac": "ratio"}.get(name.rsplit(".", 1)[1], "count")


def traced(workload: str, seed: int, work: str) -> dict:
    input_set = run.WORKLOADS[workload][0]
    dirs = {}
    for name, write in inputs.WRITERS.items():
        dirs[name] = os.path.join(work, f"inputs-{name}")
        os.makedirs(dirs[name])
        write(seed, dirs[name])
    metrics = {"cli.startup.ms": 1e3 * statistics.median(
        run.Run(run.cli("--version"), work).wall for _ in range(CLI_STARTUP_REPEATS))}
    tracers, msgs = [], []
    attempted = failed = 0
    overhead = None
    for name, section in (("treebank_short", treebank_section), ("ud_long", ud_section),
                          ("baselines", baselines_section)):
        m, extra, section_msgs = section(dirs[name], work, workload, seed)
        metrics.update(m)
        tracers.append(extra["tracer"])
        attempted += extra["items"]
        failed += extra.get("failed", 0) + (extra["items"] if section_msgs else 0)
        msgs += section_msgs
        if name == input_set:
            overhead = extra["overhead"]
    metrics["trace.overhead_frac"] = overhead
    points = curves(seed)
    for key, point in points.items():
        if point["status"] == "ok":
            metrics[key] = point["ms"]
    statuses = [p["status"] for p in points.values()]
    metrics["curves.over_budget"] = statuses.count("over_budget")
    metrics["curves.failed"] = statuses.count("failed")
    out_dir = os.path.join(run.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    dump(tracers, os.path.join(out_dir, f"{workload}-seed{seed}-spans.tsv.gz"))
    return {
        "correct": not msgs and failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "detail": {"budget_s": BUDGET_S, "curves": points, "messages": msgs,
                   "spans": sum(len(t.spans) for t in tracers)},
    }
