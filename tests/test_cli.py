import os
import subprocess
import sys
from pathlib import Path

import pytest

import deplin
from deplin import (
    Arrangement,
    TreeKind,
    classify_arrangement,
    estimate_over_arrangements,
    exhaustive_trees,
    features,
    from_head_vector,
    num_crossings,
    sum_edge_lengths,
)
from deplin.cli import build_parser, main
from deplin.treebank import render_value


_REGISTRY = ", ".join(sorted(features.REGISTRY))


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module_cli(*args, stdout=subprocess.PIPE):
    # the child imports the same deplin as the tests, installed or not
    src = str(Path(deplin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "deplin.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def test_version():
    proc = run_module_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("deplin ")


@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_analyze_to_dev_stdout_appends_to_a_redirected_stdout(tmp_path, threads, name):
    # each name then names the file itself: the CSV must follow what the
    # file held, not replace the file
    if not os.path.exists(name):
        pytest.skip(f"needs {name}")
    src = tmp_path / "t.hv"
    src.write_text("0 1 1\n2 0 2 3\n0\n", encoding="utf-8")
    csv = tmp_path / "t.csv"
    assert run_module_cli("analyze", str(src), str(csv), "--threads", threads).returncode == 0
    out = tmp_path / "out.txt"
    out.write_text("keep\n", encoding="utf-8")
    with open(out, "a", encoding="utf-8") as stdout:
        proc = run_module_cli("analyze", str(src), name, "--threads", threads, stdout=stdout)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == b"keep\n" + csv.read_bytes()


def test_usage_error_exit_code():
    proc = run_module_cli("generate")
    assert proc.returncode == 2


def test_analyze(tmp_path, capsys):
    src = tmp_path / "t.hv"
    src.write_text("2 3 0 3 2 7 5 4 3\n", encoding="utf-8")
    out = tmp_path / "t.csv"
    code, _, err = run_cli(
        ["analyze", str(src), str(out), "--features", "D,C", "--threads", "1"],
        capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "sentence_id,n,D,C", "1,9,19,2"]
    assert "processed 1" in err


def test_analyze_missing_input(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze", str(tmp_path / "no.hv"), str(tmp_path / "o.csv")], capsys)
    assert code == 1 and "error" in err


def test_analyze_unknown_feature(tmp_path, capsys):
    src = tmp_path / "t.hv"
    src.write_text("0 1\n", encoding="utf-8")
    code, _, err = run_cli(
        ["analyze", str(src), str(tmp_path / "o.csv"), "--features", "bogus"],
        capsys)
    # the registry is listed once, unquoted
    assert code == 2 and err == f"error: unknown feature 'bogus'; registered: {_REGISTRY}\n"


def test_analyze_fail_policy_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.hv"
    src.write_text("0 1\n0 0 1\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    code, _, err = run_cli(
        ["analyze", str(src), str(out), "--policy", "fail", "--threads", "1"], capsys)
    assert code == 1 and "MultipleRootsError" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "analyze", "analyze-threads-2", "collection", "isomorphic", "convert"])
def test_fail_fast_error_names_its_file_and_line(tmp_path, capsys, command):
    # the error keeps its class; the file and the line are printed once
    bad = tmp_path / "bad.hv"
    bad.write_text("0 1\n0 0\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("bad.hv\n", encoding="utf-8")
    (tmp_path / "ok.hv").write_text("0 1\n0 1\n", encoding="utf-8")
    src = tmp_path / "cycle.conllu"
    src.write_text(  # lines 1-2, then a head cycle on lines 3-4
        "1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
        "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_\n\n", encoding="utf-8")
    out = str(tmp_path / "out")
    fail = ["--policy", "fail"]
    roots = f"{bad}, line 2: MultipleRootsError: second root at position 2"
    args, expected = {
        "analyze": (["analyze", str(bad), out, *fail, "--threads", "1"], roots),
        "analyze-threads-2": (["analyze", str(bad), out, *fail, "--threads", "2"], roots),
        "collection": (["collection", str(tmp_path / "c.txt"), "--merge-out", out,
                        *fail, "--threads", "1"], roots),
        "isomorphic": (["isomorphic", str(tmp_path / "ok.hv"), str(bad)], roots),
        "convert": (["convert", str(src), out, *fail], f"{src}, line 3: CycleError: "
                    "no retained token reaches the root: cycle in head chain"),
    }[command]
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err == f"error: {expected}\n"


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    src = tmp_path / "t.hv"
    src.write_text("0 1\n", encoding="utf-8")
    lst = tmp_path / "c.txt"
    lst.write_text("t.hv\n", encoding="utf-8")
    for args in (["analyze", str(src), str(tmp_path / "o.csv")],
                 ["collection", str(lst), "--merge-out", str(tmp_path / "m.csv")]):
        code, _, err = run_cli(args + ["--threads", threads], capsys)
        assert code == 2 and "threads must be at least 1" in err


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert build_parser().parse_args(["analyze", "a", "b"]).threads == 1


def test_generate_exhaustive(capsys):
    code, out, _ = run_cli(
        ["generate", "--kind", "unlabeled-free", "-n", "7", "--exhaustive"],
        capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 11
    # free trees are emitted as edge lists
    assert all("-" in l for l in lines)


def test_generate_random_seeded(capsys):
    args = ["generate", "--kind", "labeled-rooted", "-n", "6",
            "--count", "5", "--seed", "123"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert len(out1.splitlines()) == 5
    # rooted kinds emit head vectors
    from deplin import from_head_vector
    for line in out1.splitlines():
        assert from_head_vector(line).n == 6


def test_baseline_values(capsys):
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 2", "--what", "expected_D"], capsys)
    assert code == 0 and out.strip() == "8/3"
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 1 1 1", "--what", "D_min_unconstrained"], capsys)
    assert code == 0 and out.splitlines()[0] == "6"
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1", "--what", "expected_C"], capsys)
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("what", ["D_min_planar", "D_min_projective"])
def test_baseline_min_witness(what, capsys):
    # the witness may be any optimal arrangement; only its value is fixed
    hv = "2 3 0 3 2 7 5 4 3 9 9 1"
    code, out, _ = run_cli(["baseline", "--tree", hv, "--what", what], capsys)
    assert code == 0
    value, positions = out.splitlines()
    t = from_head_vector(hv)
    positions = [int(p) for p in positions.split()]
    assert sorted(positions) == list(range(1, t.n + 1))
    a = Arrangement(positions)
    assert sum_edge_lengths(t, a) == int(value)
    assert num_crossings(t, a) == 0
    if what == "D_min_projective":
        assert classify_arrangement(t, a).projective


def test_baseline_estimate(capsys):
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 2 2", "--what", "D", "--mode", "exact"], capsys)
    assert code == 0 and out.startswith("mean=5 ")
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 2 2", "--what", "D",
         "--mode", "monte_carlo", "--samples", "500", "--seed", "9"], capsys)
    assert code == 0 and "seed=9" in out


def test_baseline_reads_the_feature_registry(capsys):
    kind = TreeKind.parse("labeled-rooted")
    for t in [t for n in range(1, 5) for t in exhaustive_trees(kind, n)]:
        hv = t.head_vector_str()
        for name, feature in features.REGISTRY.items():
            code, out, err = run_cli(["baseline", "--tree", hv, "--what", name], capsys)
            if feature.order_dependent:
                try:
                    res = estimate_over_arrangements(t, name, mode="exact")
                except ValueError:  # undefined on some arrangement
                    assert code == 2 and out == ""
                    continue
                assert code == 0
                assert out == f"mean={res.mean} variance={res.variance} samples={res.samples}\n"
                continue
            value = features.evaluate(name, t)
            if value is None:
                assert code == 1 and out == "" and "TooSmallError" in err
                continue
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == render_value(value, exact=True)
            if name.startswith("D_min_"):
                witness = Arrangement([int(p) for p in lines[1].split()])
                assert sum_edge_lengths(t, witness) == value
            else:
                assert len(lines) == 1


def test_baseline_unknown_feature_lists_the_registry_once(capsys):
    code, out, err = run_cli(["baseline", "--tree", "0 1", "--what", "bogus"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: unknown feature 'bogus'; registered: {_REGISTRY}\n"


def test_baseline_malformed_tree_is_a_malformed_line(capsys):
    # the same error and exit code as `analyze --policy fail` on that line
    code, out, err = run_cli(["baseline", "--tree", "0 x", "--what", "D"], capsys)
    assert code == 1 and out == ""
    assert err == "error: MalformedLineError: non-integer token\n"


def test_exact_estimate_beyond_the_ensemble_bound_fails(capsys):
    # 11! = 39 916 800 arrangements exceed the bound of 10**7
    code, out, err = run_cli(["baseline", "--tree", "0 1 2 3 4 5 6 7 8 9 10",
                              "--what", "D"], capsys)
    assert code == 1 and out == ""
    assert "EnsembleTooLargeError" in err


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_estimate_of_undefined_metric_is_a_usage_error(mode, capsys):
    code, out, err = run_cli(
        ["baseline", "--tree", "0", "--what", "flux_max_size", "--mode", mode], capsys)
    assert code == 2 and out == "" and "metric undefined on an ensemble member" in err


def test_samples_and_count_below_one_are_usage_errors(capsys):
    code, out, err = run_cli(
        ["baseline", "--tree", "0 1 2 2", "--what", "D",
         "--mode", "monte_carlo", "--samples", "0"], capsys)
    assert code == 2 and out == "" and "samples must be at least 1" in err
    for count in ("0", "-2"):
        code, out, err = run_cli(
            ["generate", "--kind", "labeled-rooted", "-n", "4", "--count", count], capsys)
        assert code == 2 and out == "" and "--count must be at least 1" in err


def test_isomorphic_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.hv"
    b = tmp_path / "b.hv"
    a.write_text("0 1 2 3\n", encoding="utf-8")
    b.write_text("2 3 0 3\n", encoding="utf-8")
    code, out, _ = run_cli(["isomorphic", str(a), str(b)], capsys)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(["isomorphic", str(a), str(b), "--mode", "rooted"],
                           capsys)
    assert code == 3 and out.strip() == "false"
    c = tmp_path / "c.hv"
    c.write_text("0 1 2 3\n0 1\n", encoding="utf-8")
    code, _, err = run_cli(["isomorphic", str(a), str(c)], capsys)
    assert code == 2


def test_isomorphic_malformed_line_exit_code(tmp_path, capsys):
    # read as `analyze --policy fail` reads: a typed error naming the line
    a = tmp_path / "a.hv"
    b = tmp_path / "b.hv"
    a.write_text("0 1\n0 1\n", encoding="utf-8")
    b.write_text("0 1\nx\n", encoding="utf-8")
    code, out, err = run_cli(["isomorphic", str(a), str(b)], capsys)
    assert code == 1 and out == ""
    assert "MalformedLineError" in err and "line 2" in err


def test_convert_cli(tmp_path, capsys):
    src = tmp_path / "s.conllu"
    src.write_text(
        "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\n"
        "2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n\n",
        encoding="utf-8")
    out = tmp_path / "o.hv"
    code, _, err = run_cli(
        ["convert", str(src), str(out), "--remove-punct"], capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8") == "2 0\n"
    assert "converted 1" in err


def test_convert_function_words_alone_removes_them(tmp_path, capsys):
    src = tmp_path / "s.conllu"
    src.write_text(
        "1\tthe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tdog\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "3\tran\trun\tVERB\t_\t_\t2\tdep\t_\t_\n\n",
        encoding="utf-8")
    out = tmp_path / "o.hv"
    for flags, heads in [([], "2 0 2"), (["--function-words", "DET"], "0 1"),
                         (["--remove-function-words"], "0 1"),
                         (["--remove-function-words", "--function-words", "VERB"], "2 0")]:
        code, _, _ = run_cli(["convert", str(src), str(out), *flags], capsys)
        assert code == 0
        assert out.read_text(encoding="utf-8") == heads + "\n"


def test_collection_cli(tmp_path, capsys):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    lst = tmp_path / "c.txt"
    lst.write_text("x.hv\n", encoding="utf-8")
    merged = tmp_path / "m.csv"
    code, _, err = run_cli(
        ["collection", str(lst), "--merge-out", str(merged),
         "--features", "D", "--threads", "1"], capsys)
    assert code == 0
    lines = merged.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "treebank,sentence_id,n,D"
    assert lines[1] == "x,1,2,1"


def test_collection_cli_prints_each_members_skip_reasons(tmp_path, capsys):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "y.hv").write_text("0 1\n0 0\n", encoding="utf-8")
    lst = tmp_path / "c.txt"
    lst.write_text("x.hv\ny.hv\n", encoding="utf-8")
    code, _, err = run_cli(
        ["collection", str(lst), "--merge-out", str(tmp_path / "m.csv"),
         "--features", "D", "--threads", "1"], capsys)
    assert code == 0
    assert err.splitlines()[1:] == [
        "  x: 1 sentences, 0 skipped",
        "  y: 1 sentences, 1 skipped",
        "    line 2: MultipleRootsError: second root at position 2",
    ]
