import os
import subprocess
import sys
from pathlib import Path

import pytest

import deplin
from deplin import (
    Arrangement,
    classify_arrangement,
    from_head_vector,
    num_crossings,
    sum_edge_lengths,
)
from deplin.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module_cli(*args):
    # the child imports the same deplin as the tests, installed or not
    src = str(Path(deplin.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "deplin.cli", *args],
                          capture_output=True, text=True, env=env)


def test_version():
    proc = run_module_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("deplin ")


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
    assert code == 2 and "registered features" in err


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
        ["baseline", "--tree", "0 1 2", "--what", "ED_unconstrained"], capsys)
    assert code == 0 and out.strip() == "8/3"
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 1 1 1", "--what", "Dmin_unconstrained"], capsys)
    assert code == 0 and out.splitlines()[0] == "6"
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1", "--what", "EC_unconstrained"], capsys)
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("what", ["Dmin_planar", "Dmin_projective"])
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
    if what == "Dmin_projective":
        assert classify_arrangement(t, a).projective


def test_baseline_estimate(capsys):
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 2 2", "--what", "estimate",
         "--metric", "D", "--mode", "exact"], capsys)
    assert code == 0 and out.startswith("mean=5 ")
    code, out, _ = run_cli(
        ["baseline", "--tree", "0 1 2 2", "--what", "estimate", "--metric", "D",
         "--mode", "monte_carlo", "--samples", "500", "--seed", "9"], capsys)
    assert code == 0 and "seed=9" in out


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
