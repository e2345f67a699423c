import hashlib
import multiprocessing
import multiprocessing.pool
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import deplin
from deplin import (
    Arrangement,
    TreeKind,
    features,
    from_head_vector,
    process_collection,
    process_treebank,
    random_tree,
    read_head_vectors,
)
from deplin.errors import MultipleRootsError, TreeValidationError
from deplin.treebank import render_value
from fractions import Fraction

from conftest import FIG1_HV


def test_read_fixture_sizes(treebank_file):
    sizes = [rec.tree.n for rec in read_head_vectors(str(treebank_file))]
    assert sizes == [9, 11, 10]


def test_skip_and_report(tmp_path):
    p = tmp_path / "bad.hv"
    p.write_text("0 1\n0 0 1\n0 1 2\n0 x\n", encoding="utf-8")
    recs = list(read_head_vectors(str(p), error_policy="skip_and_report"))
    assert [r.tree.n for r in recs if r.error is None] == [2, 3]
    # every reason is "<ErrorClass>: <message>", the line kept beside it
    assert [(r.line_no, r.error) for r in recs if r.error is not None] == [
        (2, "MultipleRootsError: second root at position 2"),
        (4, "MalformedLineError: non-integer token")]
    with pytest.raises(MultipleRootsError) as info:
        list(read_head_vectors(str(p), error_policy="fail_fast"))
    assert info.value.line_no == 2


@pytest.mark.parametrize("line", ["0 0_1", "0 \u0661", "0 +1", "+0"])
def test_non_ascii_integer_tokens_skipped(tmp_path, line):
    p = tmp_path / "t.hv"
    p.write_text(f"0 1\n{line}\n", encoding="utf-8")
    recs = list(read_head_vectors(str(p), error_policy="skip_and_report"))
    assert [(r.line_no, r.error) for r in recs] == [
        (1, None), (2, "MalformedLineError: non-integer token")]


def test_blank_lines_ignored(tmp_path):
    p = tmp_path / "t.hv"
    p.write_text("\n0 1\n\n\n0 1 2\n", encoding="utf-8")
    assert [r.tree.n for r in read_head_vectors(str(p))] == [2, 3]


def test_render_value():
    assert render_value(None) == ""
    assert render_value(3) == "3"
    assert render_value(Fraction(21, 9)) == "2.333333"
    assert render_value(Fraction(21, 9), exact=True) == "7/3"
    # every feature value is None, an int that is not a bool, or a Fraction
    for hv in ("0", "0 1 1", FIG1_HV):
        t = from_head_vector(hv)
        ctx = features.FeatureContext(t, Arrangement.identity(t.n))
        for feat in features.REGISTRY.values():
            value = feat.func(ctx)
            assert value is None or type(value) is int or type(value) is Fraction


def test_process_fig1_row(tmp_path):
    src = tmp_path / "one.hv"
    src.write_text("2 3 0 3 2 7 5 4 3\n", encoding="utf-8")
    out = tmp_path / "one.csv"
    process_treebank(str(src), str(out), ["D", "C"])
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sentence_id,n,D,C"
    assert lines[1] == "1,9,19,2"


def test_process_fig2_row(tmp_path):
    src = tmp_path / "one.hv"
    src.write_text("3 3 0 5 3 7 5 10 10 7\n", encoding="utf-8")
    out = tmp_path / "one.csv"
    process_treebank(str(src), str(out), ["D", "C", "MHD"])
    assert out.read_text(encoding="utf-8").splitlines()[1] == "1,10,15,0,2.333333"


def test_default_features_and_skip_report(tmp_path, treebank_file):
    out = tmp_path / "out.csv"
    report = process_treebank(str(treebank_file), str(out))
    assert report.processed == 3 and report.skipped == []
    header = out.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert header[:2] == ["sentence_id", "n"]
    assert "D" in header and "D_min_projective" in header
    assert "D_min_planar" not in header and "D_min_unconstrained" not in header

    bad = tmp_path / "bad.hv"
    bad.write_text("0 1\n0 0 1\n", encoding="utf-8")
    report = process_treebank(str(bad), str(tmp_path / "bad.csv"),
                              error_policy="skip_and_report")
    assert report.processed == 1
    assert len(report.skipped) == 1 and report.skipped[0][0] == 2


def test_byte_order_mark_is_not_part_of_the_first_head(tmp_path):
    p = tmp_path / "t.hv"
    p.write_text("0 1 1\n0 1\n", encoding="utf-8-sig")
    recs = list(read_head_vectors(str(p), error_policy="skip_and_report"))
    assert [(r.line_no, r.heads, r.error) for r in recs] == [
        (1, (0, 1, 1), None), (2, (0, 1), None)]


def test_byte_order_mark_is_not_part_of_the_first_member(tmp_path):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    lst = tmp_path / "coll.txt"
    lst.write_text("x.hv\n", encoding="utf-8-sig")
    coll = process_collection(str(lst), merge_out=str(tmp_path / "m.csv"),
                              feature_names=["D"], error_policy="fail_fast")
    assert [name for name, _ in coll.reports] == ["x"] and coll.missing == []


def test_threads_agree(tmp_path, treebank_file):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    process_treebank(str(treebank_file), str(a), ["D", "C", "MHD"], threads=1)
    process_treebank(str(treebank_file), str(b), ["D", "C", "MHD"], threads=2)
    assert a.read_bytes() == b.read_bytes()


def test_collection_per_file_and_merged(tmp_path):
    (tmp_path / "x.hv").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "y.hv").write_text("0 1 2\n0 1\n", encoding="utf-8")
    lst = tmp_path / "coll.txt"
    lst.write_text("# comment\nx.hv\ny.hv\nmissing.hv\n", encoding="utf-8")

    outdir = tmp_path / "out"
    coll = process_collection(str(lst), output_dir=str(outdir),
                              feature_names=["D"])
    assert [name for name, _ in coll.reports] == ["x", "y"]
    assert len(coll.missing) == 1
    assert (outdir / "x.csv").exists() and (outdir / "y.csv").exists()

    merged = tmp_path / "merged.csv"
    coll = process_collection(str(lst), merge_out=str(merged),
                              feature_names=["D"])
    lines = merged.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "treebank,sentence_id,n,D"
    assert lines[1].startswith("x,1,2,")
    assert lines[2].startswith("y,1,3,") and lines[3].startswith("y,2,2,")


def test_collection_starts_one_pool_per_run(tmp_path, monkeypatch):
    opened = []

    class CountingPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    for name, text in [("a", "0 1\n0 1 1\n"), ("b", "2 0\nx\n0 1 2\n"), ("c", "0\n")]:
        (tmp_path / f"{name}.hv").write_text(text, encoding="utf-8")
    lst = tmp_path / "coll.txt"
    lst.write_text("a.hv\nb.hv\nc.hv\n", encoding="utf-8")
    monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
    outputs = {}
    for threads in (1, 2):
        opened.clear()
        out = tmp_path / f"out{threads}"
        process_collection(str(lst), output_dir=str(out), threads=threads)
        process_collection(str(lst), merge_out=str(out / "merged.csv"), threads=threads)
        assert len(opened) == 2 * (threads > 1)  # one pool per call
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs[2]) == ["a.csv", "b.csv", "c.csv", "merged.csv"]
    assert outputs[1] == outputs[2]


@pytest.mark.parametrize("listed", [["a/x.hv", "b/x.hv"], ["a/x.hv", "a/x.hv"]])
def test_collection_rejects_members_sharing_a_stem(tmp_path, listed):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.hv").write_text("0 1\n", encoding="utf-8")
    lst = tmp_path / "coll.txt"
    lst.write_text("".join(f"{name}\n" for name in listed), encoding="utf-8")
    outdir, merged = tmp_path / "out", tmp_path / "merged.csv"
    for kwargs in ({"output_dir": str(outdir)}, {"merge_out": str(merged)}):
        with pytest.raises(ValueError, match="share the name 'x'") as info:
            process_collection(str(lst), feature_names=["D"], **kwargs)
        assert all(str(tmp_path / name) in str(info.value) for name in listed)
    # nothing was written
    assert not outdir.exists() and not merged.exists()


# sha256 of the exact default-feature CSV of the treebank below
PINNED_CSV_SHA256 = "ea5d60e1f26f1e208788d27cf3c41ed0020a24fafd954a8cca2d2a4c53540b0b"


def test_default_csv_bytes_pinned(tmp_path):
    # criterion-8 head vectors, then the same trees with their vertices
    # relabeled by a seeded permutation, so that most identity orders cross
    rng = random.Random(2000)
    trees = [random_tree(TreeKind.parse("unlabeled-rooted"), rng.randint(1, 30), rng)
             for _ in range(2000)]
    lines = [t.head_vector_str() for t in trees]
    for t in trees:
        label = [0, *rng.sample(range(1, t.n + 1), t.n)]
        heads = [0] * t.n
        for v in t.vertices():
            heads[label[v] - 1] = label[t.parent[v]]
        lines.append(" ".join(map(str, heads)))
    src = tmp_path / "pinned.hv"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "pinned.csv"
    process_treebank(str(src), str(out), exact=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV_SHA256


# 70 valid sentences, then a blank line, a non-integer token, an invalid tree
# (two roots) and 70 more: sentence ids jump past the skipped lines, and rows
# from more than one chunk of 64 are written before and after them
GAPPED = (["0 1 1 2"] * 70 + ["", "0 x 1", "0 0 1", ""] + ["2 0 2"] * 70)


def test_streamed_rows_with_gaps_agree_across_threads(tmp_path):
    src = tmp_path / "gapped.hv"
    src.write_text("\n".join(GAPPED) + "\n", encoding="utf-8")
    outs, skipped = [], []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        report = process_treebank(str(src), str(out), ["D", "C"], threads=threads)
        assert report.processed == 140
        outs.append(out.read_bytes())
        skipped.append(report.skipped)
    assert outs[0] == outs[1]
    assert skipped[0] == skipped[1] and [line for line, _ in skipped[0]] == [72, 73]
    lines = outs[0].decode("utf-8").splitlines()
    assert lines[70] == "70,4,5,1" and lines[71] == "73,3,2,0"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gapped.hv", "t1.csv", "t2.csv"]


@pytest.mark.parametrize("threads", [1, 2])
def test_fail_fast_leaves_output_untouched(tmp_path, threads):
    src = tmp_path / "bad.hv"
    src.write_text("\n".join(["0 1 1 2"] * 200 + ["0 0 1"]) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    out.write_text("previous\n", encoding="utf-8")
    with pytest.raises(MultipleRootsError) as info:
        process_treebank(str(src), str(out), ["D"], error_policy="fail_fast",
                         threads=threads)
    assert info.value.line_no == 201
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.hv", "out.csv"]


def test_threads_below_one_rejected(tmp_path, treebank_file):
    lst = tmp_path / "coll.txt"
    lst.write_text(f"{treebank_file}\n", encoding="utf-8")
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            process_treebank(str(treebank_file), str(tmp_path / "o.csv"), threads=threads)
        with pytest.raises(ValueError, match="threads"):
            process_collection(str(lst), merge_out=str(tmp_path / "m.csv"), threads=threads)
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_merged_collection_counts_per_member(tmp_path, threads):
    (tmp_path / "a.hv").write_text("0 1\n0 0 1\n\n0 1 2\n", encoding="utf-8")
    (tmp_path / "b.hv").write_text("x\n0 1\n2 0\n2 2\n", encoding="utf-8")
    (tmp_path / "c.hv").write_text("0 1 1\n", encoding="utf-8")
    lst = tmp_path / "coll.txt"
    lst.write_text("a.hv\nb.hv\nc.hv\n", encoding="utf-8")
    merged = tmp_path / "merged.csv"
    coll = process_collection(str(lst), merge_out=str(merged), feature_names=["D"],
                              threads=threads)
    counts = [(name, rep.processed, [line for line, _ in rep.skipped])
              for name, rep in coll.reports]
    assert counts == [("a", 2, [2]), ("b", 2, [1, 4]), ("c", 1, [])]
    assert all(rep.output_path == str(merged) for _, rep in coll.reports)
    assert merged.read_text(encoding="utf-8").splitlines() == [
        "treebank,sentence_id,n,D", "a,1,2,1", "a,3,3,2", "b,2,2,1", "b,3,2,1", "c,1,3,3"]


def test_output_through_symlink_replaces_target(tmp_path, treebank_file):
    real = tmp_path / "real.csv"
    real.write_text("previous\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    process_treebank(str(treebank_file), str(link), ["D"])
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8").splitlines()[0] == "sentence_id,n,D"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_dev_stdout_follows_what_the_process_printed(tmp_path, treebank_file):
    # redirected to a file, sys.stdout is block-buffered: its text must reach
    # the file before the CSV that goes through descriptor 1
    code = ("import sys; from deplin import process_treebank; print('keep'); "
            "process_treebank(sys.argv[1], '/dev/stdout', ['D']); print('end')")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(deplin.__file__).resolve().parents[1])
    out = tmp_path / "out.txt"
    with open(out, "w", encoding="utf-8") as stdout:
        subprocess.run([sys.executable, "-c", code, str(treebank_file)], stdout=stdout,
                       env=env, check=True)
    process_treebank(str(treebank_file), str(tmp_path / "t.csv"), ["D"])
    assert out.read_bytes() == b"keep\n" + (tmp_path / "t.csv").read_bytes() + b"end\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_pipe_is_streamed(tmp_path, treebank_file):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # open before the writer
    try:
        process_treebank(str(treebank_file), str(fifo), ["D"])
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    process_treebank(str(treebank_file), str(tmp_path / "file.csv"), ["D"])
    assert got == (tmp_path / "file.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.csv", "out.fifo", "sample.hv"]
