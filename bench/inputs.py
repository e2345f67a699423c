"""Seeded inputs of the three input sets, built with ``deplin.generate``.

Run as a script to write one input set into a directory; ``run.py`` times
that child process as the workload's set-up:

    python3 bench/inputs.py {treebank_short|ud_long|baselines} SEED OUTDIR

The same seed writes byte-identical files.
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from deplin import TreeKind, random_arrangement, random_tree  # noqa: E402

UR = TreeKind("unlabeled", "rooted")

TREEBANK_SENTENCES = 10_000
UD_SENTENCES = 64
UD_MIN_N, UD_MAX_N = 30, 150
# word-order class of sentence i is UD_ORDER[i % 8]: mostly projective
UD_ORDER = ("projective",) * 6 + ("planar", "unconstrained")
UD_MALFORMED = ("columns", "non_integer_head", "non_contiguous_ids",
                "head_out_of_range", "cycle")
UD_MALFORMED_EACH = 2
UD_UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PROPN", "DET", "ADP", "PRON")

BASELINE_TREES = 12
BASELINE_MIN_N, BASELINE_MAX_N = 10, 40
BASELINE_EXACT_N = 7  # seeded tree of the exact unconstrained enumeration
# Fixed trees of the exact projective (n = 9, 1728 orders) and planar (n = 8)
# enumerations: their ensemble sizes, and so the job's mix of items, must not
# change with the seed.
BASELINE_EXACT_FIXED = ("0 1 1 1 2 2 3 3 4", "0 1 1 1 2 2 3 3")


def write_treebank_short(seed: int, outdir: str) -> None:
    """The criterion-8 treebank: preorder head vectors, n uniform in [1, 30]."""
    rng = random.Random(seed)
    with open(os.path.join(outdir, "treebank.hv"), "w", encoding="utf-8") as fh:
        for _ in range(TREEBANK_SENTENCES):
            t = random_tree(UR, rng.randint(1, 30), rng)
            fh.write(t.head_vector_str() + "\n")


def _stratified_lengths(count: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """Lengths spread evenly over [lo, hi] in seeded order, so that the total
    work of a workload does not swing with the seed."""
    lengths = [lo + (i * (hi - lo + 1)) // count for i in range(count)]
    rng.shuffle(lengths)
    return lengths


def _token(idx, form, upos, head, deprel):
    return f"{idx}\t{form}\t{form}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_"


def _ud_sentence(n: int, order: str, rng: random.Random):
    """CoNLL-U lines of one sentence and its expected head vector after
    punctuation removal."""
    tree = random_tree(UR, n, rng)
    arr = random_arrangement(tree, order, rng)
    words = [arr.vertex_at(p) for p in range(1, n + 1)]
    expected = [arr.position_of(tree.parent[v]) if tree.parent[v] else 0 for v in words]
    # token stream: ("w", word position) or ("p", word position it attaches to)
    stream = [("w", p) for p in range(1, n + 1)]
    for _ in range(round(0.08 * n)):
        stream.insert(rng.randint(0, len(stream)), ("p", rng.randint(1, n)))
    stream.append(("p", arr.position_of(tree.root)))
    new_id = {}
    for i, (kind, p) in enumerate(stream, start=1):
        if kind == "w":
            new_id[p] = i
    lines = []
    mwt_at = rng.randint(1, len(stream) - 1) if rng.random() < 0.25 else 0
    for i, (kind, p) in enumerate(stream, start=1):
        if i == mwt_at:
            lines.append(f"{i}-{i + 1}\tmwt\t_\t_\t_\t_\t_\t_\t_\t_")
        if kind == "w":
            head = new_id[expected[p - 1]] if expected[p - 1] else 0
            lines.append(_token(i, f"w{i}", rng.choice(UD_UPOS), head,
                                "root" if head == 0 else "dep"))
        else:
            lines.append(_token(i, ".", "PUNCT", new_id[p], "punct"))
    return lines, expected


def _malformed_sentence(cls: str) -> list[str]:
    heads = [2, 0, 2, 3, 2]
    lines = [_token(i, f"m{i}", "NOUN", h, "dep") for i, h in enumerate(heads, start=1)]
    if cls == "columns":
        lines[2] = lines[2].rsplit("\t", 1)[0]
    elif cls == "non_integer_head":
        lines[3] = _token(4, "m4", "NOUN", "x", "dep")
    elif cls == "non_contiguous_ids":
        lines[4] = _token(7, "m5", "NOUN", 2, "dep")
    elif cls == "head_out_of_range":
        lines[0] = _token(1, "m1", "NOUN", 9, "dep")
    elif cls == "cycle":
        lines[3] = _token(4, "m4", "NOUN", 5, "dep")
        lines[4] = _token(5, "m5", "NOUN", 4, "dep")
    return lines


def write_ud_long(seed: int, outdir: str) -> None:
    """Synthetic CoNLL-U with long sentences, punctuation, multiword-token
    ranges and malformed sentences; plus the expected converter output."""
    rng = random.Random(seed)
    blocks = []
    for i, n in enumerate(_stratified_lengths(UD_SENTENCES, UD_MIN_N, UD_MAX_N, rng)):
        lines, expected = _ud_sentence(n, UD_ORDER[i % len(UD_ORDER)], rng)
        blocks.append(("valid", UD_ORDER[i % len(UD_ORDER)], lines, expected))
    for cls in UD_MALFORMED * UD_MALFORMED_EACH:
        blocks.insert(rng.randint(0, len(blocks)), ("malformed", cls,
                                                    _malformed_sentence(cls), None))
    manifest = {"orders": [], "malformed_first_lines": [], "sentences": len(blocks)}
    line_no = 0
    with open(os.path.join(outdir, "ud.conllu"), "w", encoding="utf-8") as fh, \
            open(os.path.join(outdir, "ud_expected.hv"), "w", encoding="utf-8") as exp:
        for k, (status, label, lines, expected) in enumerate(blocks, start=1):
            fh.write(f"# sent_id = s{k}\n")
            line_no += 1
            if status == "valid":
                manifest["orders"].append(label)
                exp.write(" ".join(map(str, expected)) + "\n")
            else:
                manifest["malformed_first_lines"].append(line_no + 1)
            for line in lines:
                fh.write(line + "\n")
            fh.write("\n")
            line_no += len(lines) + 1
    with open(os.path.join(outdir, "ud_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def write_baselines(seed: int, outdir: str) -> None:
    """Rooted trees for the Monte Carlo part, then one tree per exact
    arrangement enumeration, in ``baselines_job.CONSTRAINTS`` order."""
    rng = random.Random(seed)
    lengths = _stratified_lengths(BASELINE_TREES, BASELINE_MIN_N, BASELINE_MAX_N, rng)
    with open(os.path.join(outdir, "baselines.hv"), "w", encoding="utf-8") as fh:
        for n in lengths + [BASELINE_EXACT_N]:
            fh.write(random_tree(UR, n, rng).head_vector_str() + "\n")
        for heads in BASELINE_EXACT_FIXED:
            fh.write(heads + "\n")


WRITERS = {
    "treebank_short": write_treebank_short,
    "ud_long": write_ud_long,
    "baselines": write_baselines,
}


if __name__ == "__main__":
    name, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    os.makedirs(outdir, exist_ok=True)
    WRITERS[name](seed, outdir)
