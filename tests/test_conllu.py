import itertools

import pytest

import oracles
from deplin import (
    PreprocessOptions,
    convert,
    parse_conllu,
    preprocess,
)
from deplin.conllu import ConlluToken, DEFAULT_FUNCTION_WORD_UPOS
from deplin.errors import (
    CycleError,
    DeplinError,
    HeadOutOfRangeError,
    MalformedLineError,
    MultipleRootsError,
    NonContiguousIdsError,
    OutOfRangeError,
    SelfHeadError,
)


def _tok(i, head, upos="NOUN", form="w"):
    return ConlluToken(i, form, form, upos, "_", "_", head, "dep", "_", "_")


def _sentence(*lines):
    return "".join(line + "\n" for line in lines) + "\n"


def _u(i, form, upos, head):
    return f"{i}\t{form}\t{form}\t{upos}\t_\t_\t{head}\tdep\t_\t_"


def test_parse_basic(tmp_path):
    p = tmp_path / "a.conllu"
    p.write_text(_sentence(_u(1, "a", "NOUN", 2), _u(2, "b", "VERB", 0),
                           _u(3, "c", "NOUN", 2)), encoding="utf-8")
    (sent,) = list(parse_conllu(str(p)))
    assert [t.head for t in sent] == [2, 0, 2]
    assert [t.upos for t in sent] == ["NOUN", "VERB", "NOUN"]

    # CRLF line endings, and no blank line after the last sentence
    two = _u(1, "a", "NOUN", 2) + "\n" + _u(2, "b", "VERB", 0)
    out = tmp_path / "a.hv"
    for text in (two.replace("\n", "\r\n") + "\r\n\r\n", two):
        p.write_bytes(text.encode("utf-8"))
        assert [[t.head for t in s] for s in parse_conllu(str(p))] == [[2, 0]]
        report = convert(str(p), str(out))
        assert out.read_text(encoding="utf-8") == "2 0\n"
        assert (report.converted, report.filtered, report.errored) == (1, 0, [])


def test_byte_order_mark_is_not_part_of_the_first_token(tmp_path):
    p = tmp_path / "a.conllu"
    p.write_text(_sentence(_u(1, "a", "NOUN", 2), _u(2, "b", "VERB", 0)),
                 encoding="utf-8-sig")
    assert [[t.head for t in s] for s in parse_conllu(str(p))] == [[2, 0]]


def test_parse_skips_ranges_and_comments(tmp_path):
    p = tmp_path / "a.conllu"
    p.write_text(
        "# sent_id = 1\n"
        "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n"
        + _u(1, "a", "NOUN", 2) + "\n"
        + _u(2, "b", "VERB", 0) + "\n"
        + "2.1\tx\t_\t_\t_\t_\t_\t_\t_\t_\n\n"
        # a block of only comments and a range is no sentence
        + "# sent_id = 2\n1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n\n",
        encoding="utf-8")
    (sent,) = list(parse_conllu(str(p)))
    assert [t.id for t in sent] == [1, 2]


def test_parse_malformed(tmp_path):
    p = tmp_path / "a.conllu"
    p.write_text("1\ta\tb\n\n", encoding="utf-8")
    with pytest.raises(MalformedLineError):
        list(parse_conllu(str(p)))

    # a 2-column token on line 5 of the sentence that starts on line 4: one
    # error at line 4 naming line 5, and the sentence's later lines consumed
    p.write_text(
        _sentence(_u(1, "a", "NOUN", 2), _u(2, "b", "VERB", 0))  # lines 1-3
        + _sentence(_u(1, "a", "NOUN", 0), "2\tb", "3\tc\tc",
                    _u(4, "d", "NOUN", 1))  # lines 4-8
        + _sentence(_u(1, "x", "NOUN", 0)), encoding="utf-8")
    report = convert(str(p), str(tmp_path / "a.hv"))
    assert (tmp_path / "a.hv").read_text(encoding="utf-8") == "2 0\n0\n"
    assert report.errored == [
        (4, "MalformedLineError: expected 10 tab-separated columns, got 2 on line 5")]
    sentences = parse_conllu(str(p))
    assert [t.head for t in next(sentences)] == [2, 0]
    with pytest.raises(MalformedLineError) as info:
        next(sentences)
    assert info.value.line_no == 5


@pytest.mark.parametrize("idx,head", [
    ("1", "0_0"), ("1", "\u0660"), ("1", "+0"), ("1", " 0"), ("1", "-0"), ("+1", "0"),
    ("\u0661", "0"), ("0_1", "0")])
def test_id_and_head_are_ascii_digits(tmp_path, idx, head):
    p = tmp_path / "a.conllu"
    p.write_text(_sentence(_u(idx, "a", "NOUN", head)) + _sentence(_u(1, "b", "NOUN", 0)),
                 encoding="utf-8")
    report = convert(str(p), str(tmp_path / "a.hv"))
    assert (tmp_path / "a.hv").read_text(encoding="utf-8") == "0\n"
    assert report.errored == [(1, "MalformedLineError: non-integer ID or HEAD on line 1")]


def test_identity_preprocess():
    hv = preprocess([_tok(1, 2), _tok(2, 0), _tok(3, 2)], PreprocessOptions())
    assert hv == (2, 0, 2)


def test_remove_punct_leaf():
    toks = [_tok(1, 2), _tok(2, 0), _tok(3, 2), _tok(4, 2, upos="PUNCT")]
    hv = preprocess(toks, PreprocessOptions(remove_punct=True))
    assert hv == (2, 0, 2)


def test_reattach_to_ancestor():
    # chain 1<-2<-3 (head of 3 is 2, head of 2 is 1); remove middle token
    toks = [_tok(1, 0), _tok(2, 1, upos="PUNCT"), _tok(3, 2)]
    hv = preprocess(toks, PreprocessOptions(remove_punct=True))
    assert hv == (0, 1)


def test_root_removed_promotes_leftmost_child():
    toks = [_tok(1, 2), _tok(2, 0, upos="PUNCT"), _tok(3, 2), _tok(4, 3)]
    hv = preprocess(toks, PreprocessOptions(remove_punct=True))
    # children 1 and 3 of the removed root; 1 is promoted, 3 attaches to it
    assert hv == (0, 1, 2)


def test_function_word_removal():
    toks = [_tok(1, 2, upos="DET"), _tok(2, 0, upos="NOUN"), _tok(3, 2, upos="ADP")]
    hv = preprocess(toks, PreprocessOptions(function_words=DEFAULT_FUNCTION_WORD_UPOS))
    assert hv == (0,)
    custom = PreprocessOptions(function_words=frozenset({"ADP"}))
    assert preprocess(toks, custom) == (2, 0)


def test_length_filters_applied_after_removal():
    toks = [_tok(1, 2), _tok(2, 0), _tok(3, 2, upos="PUNCT")]
    assert preprocess(toks, PreprocessOptions(remove_punct=True, min_len=3)) is None
    assert preprocess(toks, PreprocessOptions(min_len=3)) == (2, 0, 2)
    assert preprocess(toks, PreprocessOptions(max_len=2)) is None
    with pytest.raises(ValueError):
        PreprocessOptions(min_len=5, max_len=2)


def test_validation_errors():
    with pytest.raises(OutOfRangeError):
        # non-contiguous ids surface via convert; here head out of range
        preprocess([_tok(1, 0), _tok(2, 9)], PreprocessOptions())


def test_removal_matches_contraction_oracle():
    # every vector in {0..n}^n, n <= 5, under every set of removed tokens: a
    # tree contracts as the oracle does, anything else raises a library error
    punct = PreprocessOptions(remove_punct=True)
    for n in range(1, 6):
        for heads in itertools.product(range(n + 1), repeat=n):
            for mask in range(1 << n):
                tokens = [_tok(i, h, "PUNCT" if mask >> (i - 1) & 1 else "NOUN")
                          for i, h in enumerate(heads, start=1)]
                kept = [i for i in range(1, n + 1) if not mask >> (i - 1) & 1]
                expected = oracles.contract_removed(heads, kept)
                try:
                    got = preprocess(tokens, punct)
                except DeplinError:
                    got = "error"
                assert got == ("error" if expected is None else expected or None), \
                    (heads, kept)


def test_removed_tokens_must_form_a_tree_too():
    # a cycle among removed tokens is no tree, whatever is removed
    toks = [_tok(1, 0), _tok(2, 3, upos="PUNCT"), _tok(3, 2, upos="PUNCT")]
    with pytest.raises(CycleError, match="head vector contains a cycle"):
        preprocess(toks, PreprocessOptions(remove_punct=True))


def test_invalid_sentence_is_an_error_before_the_length_filter(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(
        _sentence(_u(1, "a", "NOUN", 0), _u(2, "b", "NOUN", 3),
                  _u(3, "c", "NOUN", 2))  # lines 1-4: a cycle
        + _sentence(_u(1, "a", "NOUN", 0), _u(2, "b", "NOUN", 2))  # lines 5-7: a self-head
        + _sentence(_u(1, "x", "NOUN", 0)), encoding="utf-8")
    out = tmp_path / "out.hv"
    report = convert(str(src), str(out), PreprocessOptions(max_len=1))
    assert out.read_text(encoding="utf-8") == "0\n"
    assert (report.converted, report.filtered) == (1, 0)
    assert report.errored == [(1, "CycleError: head vector contains a cycle"),
                              (5, "SelfHeadError: vertex 2 is its own head")]
    with pytest.raises(CycleError):
        convert(str(src), str(out), PreprocessOptions(max_len=1), error_policy="fail_fast")
    with pytest.raises(SelfHeadError):
        preprocess([_tok(1, 0), _tok(2, 2)], PreprocessOptions(min_len=5))


def test_convert_end_to_end(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(
        _sentence(_u(1, "a", "NOUN", 2), _u(2, "b", "VERB", 0), _u(3, ".", "PUNCT", 2))
        + _sentence(_u(1, "x", "NOUN", 0))
        + _sentence(_u(1, "a", "NOUN", 5))  # head out of range -> error
        # only a comment and a range: neither converted, filtered nor errored
        + _sentence("# text = ab", "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_")
        , encoding="utf-8")
    out = tmp_path / "out.hv"
    report = convert(str(src), str(out),
                     PreprocessOptions(remove_punct=True, min_len=1))
    assert out.read_text(encoding="utf-8") == "2 0\n0\n"
    assert report.converted == 2
    assert report.filtered == 0
    assert report.errored == [(7, "HeadOutOfRangeError: head 5 of token 1 out of range 0..1")]

    report = convert(str(src), str(tmp_path / "out2.hv"),
                     PreprocessOptions(remove_punct=True, min_len=2))
    assert report.converted == 1 and report.filtered == 1

    # a failing conversion leaves the previous output as it was, and no temporary file
    out3 = tmp_path / "out3.hv"
    out3.write_bytes(b"old content\n")
    with pytest.raises(HeadOutOfRangeError) as info:
        convert(str(src), str(out3), PreprocessOptions(), error_policy="fail_fast")
    assert info.value.line_no == 7
    assert out3.read_bytes() == b"old content\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.conllu", "out.hv", "out2.hv", "out3.hv"]


def test_unknown_error_policy_rejected_before_output(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(_sentence(_u(1, "a", "NOUN", 5)), encoding="utf-8")
    out = tmp_path / "out.hv"
    with pytest.raises(ValueError, match="error policy"):
        convert(str(src), str(out), error_policy="fail-fast")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.conllu"]


def test_no_reachable_root_is_a_cycle_error(tmp_path):
    rootless = [_tok(1, 2), _tok(2, 1)]
    removed_root = [_tok(1, 0, upos="PUNCT"), _tok(2, 3), _tok(3, 2)]
    with pytest.raises(CycleError):
        preprocess(rootless, PreprocessOptions())
    with pytest.raises(CycleError):
        preprocess(removed_root, PreprocessOptions(remove_punct=True))

    src = tmp_path / "in.conllu"
    src.write_text(
        _sentence(_u(1, "a", "NOUN", 2), _u(2, "b", "NOUN", 1))  # lines 1-3
        + _sentence(_u(1, ".", "PUNCT", 0), _u(2, "a", "NOUN", 3),
                    _u(3, "b", "NOUN", 2))  # lines 4-7
        + _sentence(_u(1, "x", "NOUN", 0)), encoding="utf-8")
    out = tmp_path / "out.hv"
    report = convert(str(src), str(out), PreprocessOptions(remove_punct=True))
    assert out.read_text(encoding="utf-8") == "0\n"
    assert report.converted == 1
    assert [line_no for line_no, _ in report.errored] == [1, 4]
    assert all(reason.startswith("CycleError: ") for _, reason in report.errored)


def test_multiple_roots_rejected_before_removal(tmp_path):
    two_roots = [_tok(1, 0), _tok(2, 0), _tok(3, 2)]
    with pytest.raises(MultipleRootsError):
        preprocess(two_roots, PreprocessOptions())
    # one root removed by an option still counts: the input had two
    punct_root = [_tok(1, 0), _tok(2, 0, upos="PUNCT"), _tok(3, 2)]
    with pytest.raises(MultipleRootsError):
        preprocess(punct_root, PreprocessOptions(remove_punct=True))

    src = tmp_path / "in.conllu"
    src.write_text(
        _sentence(_u(1, "a", "NOUN", 0), _u(2, "b", "NOUN", 0),
                  _u(3, "c", "NOUN", 2))  # lines 1-4
        + _sentence(_u(1, "x", "NOUN", 0)), encoding="utf-8")
    out = tmp_path / "out.hv"
    report = convert(str(src), str(out))
    assert out.read_text(encoding="utf-8") == "0\n"
    assert report.converted == 1
    assert [line_no for line_no, _ in report.errored] == [1]
    assert report.errored[0][1].startswith("MultipleRootsError: ")
    assert "HEAD 0" in report.errored[0][1]
    with pytest.raises(MultipleRootsError):
        convert(str(src), str(out), error_policy="fail_fast")


def test_default_function_word_set():
    assert "DET" in DEFAULT_FUNCTION_WORD_UPOS
    assert "NOUN" not in DEFAULT_FUNCTION_WORD_UPOS
