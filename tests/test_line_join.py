"""Unit tests mirroring the reference's line-joining tests (SURVEY.md §5)."""

from ocr_proofreader_ray.functions.line_join import (
    join_lines,
    join_paragraph_tokens,
)


DICT = {"example", "text", "words", "reflow", "into", "one", "line", "well",
        "known", "the", "second"}


def test_soft_hyphen_rejoined():
    assert join_lines("exam-\nple text", DICT) == ["example text"]


def test_literal_compound_hyphen_kept():
    # "wellknown" absent from the dictionary → hyphen is literal
    assert join_lines("well-\nknown text", DICT) == ["well-known text"]


def test_paragraph_reflow():
    text = "words reflow\ninto one line"
    assert join_lines(text, DICT) == ["words reflow into one line"]


def test_blank_line_is_paragraph_boundary():
    text = "words reflow\ninto one line\n\nthe second example"
    assert join_lines(text, DICT) == ["words reflow into one line",
                                      "the second example"]


def test_dangling_hyphen_at_paragraph_end():
    assert " ".join(join_paragraph_tokens(["words exam-"], DICT)) == (
        "words exam-")


def test_double_hyphen_not_a_wrap():
    assert " ".join(join_paragraph_tokens(["words --", "reflow"], DICT)) == (
        "words -- reflow")


def test_multiple_wraps_in_one_paragraph():
    text = "the exam-\nple reflow well-\nknown words"
    assert join_lines(text, DICT) == ["the example reflow well-known words"]


def test_empty_and_whitespace_only():
    assert join_lines("", DICT) == []
    assert join_lines("  \n \n  ", DICT) == []
