"""Unit tests for the DOM text-density extractor (SURVEY.md §2 A3)."""

from ocr_proofreader_ray.functions.html_extract import extract_main_text


BOILER = """<html><head><title>t</title><script>var x=1;</script>
<style>.a{{color:red}}</style></head><body>
<nav><a href="/">home</a> <a href="/b">blog</a> <a href="/c">contact</a></nav>
<header><h1>Site Title Banner Words Words</h1></header>
<aside><a href="/x">link farm one</a> <a href="/y">link farm two</a>
<a href="/z">link farm three</a> <a href="/w">link farm four</a></aside>
{body}
<footer>copyright 2026 <a href="/tos">terms</a> <a href="/priv">privacy</a></footer>
</body></html>"""


def wrap(body: str) -> str:
    return BOILER.format(body=body)


def test_single_dense_paragraph():
    html = wrap("<article><p>the quick brown fox jumps over the lazy dog "
                "again and again and again in a long dense paragraph</p></article>")
    out = extract_main_text(html)
    assert out == ("the quick brown fox jumps over the lazy dog again and "
                   "again and again in a long dense paragraph")


def test_multiple_paragraphs_blank_line_separated():
    html = wrap("<article><p>first paragraph words here</p>"
                "<p>second paragraph words here</p></article>")
    out = extract_main_text(html)
    assert out == "first paragraph words here\n\nsecond paragraph words here"


def test_internal_newlines_preserved():
    body = "line one wrapped here\nline two wrapped here\nline three"
    html = wrap(f"<article><p>{body}</p></article>")
    assert extract_main_text(html) == body


def test_nav_and_footer_excluded():
    html = wrap("<article><p>only the article content should survive this "
                "extraction process with quite a few words</p></article>")
    out = extract_main_text(html)
    assert "home" not in out
    assert "copyright" not in out
    assert "link farm" not in out
    assert "Site Title" not in out


def test_link_density_prefers_dense_text_over_link_farm():
    html = wrap(
        '<div><a href="/1">one link text</a> <a href="/2">two link text</a> '
        '<a href="/3">three link text</a> <a href="/4">four link text</a></div>'
        "<div><p>genuine article body text with many plain words and no "
        "links at all anywhere in this block of prose</p></div>"
    )
    out = extract_main_text(html)
    assert "genuine article body" in out
    assert "one link text" not in out


def test_malformed_unclosed_and_stray_tags():
    html = wrap("<article><p>content survives malformed markup with plenty of "
                "words to win the density race</div></p></article><p>")
    out = extract_main_text(html)
    assert "content survives malformed markup" in out


def test_bytes_input_and_entities():
    html = wrap("<article><p>a &amp; b &lt;tag&gt; c with several more plain "
                "filler words for density</p></article>").encode()
    out = extract_main_text(html)
    assert "a & b <tag> c" in out


def test_empty_and_garbage_input():
    assert extract_main_text(b"") == ""
    assert extract_main_text(b"\x00\xff\xfe not html at all") != None  # noqa: E711


def test_fast_parser_matches_stdlib_reference():
    """The fast regex tokenizer must match the stdlib-html.parser reference
    tree byte-for-byte on representative + adversarial inputs.  (Known,
    intended divergence: an unterminated ``<!--`` comment at EOF is a
    comment to EOF per the HTML5 spec in the fast path, while html.parser
    keeps it as text — not covered here.)"""
    from fixtures.gen_pages import render_shard
    from html_reference import parse_html_stdlib
    from ocr_proofreader_ray.functions.html_extract import (
        _best_candidate,
        node_text,
        parse_html,
    )

    def text_via(parser, h):
        return node_text(_best_candidate(parser(h)))

    pages = render_shard(0, 120, seed=31, malformed_every=5, whale_every=40)
    for url, h in zip(pages.column("url").to_pylist(),
                      pages.column("html").to_pylist()):
        assert text_via(parse_html, h) == text_via(parse_html_stdlib, h), url

    cases = [
        b"<html><body><p>a &lt; b &amp; c</p></body></html>",
        b"<div><p><b>unclosed bold<p>next</div></div></div>",
        b"plain text no tags at all",
        b"<p>a < b and x<y</p>",
        b"<script>var x = '<p>not content</p>';</script><p>real</p>",
        b"<title>skip me</title><p>keep</p>",
        b"<!-- <p>commented out</p> --><p>kept</p>",
        b"<a href='q>r'>link text</a><p>body body body</p>",
        b"<textarea><p>raw</p></textarea><div>after after after</div>",
        b"<P CLASS='x'>upper tags</P>",
        b"",
    ]
    for c in cases:
        assert text_via(parse_html, c) == text_via(parse_html_stdlib, c), c
