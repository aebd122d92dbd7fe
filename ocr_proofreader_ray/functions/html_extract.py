"""Main-content extraction from HTML via DOM-heuristic text-density scoring.

Implements SURVEY.md §2 A3 ("HTML boilerplate strip via DOM-heuristic
text-density scoring", BASELINE.json north_star).  Built on the standard
library only (no lxml/bs4 in this environment): a regex tokenizer, checked
against a stdlib ``html.parser`` reference kept under ``tests/``.

Algorithm (text-density family — cf. Arc90 Readability / CETD, public
knowledge):

1. Parse the bytes into a tiny DOM (tag, children, text runs), tolerant of
   malformed markup: stray end tags are ignored, unclosed tags are closed at
   end-of-document, and a configurable set of boilerplate subtrees
   (script/style/nav/header/footer/aside/form/template/...) is dropped during
   parsing so their text never counts.
2. Score every *container* candidate (article/main/div/section/td/body) by
   non-link text mass discounted by link density:
   ``score = (text_len - link_text_len) * (1 - link_density)``.
   Ties break on document order → fully deterministic.
3. Emit the winner's text: block-level boundaries become paragraph breaks
   (joined with a blank line); text runs inside one block keep their internal
   newlines (hard-wrapped OCR-style lines are preserved for the downstream
   line-joining pass).

The function is pure: ``bytes -> str``.
"""

from __future__ import annotations

# Subtrees whose text is boilerplate by construction — dropped at parse time.
DROP_TAGS = frozenset(
    {
        "script",
        "style",
        "noscript",
        "template",
        "svg",
        "iframe",
        "head",
        "nav",
        "header",
        "footer",
        "aside",
        "form",
        "button",
        "select",
        "option",
        "input",
        "label",
        "figure",
        "figcaption",
    }
)

# Void elements never get children.
VOID_TAGS = frozenset(
    {"br", "hr", "img", "meta", "link", "input", "area", "base", "col", "embed",
     "param", "source", "track", "wbr"}
)

# Elements that delimit paragraphs in the emitted text.
BLOCK_TAGS = frozenset(
    {"p", "div", "article", "section", "main", "li", "ul", "ol", "table", "tr",
     "td", "th", "blockquote", "pre", "h1", "h2", "h3", "h4", "h5", "h6",
     "body", "html", "br"}
)

# Candidate containers for the main-content region.
CANDIDATE_TAGS = frozenset({"article", "main", "div", "section", "td", "body"})


class _Node:
    # tl/ll/tc hold the SUBTREE (text_len, link_text_len, tag_count),
    # accumulated during the parse itself (text at append time, child
    # totals rolled into the parent when the child closes) — the old
    # recursive post-pass over every node was ~8% of extract time
    __slots__ = ("tag", "children", "order", "tl", "ll", "tc")

    def __init__(self, tag: str, order: int):
        self.tag = tag
        self.children: list = []  # _Node | str
        self.order = order
        self.tl = 0
        self.ll = 0
        self.tc = 0


def _roll_up(stack: list, i: int, link_depth: int) -> int:
    """Close stack[i:]: fold each node's subtree totals into its parent
    (deepest first); returns the adjusted link depth."""
    for j in range(len(stack) - 1, i - 1, -1):
        ch = stack[j]
        parent = stack[j - 1]
        parent.tl += ch.tl
        parent.ll += ch.ll
        parent.tc += ch.tc + 1
        if ch.tag == "a":
            link_depth -= 1
    del stack[i:]
    return link_depth


# --------------------------------------------------------------------------
# fast tokenizer: the hot path
# --------------------------------------------------------------------------
#
# html.parser spends most of its time parsing attributes and dispatching
# per-token Python callbacks we don't need (attributes are never read).
# This tokenizer recognizes just enough HTML — comments, doctype, raw-text
# elements (script/style), start/end/self-closing tags, entity-bearing text
# — and feeds the same tolerant tree-building rules.  Measured ~3x faster.
# Equivalence contract (the tested one): EXTRACTED TEXT of the winning
# candidate is byte-identical to the html.parser reference
# (tests/html_reference.py) over every generated
# fixture page including the malformed cases.  The parse TREES may differ
# on inputs outside that contract: textarea/title are treated as raw text
# (RCDATA, per the HTML spec) while html.parser parses tags inside them,
# and unterminated comments swallow to EOF here (also spec behavior).

import re

_TAG_RE = re.compile(
    r"<!--.*?(?:-->|$)"          # comment (possibly unterminated)
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"  # CDATA
    r"|<![^>]*>"                  # doctype / other declarations
    r"|<(/?)([a-zA-Z][a-zA-Z0-9-]*)((?:\"[^\"]*\"|'[^']*'|[^>\"'])*)(/?)>",
    re.S,
)
# raw-text elements: content runs to the matching close tag, never parsed
_RAW_CLOSE = {
    "script": re.compile(r"</script\b[^>]*>", re.I),
    "style": re.compile(r"</style\b[^>]*>", re.I),
    "textarea": re.compile(r"</textarea\b[^>]*>", re.I),
    "title": re.compile(r"</title\b[^>]*>", re.I),
}


def parse_html(html: bytes | str) -> _Node:
    """Fast parse of HTML bytes (UTF-8, errors replaced) into the same
    pruned mini-DOM as the html.parser reference (``tests/``).

    The tolerant tree-building rules are INLINED here
    — two bound-method dispatches per tag were ~11% of parse time at ~86
    tags/page; equivalence with the stdlib builder is pinned by the golden
    corpus and the fast-vs-stdlib tree tests."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    root = _Node("#root", 0)
    stack = [root]
    order = 0
    drop = 0  # >0 → inside a dropped subtree
    link_depth = 0
    tag_match = _TAG_RE.match
    unescape = _unescape
    drop_tags = DROP_TAGS
    void_tags = VOID_TAGS
    pos = 0
    n = len(html)
    while pos < n:
        lt = html.find("<", pos)
        if lt < 0:
            if not drop:
                top = stack[-1]
                s = unescape(html[pos:])
                top.children.append(s)
                sn = len(s.strip())
                top.tl += sn
                if link_depth:
                    top.ll += sn
            break
        if lt > pos and not drop:
            top = stack[-1]
            s = unescape(html[pos:lt])
            top.children.append(s)
            sn = len(s.strip())
            top.tl += sn
            if link_depth:
                top.ll += sn
        m = tag_match(html, lt)
        if m is None:
            # lone '<' is text, like html.parser's tolerant mode
            if not drop:
                top = stack[-1]
                top.children.append("<")
                top.tl += 1
                if link_depth:
                    top.ll += 1
            pos = lt + 1
            continue
        pos = m.end()
        # one C call for all four groups (the loop runs per tag — measured
        # ~10% of parse time was separate .group() calls)
        end_slash, tag, attrs_text, close_slash = m.group(1, 2, 3, 4)
        if tag is None:
            continue  # comment / doctype / CDATA
        if not tag.islower():
            tag = tag.lower()
        if end_slash:  # end tag (checked first: selfclose is irrelevant)
            if drop:
                if tag in drop_tags or tag not in void_tags:
                    drop -= 1
            else:
                # close up to the nearest matching open tag; stray end
                # tags are ignored
                for i in range(len(stack) - 1, 0, -1):
                    if stack[i].tag == tag:
                        link_depth = _roll_up(stack, i, link_depth)
                        break
            continue
        # self-closing detection: the greedy attr group swallows a trailing
        # "/" (it matches [^>"']), so group(4) alone misses e.g. <br/> and
        # <circle r='1'/>.  Recover it when the "/" terminates the attr run
        # after whitespace or a quote — matching html.parser, which parses
        # <div a=1/> as a START tag with value "1/" but <div a='1'/> as
        # self-closing (found by the hand-written golden corpus: a start-tag
        # misread inside a dropped <svg> leaked drop-depth and swallowed
        # the rest of the document).
        attrs_text = attrs_text or ""
        selfclose = bool(close_slash) or (
            attrs_text.endswith("/")
            and (len(attrs_text) == 1 or attrs_text[-2] in " \t\r\n\"'"))
        if selfclose:  # self-closing
            if not drop and tag not in drop_tags:
                order += 1
                top = stack[-1]
                top.children.append(_Node(tag, order))
                top.tc += 1
            continue
        # start tag
        if drop:
            if tag not in void_tags:
                drop += 1
        elif tag in drop_tags:
            drop = 1
        else:
            order += 1
            node = _Node(tag, order)
            stack[-1].children.append(node)
            if tag not in void_tags:
                stack.append(node)
                if tag == "a":
                    link_depth += 1
            else:
                stack[-1].tc += 1
        raw = _RAW_CLOSE.get(tag)
        if raw is not None:
            close = raw.search(html, pos)
            # raw content is skipped entirely; DROP_TAGS already covers
            # script/style, but textarea/title raw text must not parse
            if close is None:
                # EOF inside a raw element: emit the tolerant end tag
                if drop:
                    if tag in drop_tags or tag not in void_tags:
                        drop -= 1
                else:
                    for i in range(len(stack) - 1, 0, -1):
                        if stack[i].tag == tag:
                            link_depth = _roll_up(stack, i, link_depth)
                            break
                break
            if tag not in drop_tags and not drop:
                text = unescape(html[pos:close.start()])
                if text:
                    top = stack[-1]
                    top.children.append(text)
                    sn = len(text.strip())
                    top.tl += sn
                    if link_depth:
                        top.ll += sn
            if drop:
                if tag in drop_tags or tag not in void_tags:
                    drop -= 1
            else:
                for i in range(len(stack) - 1, 0, -1):
                    if stack[i].tag == tag:
                        link_depth = _roll_up(stack, i, link_depth)
                        break
            pos = close.end()
    _roll_up(stack, 1, link_depth)
    return root


def _unescape(s: str) -> str:
    if "&" in s:
        import html as _html_mod

        return _html_mod.unescape(s)
    return s


def _best_candidate(root: _Node) -> _Node:
    best = root
    best_score = -1.0
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            if isinstance(child, _Node):
                stack.append(child)
        if node.tag not in CANDIDATE_TAGS:
            continue
        # subtree totals were accumulated during the parse (_Node.tl/ll)
        text_len, link_len = node.tl, node.ll
        if text_len == 0:
            continue
        link_density = link_len / text_len
        score = (text_len - link_len) * (1.0 - link_density)
        # deterministic: strictly-greater wins; on exact tie keep the
        # earlier node in document order
        if score > best_score or (score == best_score and node.order < best.order):
            best, best_score = node, score
    return best


def node_text(node: _Node) -> str:
    """Paragraph-preserving text of a subtree: blocks separated by blank
    lines, intra-block newlines preserved, each paragraph stripped.

    One iterative walk flushes paragraph buffers at block boundaries
    directly — the former recursive emit built a marker-interleaved parts
    list that a second pass re-scanned (~4% of extract time)."""
    paragraphs: list[str] = []
    buf: list[str] = []

    def flush() -> None:
        para = "".join(buf).strip()
        if para:
            paragraphs.append(para)
        buf.clear()

    # each stack entry is a child to process, or the \x00 sentinel for a
    # pending block-end flush; children push reversed to keep doc order
    block_tags = BLOCK_TAGS
    stack: list = list(reversed(node.children))
    while stack:
        child = stack.pop()
        if child is None:
            flush()
            continue
        if isinstance(child, str):
            buf.append(child)
            continue
        if child.tag in block_tags:
            flush()
            stack.append(None)  # block-end flush after the subtree
            if child.tag == "br":
                buf.append("\n")
        for c in reversed(child.children):
            stack.append(c)
    flush()
    return "\n\n".join(paragraphs)


def extract_main_text(html: bytes | str) -> str:
    """Strip boilerplate, return the main region's text (see module doc)."""
    root = parse_html(html)
    best = _best_candidate(root)
    return node_text(best)
