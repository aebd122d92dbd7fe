"""Reference HTML parser on stdlib ``html.parser``.

The differential tests in ``test_html_extract.py`` check that the fast
tokenizer of ``functions/html_extract.py`` (``parse_html``) extracts the
same text as this tolerant tree builder, which applies the same rules
through ``html.parser`` callbacks."""

from __future__ import annotations

from html.parser import HTMLParser

from ocr_proofreader_ray.functions.html_extract import (
    DROP_TAGS,
    VOID_TAGS,
    _Node,
    _roll_up,
)


class _TreeBuilder(HTMLParser):
    """Tolerant tree builder: ignores stray end tags, auto-closes at EOF,
    prunes DROP_TAGS subtrees during parsing."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", 0)
        self.stack: list[_Node] = [self.root]
        self._order = 0
        self._drop_depth = 0  # >0 → inside a dropped subtree
        self._link_depth = 0
        self._finalized = False

    def handle_starttag(self, tag: str, attrs) -> None:
        if self._drop_depth:
            if tag in DROP_TAGS or tag not in VOID_TAGS:
                # nested non-void inside a dropped subtree deepens the drop
                if tag not in VOID_TAGS:
                    self._drop_depth += 1
            return
        if tag in DROP_TAGS:
            self._drop_depth = 1
            return
        self._order += 1
        node = _Node(tag, self._order)
        self.stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)
            if tag == "a":
                self._link_depth += 1
        else:
            self.stack[-1].tc += 1

    def handle_startendtag(self, tag: str, attrs) -> None:
        if self._drop_depth:
            return
        if tag in DROP_TAGS:
            return
        self._order += 1
        self.stack[-1].children.append(_Node(tag, self._order))
        self.stack[-1].tc += 1

    def handle_endtag(self, tag: str) -> None:
        if self._drop_depth:
            if tag in DROP_TAGS or tag not in VOID_TAGS:
                self._drop_depth -= 1
            return
        # close up to the nearest matching open tag; ignore stray end tags
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                self._link_depth = _roll_up(self.stack, i, self._link_depth)
                return

    def handle_data(self, data: str) -> None:
        if self._drop_depth or not data:
            return
        top = self.stack[-1]
        top.children.append(data)
        n = len(data.strip())
        top.tl += n
        if self._link_depth:
            top.ll += n

    def finalize(self) -> None:
        """Auto-close everything still open (idempotent) so root carries
        complete subtree totals."""
        if not self._finalized:
            self._finalized = True
            self._link_depth = _roll_up(self.stack, 1, self._link_depth)


def parse_html_stdlib(html: bytes | str) -> _Node:
    """Reference parser on stdlib ``html.parser`` — kept for cross-checking
    the fast tokenizer (tests assert both produce identical trees/text)."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    builder = _TreeBuilder()
    try:
        builder.feed(html)
        builder.close()
    except Exception:
        # html.parser is robust, but never let one page kill a batch
        pass
    builder.finalize()
    return builder.root
