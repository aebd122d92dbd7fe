"""Dictionary-build tokenizer (SURVEY.md §2 A4).

Pass 1 counts word frequencies per language over the *raw* extracted text —
before any dictionary exists — so it must un-wrap hyphenated line breaks
without consulting a dictionary.  Policy: a line ending in ``word-`` is always
joined to the next line's leading fragment with the hyphen dropped — pass 2's
reflow (``line_join``) against a dictionary that holds every word.  Soft-wrap
hyphens (the overwhelming majority) are thereby counted correctly; wrapped
literal compounds produce a rare junk merge (``wellknown``) that falls below
the dictionary's ``min_count`` threshold.

Only pure-alphabetic tokens of length >= 2 enter the counts, so OCR
digit-confusions (``w0rd``) can never pollute the dictionary regardless of
frequency.
"""

from __future__ import annotations

from collections import Counter

from ocr_proofreader_ray.functions.line_join import join_lines_tokens


class _EveryWord:
    """A dictionary that holds every word: with it ``join_lines_tokens``
    joins every wrap hyphen, the pass-1 policy."""

    def __contains__(self, _word: str) -> bool:
        return True


_EVERY_WORD = _EveryWord()


def dict_tokens(text: str) -> list[str]:
    """Lowercased pure-alpha tokens (len >= 2) of the unwrapped text.

    Consumes the unwrapped TOKEN LISTS directly — joining paragraphs to
    strings and re-splitting them was a measured ~15% of the tokenize
    stage."""
    toks: list[str] = []
    for para in join_lines_tokens(text, _EVERY_WORD):
        for tok in para:
            low = tok.lower()
            if len(low) >= 2 and low.isalpha():
                toks.append(low)
    return toks


def count_tokens(text: str) -> Counter:
    return Counter(dict_tokens(text))
