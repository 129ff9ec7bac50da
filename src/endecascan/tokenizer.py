"""Verse line normalization and tokenization.

A verse is processed as a flat sequence of tokens: words and punctuation.
Punctuation never affects the metre, but it must survive into the rendered
output, so `tokenize` builds each word token once, with its final
punctuation context: a standalone mark that opens (or comes before the
first word) joins the next word's `lead`, any other joins the previous
word's `trail`.  The mark also stays in the stream as a PUNCT token, so
the stream still rebuilds the line.

Apostrophes are the delicate part.  The canonical apostrophe is U+2019.
An apostrophe glued between two letters marks an elision boundary
("ch'io", "l'altre") and splits the compound into two word tokens; a
leading apostrophe marks aphaeresis ("'l", "'mpediva") and stays attached
to its word, as does a trailing one ("vid'", "de'").  A line with no
U+2019 after normalization has no elision to split, and no line keeps a
U+2018, so normalizing twice changes nothing.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable

from .lexicon import Value

APOSTROPHE = "’"

# apostrophe look-alikes unified during normalization
_APOSTROPHE_VARIANTS = "'ʼ′`"

# words containing an inner apostrophe that replaces letters mid-word;
# these never split ("acco'lo" = accoilo)
NO_SPLIT_WORDS = frozenset({"acco’lo", "entra’mi"})

_PUNCT_OPEN = "«“(‘\""
_SPLIT_RE = re.compile(r"(?<=[^\W\d_])’(?=[^\W\d_])", re.UNICODE)
# a run of letters and apostrophes with at least one apostrophe between
# letters: the only runs that an elision split can change; anchored at a
# run's first letter, so it scans in linear time
_ELISION_RUN_RE = re.compile(r"(?<![^\W\d_])[^\W\d_’]+(?:’[^\W\d_]+)+’?",
                             re.UNICODE)


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"


class Token(Value):
    """One verse token.

    surface is the original whitespace-delimited slice (punctuation
    included); for word tokens, word/key hold the bare form and the
    lexicon key, and lead/trail the punctuation context for rendering.
    Tokens are values; never assign to one.
    """

    __slots__ = _fields = ("kind", "surface", "space_before", "word", "key",
                           "lead", "trail")

    def __init__(self, kind: TokenKind, surface: str, space_before: bool,
                 word: str = "", key: str = "", lead: str = "", trail: str = ""):
        self.kind, self.surface, self.space_before = kind, surface, space_before
        self.word, self.key, self.lead, self.trail = word, key, lead, trail


def normalize_line(line: str) -> str:
    """Apply the text normalizations expected by the scanner.

    - apostrophe look-alikes become U+2019;
    - U+2018 opens a pair with the first closing apostrophe (one after a
      non-letter) two or more characters on, and both become `"`; any
      other U+2018, one inside a pair too, is `’` before a letter, else `"`;
    - an apostrophe glued between letters gains a following space, so
      elision compounds split into separate tokens ("ch'io" -> "ch' io");
    - whitespace collapses to single spaces.
    """
    for variant in _APOSTROPHE_VARIANTS:
        line = line.replace(variant, APOSTROPHE)

    if "‘" in line:
        line = _rewrite_open_quotes(line)

    if APOSTROPHE in line:
        line = _ELISION_RUN_RE.sub(_split_elisions, line)

    return " ".join(line.split())


def _split_elisions(match: re.Match) -> str:
    # keep whole-word exceptions intact, split every other letter-'-letter
    run = match.group(0)
    if run.lower() in NO_SPLIT_WORDS:
        return run
    return _SPLIT_RE.sub(APOSTROPHE + " ", run)


def _rewrite_open_quotes(line: str) -> str:
    # a closer is an apostrophe after a non-letter, e.g. "misericordes!’";
    # one after a letter is a real apostrophe
    closers = [k for k in range(1, len(line))
               if line[k] == APOSTROPHE and not line[k - 1].isalpha()]
    out = list(line)
    nxt = 0  # the first closer not yet passed
    close = -1  # the closer of the open pair
    i = line.find("‘")
    while i >= 0:
        while nxt < len(closers) and closers[nxt] < i + 2:
            nxt += 1
        if i > close and nxt < len(closers):
            close = closers[nxt]
            out[i] = out[close] = '"'
        else:
            out[i] = APOSTROPHE if line[i + 1:i + 2].isalpha() else '"'
        i = line.find("‘", i + 1)
    return "".join(out)


def _split_piece(piece: str) -> tuple[str, str, str]:
    """Split one whitespace-delimited piece into (lead, word, trail).

    The word runs from the first letter to the last, with an apostrophe
    just before it (aphaeresis) or just after it (elision).
    """
    if piece[0].isalpha() and piece[-1].isalpha():
        return "", piece, ""
    start, end = 0, len(piece)
    while start < end and not piece[start].isalpha():
        start += 1
    while end > start and not piece[end - 1].isalpha():
        end -= 1
    if start == end:
        return piece, "", ""
    if start and piece[start - 1] == APOSTROPHE:
        start -= 1
    if piece[end:end + 1] == APOSTROPHE:
        end += 1
    return piece[:start], piece[start:end], piece[end:]


def lex_key(word: str) -> str:
    """Lexicon key of a word form: case-folded, diacritics preserved."""
    return word.lower()


def _opens(mark: str) -> bool:
    return any(ch in _PUNCT_OPEN for ch in mark)


def tokenize(line: str) -> list[Token]:
    """Split a normalized line into word and punctuation tokens.

    Standalone punctuation becomes a PUNCT token and is also attached to
    the neighbouring word (opening marks lean right, everything else
    left), so renderers only ever need the word tokens.
    """
    pieces = [piece for piece in line.split(" ") if piece]
    parts = [_split_piece(piece) for piece in pieces]
    tokens: list[Token] = []
    pending_lead = ""
    seen_word = False
    last = len(parts) - 1
    for i, (piece, (lead, word, trail)) in enumerate(zip(pieces, parts)):
        if not word:
            # a mark after a word that does not open is in its trail already
            if not seen_word or _opens(piece):
                pending_lead += piece
            tokens.append(Token(TokenKind.PUNCT, piece, i > 0))
            continue
        # the marks up to the next word that do not open join the trail
        j = i
        while j < last and not parts[j + 1][1]:
            j += 1
            if not _opens(pieces[j]):
                trail += pieces[j]
        tokens.append(Token(TokenKind.WORD, piece, i > 0, word, lex_key(word),
                            pending_lead + lead, trail))
        pending_lead = ""
        seen_word = True
    return tokens


def word_tokens(tokens: Iterable[Token]) -> list[Token]:
    return [t for t in tokens if t.kind is TokenKind.WORD]


def reconstruct(tokens: Iterable[Token]) -> str:
    """Rebuild the normalized line from the token stream."""
    out = []
    for tok in tokens:
        if tok.space_before:
            out.append(" ")
        out.append(tok.surface)
    return "".join(out)
