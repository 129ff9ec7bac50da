"""Verse line normalization and tokenization.

A verse is processed as a flat sequence of tokens: words and punctuation.
Punctuation never affects the metre, but it must survive into the rendered
output, so each word token carries its punctuation context: a piece
with no letter, a standalone mark, stays in the stream as a PUNCT token,
so the stream still rebuilds the line, and one pass over the line's
tokens then gives each mark to a word.  A mark that opens (or comes
before the first word) joins the next word's `lead`, any other the
previous word's `trail`.

The words of a poem repeat (nearly half the pieces of one canto repeat
an earlier piece of it), and tokens are values, so a word token is
shared.  Two bounded module tables map a piece, the string itself, to
its token: `_FIRST_WORDS` for a line's first word (`space_before` false)
and `_LATER_WORDS` for the words after it.  A repeated piece costs one
lookup, and verses hold the same token objects.  Both tables full of
32-character pieces in 4-byte characters hold 8.3 MB (tracemalloc);
Inferno I leaves 83 and 488 tokens in them, 0.14 MB.  `_word_token`
makes a word token on a table miss.  The pass over a line with a
standalone mark, which no workload line has, copies each word that a
mark joins into that line's own list only.  A third table, `_ELIDED`,
bounded the same way, holds each whitespace piece with an apostrophe
after its elision split.  Splitting piece by piece gives the line's own
split, because an elision run is made of letters and apostrophes only
and so never crosses whitespace.

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
from collections.abc import Iterable
from enum import Enum

from .lexicon import Value

APOSTROPHE = "’"

# apostrophe look-alikes unified during normalization
_APOSTROPHE_VARIANTS = "'ʼ′`"

# words containing an inner apostrophe that replaces letters mid-word;
# these never split ("acco'lo" = accoilo)
NO_SPLIT_WORDS = frozenset({"acco’lo", "entra’mi"})

_PUNCT_OPEN = "«“(‘\""
# a run of letters and apostrophes with at least one apostrophe between
# letters: the only runs that an elision split can change; anchored at a
# run's first letter, so it scans in linear time
_ELISION_RUN_RE = re.compile(r"(?<![^\W\d_])[^\W\d_’]+(?:’[^\W\d_]+)+’?",
                             re.UNICODE)

# the three shared tables, each kept by _share: cleared when full, and a
# piece longer than _SHARED_PIECE_MAX built every time.  A word-token
# entry (token, and its piece, word, key, lead and trail strings) holds
# about 0.5 KB in 4-byte characters (the module docstring gives the
# totals); an elision entry is two short strings.
_SHARED_TOKENS_MAX = 8192
_SHARED_PIECE_MAX = 32
# word tokens keyed by their piece: the first word of a line, and the
# words after it; only tokens that no standalone mark changes
_FIRST_WORDS: dict[str, Token] = {}
_LATER_WORDS: dict[str, Token] = {}
# each piece that holds an apostrophe, after its elision split
_ELIDED: dict[str, str] = {}


def _share(table: dict, piece: str, value) -> None:
    if len(piece) <= _SHARED_PIECE_MAX:
        if len(table) >= _SHARED_TOKENS_MAX:
            table.clear()
        table[piece] = value


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"


_WORD = TokenKind.WORD  # bound once: word_tokens reads it per token


class Token(Value):
    """One verse token.

    surface is the original whitespace-delimited slice (punctuation
    included); for word tokens, word/key hold the bare form and the
    lexicon key, and lead/trail the punctuation context for rendering.
    plain, derived and not a field, says that the word renders as its
    key alone: no capital and no mark around it.  Tokens are values;
    never assign to one.
    """

    _fields = ("kind", "surface", "space_before", "word", "key", "lead",
               "trail")
    __slots__ = _fields + ("plain",)

    def __init__(self, kind: TokenKind, surface: str, space_before: bool,
                 word: str = "", key: str = "", lead: str = "", trail: str = ""):
        self.kind, self.surface, self.space_before = kind, surface, space_before
        self.word, self.key, self.lead, self.trail = word, key, lead, trail
        self.plain = word == key and not lead and not trail


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

    pieces = line.split()
    if APOSTROPHE in line:
        # an elision run never crosses whitespace: split each piece once
        for i, piece in enumerate(pieces):
            if APOSTROPHE in piece:
                split = _ELIDED.get(piece)
                if split is None:
                    split = _ELISION_RUN_RE.sub(_split_elisions, piece)
                    _share(_ELIDED, piece, split)
                pieces[i] = split
    return " ".join(pieces)


def _split_elisions(match: re.Match) -> str:
    # keep whole-word exceptions intact; every apostrophe of a run but a
    # final one stands between letters, and gains a following space
    run = match.group(0)
    if run.lower() in NO_SPLIT_WORDS:
        return run
    return run[:-1].replace(APOSTROPHE, APOSTROPHE + " ") + run[-1]


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
    """Lexicon key of a word form: case-folded, diacritics preserved, one
    character per character of the word.  `str.lower` keeps the length of
    every character but U+0130 `İ`, which it turns into `i̇`."""
    return word.replace("İ", "i").lower()


def tokenize(line: str) -> list[Token]:
    """Split a normalized line into word and punctuation tokens.

    Standalone punctuation becomes a PUNCT token and is also attached to
    the neighbouring word (opening marks lean right, everything else
    left), so renderers only ever need the word tokens.
    """
    tokens: list[Token] = []
    table = _FIRST_WORDS
    marks = False
    for piece in line.split(" "):
        if not piece:
            continue
        token = table.get(piece)
        if token is None:
            space_before = table is not _FIRST_WORDS
            token = _word_token(piece, space_before)
            if token is None:  # a standalone mark: its neighbours change
                token = Token(TokenKind.PUNCT, piece, space_before)
                marks = True
            else:
                _share(table, piece, token)
        tokens.append(token)
        table = _LATER_WORDS
    if marks:
        _attach_marks(tokens)
    return tokens


def _attach_marks(tokens: list[Token]) -> None:
    # a mark that opens, or that comes before the first word, joins the
    # next word's lead; any other joins the previous word's trail.  Only
    # this line's list holds the words that change, built once each
    last = -1  # the previous word
    lead = trail = ""  # its marks
    pending = ""  # the marks for the next word's lead
    for i, token in enumerate(tokens):
        if token.kind is _WORD:
            if lead or trail:
                _join_marks(tokens, last, lead, trail)
            last, lead, trail, pending = i, pending, "", ""
        elif last < 0 or any(ch in _PUNCT_OPEN for ch in token.surface):
            pending += token.surface
        else:
            trail += token.surface
    if lead or trail:
        _join_marks(tokens, last, lead, trail)


def _join_marks(tokens: list[Token], i: int, lead: str, trail: str) -> None:
    t = tokens[i]
    tokens[i] = Token(_WORD, t.surface, t.space_before, t.word, t.key,
                      lead + t.lead, t.trail + trail)


def _word_token(piece: str, space_before: bool) -> Token | None:
    """The WORD token of a piece; None for a piece with no letter."""
    lead, word, trail = _split_piece(piece)
    if not word:
        return None
    return Token(_WORD, piece, space_before, word, lex_key(word), lead, trail)


def word_tokens(tokens: Iterable[Token]) -> list[Token]:
    return [t for t in tokens if t.kind is _WORD]


def reconstruct(tokens: Iterable[Token]) -> str:
    """Rebuild the normalized line from the token stream."""
    out = []
    for tok in tokens:
        if tok.space_before:
            out.append(" ")
        out.append(tok.surface)
    return "".join(out)
