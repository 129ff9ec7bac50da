"""Verse line normalization and tokenization.

A verse is processed as a flat sequence of tokens: words and punctuation.
Punctuation never affects the metre, but it must survive into the rendered
output, so punctuation marks are captured as leading/trailing context of
the neighbouring word tokens.

Apostrophes are the delicate part.  The canonical apostrophe is U+2019.
An apostrophe glued between two letters marks an elision boundary
("ch'io", "l'altre") and splits the compound into two word tokens; a
leading apostrophe marks aphaeresis ("'l", "'mpediva") and stays attached
to its word, as does a trailing one ("vid'", "de'").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

APOSTROPHE = "’"

# apostrophe look-alikes unified during normalization
_APOSTROPHE_VARIANTS = "'ʼ′`"

# words containing an inner apostrophe that replaces letters mid-word;
# these never split ("acco'lo" = accoilo)
NO_SPLIT_WORDS = frozenset({"acco’lo", "entra’mi"})

_PUNCT_OPEN = "«“(‘\""
_SPLIT_RE = re.compile(r"(?<=[^\W\d_])’(?=[^\W\d_])", re.UNICODE)
_WORD_RUN_RE = re.compile(r"[^\W\d_’]+(?:’[^\W\d_]+)*’?", re.UNICODE)


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"


@dataclass(frozen=True)
class Token:
    """One verse token.

    surface is the original whitespace-delimited slice (punctuation
    included); for word tokens, word/key hold the bare form and the
    lexicon key, and lead/trail the punctuation context for rendering.
    """

    kind: TokenKind
    surface: str
    space_before: bool
    word: str = ""
    key: str = ""
    lead: str = ""
    trail: str = ""


def _is_letter(ch: str) -> bool:
    return ch.isalpha()


def normalize_line(line: str) -> str:
    """Apply the text normalizations expected by the scanner.

    - apostrophe look-alikes become U+2019;
    - U+2018 before a letter is an aphaeresis apostrophe unless the line
      closes the quote later (then the pair becomes double quotes);
    - an apostrophe glued between letters gains a following space, so
      elision compounds split into separate tokens ("ch'io" -> "ch' io");
    - whitespace collapses to single spaces.
    """
    for variant in _APOSTROPHE_VARIANTS:
        line = line.replace(variant, APOSTROPHE)

    if "‘" in line:
        line = _rewrite_open_quotes(line)

    # keep whole-word exceptions intact, split every other letter-'-letter
    pieces = []
    pos = 0
    for m in _WORD_RUN_RE.finditer(line):
        pieces.append(line[pos:m.start()])
        run = m.group(0)
        if run.lower() in NO_SPLIT_WORDS:
            pieces.append(run)
        else:
            pieces.append(_SPLIT_RE.sub(APOSTROPHE + " ", run))
        pos = m.end()
    pieces.append(line[pos:])
    line = "".join(pieces)

    return " ".join(line.split())


def _rewrite_open_quotes(line: str) -> str:
    out = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "‘":
            rest = line[i + 1:]
            if rest[:1] and _is_letter(rest[0]) and not _has_closing_quote(rest):
                out.append(APOSTROPHE)  # quote glyph used for aphaeresis
            else:
                closer = _closing_quote_index(rest)
                if closer is None:
                    out.append('"')
                else:
                    out.append('"')
                    out.append(rest[:closer])
                    out.append('"')
                    i += 1 + closer
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def _has_closing_quote(rest: str) -> bool:
    return _closing_quote_index(rest) is not None


def _closing_quote_index(rest: str) -> int | None:
    # a closing candidate is an apostrophe glyph preceded by a non-letter,
    # e.g. "misericordes!'"; a letter-adjacent one is a real apostrophe
    for j in range(1, len(rest)):
        if rest[j] == APOSTROPHE and not _is_letter(rest[j - 1]):
            return j
    return None


def _is_word_char(ch: str) -> bool:
    return _is_letter(ch) or ch == APOSTROPHE


def _split_piece(piece: str) -> tuple[str, str, str]:
    """Split one whitespace-delimited piece into (lead, word, trail)."""
    start = 0
    while start < len(piece):
        ch = piece[start]
        if _is_letter(ch):
            break
        if ch == APOSTROPHE and start + 1 < len(piece) and _is_letter(piece[start + 1]):
            break  # aphaeresis apostrophe belongs to the word
        start += 1
    end = len(piece)
    while end > start:
        ch = piece[end - 1]
        if _is_letter(ch):
            break
        if ch == APOSTROPHE and end - 1 > start and _is_letter(piece[end - 2]):
            break  # trailing elision apostrophe belongs to the word
        end -= 1
    return piece[:start], piece[start:end], piece[end:]


def lex_key(word: str) -> str:
    """Lexicon key of a word form: case-folded, diacritics preserved."""
    return word.lower()


def tokenize(line: str) -> list[Token]:
    """Split a normalized line into word and punctuation tokens.

    Standalone punctuation becomes a PUNCT token and is also attached to
    the neighbouring word (opening marks lean right, everything else
    left), so renderers only ever need the word tokens.
    """
    raw: list[Token] = []
    for piece in line.split(" "):
        if not piece:
            continue
        lead, word, trail = _split_piece(piece)
        space = bool(raw)
        if word:
            raw.append(Token(TokenKind.WORD, piece, space, word, lex_key(word), lead, trail))
        elif piece:
            raw.append(Token(TokenKind.PUNCT, piece, space))

    # fold standalone punctuation into neighbour word context
    tokens: list[Token] = []
    pending_lead = ""
    for tok in raw:
        if tok.kind is TokenKind.PUNCT:
            word_seen = any(t.kind is TokenKind.WORD for t in tokens)
            if any(ch in _PUNCT_OPEN for ch in tok.surface) or not word_seen:
                pending_lead += tok.surface
            else:
                for j in range(len(tokens) - 1, -1, -1):
                    if tokens[j].kind is TokenKind.WORD:
                        t = tokens[j]
                        tokens[j] = Token(t.kind, t.surface, t.space_before, t.word,
                                          t.key, t.lead, t.trail + tok.surface)
                        break
            tokens.append(tok)
        else:
            if pending_lead:
                tok = Token(tok.kind, tok.surface, tok.space_before, tok.word,
                            tok.key, pending_lead + tok.lead, tok.trail)
                pending_lead = ""
            tokens.append(tok)
    return tokens


def word_tokens(tokens: list[Token]) -> list[Token]:
    return [t for t in tokens if t.kind is TokenKind.WORD]


def reconstruct(tokens: list[Token]) -> str:
    """Rebuild the normalized line from the token stream."""
    out = []
    for tok in tokens:
        if tok.space_before:
            out.append(" ")
        out.append(tok.surface)
    return "".join(out)
