"""Brute-force enumeration oracle for verse scansion.

Independent of the incremental engine: it enumerates every combination
of per-word analysis choice and per-junction meld decision, computing
each candidate's likelihood as one flat product and its rendering by
direct assembly.  Exponential, fine for short verses.

It also keeps the reference front end: `normalize_line` and `tokenize`
as they were before the one-pass tokenizer, the behaviour the package's
own versions must reproduce.
"""

import re
from itertools import product

from endecascan.lexicon import Lexicon
from endecascan.tokenizer import Token, TokenKind


def _meld(p_r, p_l):
    if p_r.is_apostrophe or p_l.is_apostrophe:
        if p_r.is_apostrophe and p_l.is_apostrophe:
            return 1.0
        other = p_l if p_r.is_apostrophe else p_r
        return 0.0 if other.value == 0.0 else 1.0
    return p_r.value * p_l.value


def _surface_syllables(word, analysis):
    out, pos = [], 0
    for syl in analysis.syllables:
        out.append(word[pos:pos + len(syl)])
        pos += len(syl)
    assert pos == len(word)
    return out


def _render(words, choices, melds):
    text = ""
    for i, (token, analysis) in enumerate(zip(words, choices)):
        sylls = _surface_syllables(token.word, analysis)
        if i > 0:
            text += words[i - 1].trail
        text += token.lead
        head, rest = sylls[0], sylls[1:]
        if i > 0 and melds[i]:
            text += " " + head
        elif text:
            text += " |" + head
        else:
            text += "|" + head
        for syl in rest:
            text += "|" + syl
    return text + words[-1].trail


def enumerate_states(tokens, lex: Lexicon):
    """All final states as dicts with text/count/likelihood/flags."""
    words = [t for t in tokens if t.kind is TokenKind.WORD]
    if not words:
        return []
    options = [lex.lookup(t.key) for t in words]
    eligible = [lex.is_stress_eligible(t.key) for t in words]
    results = []
    for choices in product(*options):
        meld_probs = [0.0]
        for i in range(1, len(choices)):
            meld_probs.append(_meld(choices[i - 1].p_r, choices[i].p_l))
        branch_space = []
        for i, m in enumerate(meld_probs):
            if i == 0 or m <= 0.0:
                branch_space.append(((False, 1.0),))
            elif m >= 1.0:
                branch_space.append(((True, 1.0),))
            else:
                branch_space.append(((True, m), (False, 1.0 - m)))
        for melds_weighted in product(*branch_space):
            melds = [m for m, _ in melds_weighted]
            likelihood = 1.0
            for analysis in choices:
                likelihood *= analysis.weight
            for _, weight in melds_weighted:
                likelihood *= weight
            count = 0
            a4 = a6 = a10 = False
            for i, analysis in enumerate(choices):
                count += analysis.n - (1 if melds[i] else 0)
                if not eligible[i]:
                    continue
                for o in analysis.accents:
                    position = count + o
                    if position == 4:
                        a4 = True
                    if position == 6:
                        a6 = True
                    if position == 10 and o == analysis.accents[0]:
                        a10 = True
            results.append({
                "text": _render(words, choices, melds),
                "count": count,
                "likelihood": likelihood,
                "a4": a4, "a6": a6, "a10": a10,
            })
    return results


# ---- reference front end ----

APOSTROPHE = "’"

# apostrophe look-alikes unified during normalization
_APOSTROPHE_VARIANTS = "'ʼ′`"

# words containing an inner apostrophe that replaces letters mid-word;
# these never split ("acco'lo" = accoilo)
NO_SPLIT_WORDS = frozenset({"acco’lo", "entra’mi"})

_PUNCT_OPEN = "«“(‘\""
_SPLIT_RE = re.compile(r"(?<=[^\W\d_])’(?=[^\W\d_])", re.UNICODE)
_WORD_RUN_RE = re.compile(r"[^\W\d_’]+(?:’[^\W\d_]+)*’?", re.UNICODE)


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
    """Lexicon key of a word form: case-folded, diacritics preserved;
    `İ` keys as `i`, one character for one."""
    return word.replace("İ", "i").lower()


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
