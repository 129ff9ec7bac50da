"""Draft lexicon construction from the default rules.

`lex build` drafts entries for review: regular forms go through the
rule pipeline, forms listed in the nondeterministic table get their
variant set verbatim.  Variants flagged opt-in (the -ea imperfects and
the bare io/mio pronouns, which the shipped dictionary keeps
deterministic) are only emitted with all_variants=True.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable

from .lexicon import (Lexicon, LexiconParseError, WordAnalysis,
                      _parse_propensity, build_lexicon)
from .wordrules import RuleConfig, build_analyses, default_config

# monosyllables that never count as metrical accents: articles, articled
# prepositions, proclitic particles
STRESS_INELIGIBLE = frozenset((
    "il lo la li le i un di a da in con su per tra fra e o che"
    " mi ti si ci vi ne ed od ad del al dal nel sul col dei ai"
).split() + ["’l", "de’", "a’", "da’", "ne’", "co’"])


def load_nondet_table(all_variants: bool = False) -> dict[str, list[WordAnalysis]]:
    """Nondeterministic word table from the bundled data file.

    Rows: key, optin, weight, p_l, p_r, syllabification, accents.
    """
    text = resources.files("endecascan").joinpath("data", "nondet_words.tsv") \
        .read_text("utf-8")
    table: dict[str, list[WordAnalysis]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise LexiconParseError(f"expected 7 fields, got {len(fields)}", line_no)
        key, optin, weight, p_l, p_r, sylls, accents = fields
        if optin == "1" and not all_variants:
            continue
        table.setdefault(key, []).append(WordAnalysis(
            tuple(sylls.split("|")),
            tuple(int(a) for a in accents.split(",")),
            _parse_propensity(p_l, line_no),
            _parse_propensity(p_r, line_no),
            float(weight)))
    # renormalize single-variant leftovers of opt-in families
    for key, variants in table.items():
        total = sum(v.weight for v in variants)
        if abs(total - 1.0) > 1e-9:
            table[key] = [WordAnalysis(v.syllables, v.accents, v.p_l, v.p_r,
                                       v.weight / total) for v in variants]
    return table


def build_draft_lexicon(words: Iterable[str], cfg: RuleConfig | None = None,
                        all_variants: bool = False) -> Lexicon:
    cfg = cfg or default_config()
    nondet = load_nondet_table(all_variants)
    entries: dict[str, list[WordAnalysis]] = {}
    for word in words:
        key = word.lower()
        if key in entries:
            continue
        entries[key] = build_analyses(word.lower(), cfg, nondet)
    return build_lexicon(entries, STRESS_INELIGIBLE & set(entries))
