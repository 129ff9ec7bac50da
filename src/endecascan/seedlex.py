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

from .lexicon import Lexicon, WordAnalysis, _parse_rows, build_lexicon
from .wordrules import RuleConfig, build_analyses, default_config

# monosyllables that never count as metrical accents: articles, articled
# prepositions, proclitic particles
STRESS_INELIGIBLE = frozenset((
    "il lo la li le i un di a da in con su per tra fra e o che"
    " mi ti si ci vi ne ed od ad del al dal nel sul col dei ai"
).split() + ["’l", "de’", "a’", "da’", "ne’", "co’"])


def load_nondet_table(all_variants: bool = False) -> dict[str, list[WordAnalysis]]:
    """Nondeterministic word table from the bundled data file.

    Rows are lexicon rows with an optin column after the key; optin=1
    rows are read only with all_variants.  Errors count a row's fields
    without its optin column.
    """
    text = resources.files("endecascan").joinpath("data", "nondet_words.tsv") \
        .read_text("utf-8")
    rows = []
    for line in text.splitlines():
        fields = line.split("\t")
        optin = fields.pop(1) if len(fields) > 1 else None
        # a skipped row stays as a blank line, so errors name the file's lines
        rows.append("" if optin == "1" and not all_variants else "\t".join(fields))
    table, _ = _parse_rows("\n".join(rows))
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
