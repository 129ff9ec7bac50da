"""Command-line frontend.

    endecascan scan [--lexicon FILE] [--verbose] "verse text"
    endecascan corpus --in FILE --out DIR [--lexicon FILE] [--amendments FILE]
    endecascan lex build --words FILE [--rules FILE] [--all-variants]
    endecascan lex check FILE
    endecascan query --word W --in FILE [--lexicon FILE]
    endecascan stats --in FILE [--lexicon FILE]

Exit codes: 0 success, 1 per-verse failures present, 2 fatal input errors.
The ENDECASCAN_LEXICON environment variable overrides the bundled
default dictionary.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# corpus, analysis and wordrules are imported inside the commands that use
# them, so that `scan` and `lex check` start without them
from .lexicon import (InputError, Lexicon, LexiconError, bundled_text,
                      data_lines, parse_lexicon, serialize_lexicon)
from .scander import ScanStatus, scan_verse
from .tokenizer import TokenKind, normalize_line, tokenize, word_tokens

EXIT_OK = 0
EXIT_VERSE_FAILURES = 1
EXIT_FATAL = 2

# bound once: corpus's tally reads them per verse
_OK = ScanStatus.OK
_WARN_NO_CAESURA = ScanStatus.WARN_NO_CAESURA
_FAIL_UNKNOWN_WORD = ScanStatus.FAIL_UNKNOWN_WORD


def _read_text(path: str) -> str:
    """A UTF-8 file's text; another file is an OSError that names it."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                      f"{exc.start})") from None


def load_default_lexicon() -> Lexicon:
    env = os.environ.get("ENDECASCAN_LEXICON")
    return parse_lexicon(_read_text(env) if env else bundled_text("seed.lex"))


def _load_lexicon(path: str | None) -> Lexicon:
    return load_default_lexicon() if path is None else parse_lexicon(_read_text(path))


def _cmd_scan(args) -> int:
    lex = _load_lexicon(args.lexicon)
    tokens = tokenize(normalize_line(args.verse))
    result = scan_verse(tokens, lex)
    if result.status is ScanStatus.FAIL_UNKNOWN_WORD:
        print(f"endecascan: unknown word {result.unknown_key!r}", file=sys.stderr)
        return EXIT_VERSE_FAILURES
    if result.chosen is None:
        print("endecascan: no admissible scansion", file=sys.stderr)
        if result.best_rejected is not None:
            print(f"  best rejected: {result.best_rejected.text}", file=sys.stderr)
        return EXIT_VERSE_FAILURES
    chosen = result.chosen
    print(chosen.text)
    if args.verbose:
        print(f"likelihood: {chosen.likelihood!r}")
    else:
        print(f"likelihood: {chosen.likelihood:.3f}")
    flags = [f for f, on in (("a4", chosen.a4), ("a6", chosen.a6),
                             ("a10", chosen.a10)) if on]
    print(f"syllables: {chosen.count}  accents: {' '.join(flags)}  "
          f"status: {result.status.value}")
    if args.verbose:
        print("final states:")
        ordered = sorted(result.final_states, key=lambda s: -s.likelihood)
        for state in ordered:
            p_r = str(state.pending_p_r)
            print(f"  ({state.text}, {state.likelihood!r}, {state.count}, {p_r})")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from . import corpus
    ok = anomalies = failures = 0
    unknown: set[str] = set()

    def tally(records):
        nonlocal ok, anomalies, failures
        for record in records:
            scansion = record.scansion
            status = scansion.status
            if status is _OK:
                ok += 1
            elif status is _WARN_NO_CAESURA:
                anomalies += 1
            else:
                failures += 1
                if status is _FAIL_UNKNOWN_WORD:
                    unknown.add(scansion.unknown_key)
            yield record

    records = _scan_records(args)
    paths = corpus.write_outputs(tally(records), args.out, Path(args.infile).stem)
    print(f"scanned {ok + anomalies + failures} verses: {ok} ok, "
          f"{anomalies} anomalies, {failures} failures")
    for kind, path in paths.items():
        print(f"  {kind}: {path}")
    if unknown:
        print(f"unknown words: {', '.join(sorted(unknown))}", file=sys.stderr)
    return EXIT_VERSE_FAILURES if failures else EXIT_OK


def _cmd_lex_build(args) -> int:
    from . import wordrules
    from .corpus import HEADER_RE
    cfg = (wordrules.load_rule_config(_read_text(args.rules))
           if args.rules else wordrules.default_config())
    # keyed as the scanner keys them: each data line normalized whole (a
    # quote pair spans words), then tokenized, so `#mezzo` drafts `mezzo`;
    # a canto header is not a verse, so its words are never looked up
    words = []
    for _, line in data_lines(_read_text(args.words)):
        if not HEADER_RE.match(line):
            tokens = tokenize(normalize_line(line))
            words += (token.key for token in word_tokens(tokens))
    lex = wordrules.build_draft_lexicon(words, cfg, all_variants=args.all_variants)
    sys.stdout.write(serialize_lexicon(lex))
    return EXIT_OK


def _cmd_lex_check(args) -> int:
    text = _read_text(args.file)
    try:
        lex = parse_lexicon(text)
    except LexiconError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VERSE_FAILURES
    n = sum(len(v) for v in lex.entries.values())
    print(f"ok: {len(lex.entries)} keys, {n} analyses")
    return EXIT_OK


def _scan_records(args, key: str | None = None):
    """Records of args.infile after its amendments: a user --amendments
    file must match exactly, the bundled one where it can.  Given a
    lexicon key, only the verses holding that word are scanned."""
    from . import corpus
    lex = _load_lexicon(args.lexicon)
    doc = corpus.parse_corpus(_read_text(args.infile))
    amendments = (_read_text(args.amendments) if args.amendments
                  else bundled_text("amendments.tsv"))
    doc = corpus.apply_amendments(doc, corpus.parse_amendments(amendments),
                                  strict=bool(args.amendments))
    return corpus.scan_records(doc, lex, key=key)


def _cmd_query(args) -> int:
    from . import analysis
    # keyed as every verse word is: normalized (so ch' asks for ch’), then
    # tokenized (so «Selva», asks for selva); it must make one word token
    tokens = tokenize(normalize_line(args.word))
    if len(tokens) != 1 or tokens[0].kind is not TokenKind.WORD:
        raise InputError(f"--word {args.word!r} is not one word")
    key = tokens[0].key
    occurrences = analysis.classify_word(key, _scan_records(args, key))
    sys.stdout.write(analysis.occurrences_tsv(occurrences))
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import analysis
    histogram = analysis.pattern_histogram(_scan_records(args),
                                           include_secondary=args.secondary)
    sys.stdout.write(analysis.histogram_tsv(histogram))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="endecascan",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="scan one verse")
    p.add_argument("verse")
    p.add_argument("--lexicon")
    p.add_argument("--verbose", action="store_true",
                   help="dump every final state with full precision")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("corpus", help="scan a corpus file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--amendments")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("lex", help="lexicon tools")
    lex_sub = p.add_subparsers(dest="lex_command", required=True)
    b = lex_sub.add_parser("build", help="draft entries from rules")
    b.add_argument("--words", required=True)
    b.add_argument("--rules")
    b.add_argument("--all-variants", action="store_true",
                   help="include opt-in nondeterministic variants")
    b.set_defaults(func=_cmd_lex_build)
    c = lex_sub.add_parser("check", help="validate a lexicon file")
    c.add_argument("file")
    c.set_defaults(func=_cmd_lex_check)

    p = sub.add_parser("query", help="synalephe/dialephe occurrences of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lexicon")
    p.set_defaults(func=_cmd_query, amendments=None)

    p = sub.add_parser("stats", help="accent-pattern histogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--secondary", action="store_true")
    p.set_defaults(func=_cmd_stats, amendments=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FATAL if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"endecascan: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
