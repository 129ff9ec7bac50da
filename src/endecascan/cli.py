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

import gc
import os
import sys
from types import SimpleNamespace

# corpus, analysis, wordrules and pathlib are imported inside the commands
# that use them, so that `scan` and `lex check` start without them
from .lexicon import (InputError, Lexicon, LexiconError, bundled_text,
                      data_lines, parse_lexicon, read_text, serialize_lexicon)
from .scander import ScanStatus, scan_verse
from .tokenizer import TokenKind, normalize_line, tokenize, word_tokens

EXIT_OK = 0
EXIT_VERSE_FAILURES = 1
EXIT_FATAL = 2

# bound once: corpus's tally reads them per verse
_OK = ScanStatus.OK
_WARN_NO_CAESURA = ScanStatus.WARN_NO_CAESURA
_FAIL_UNKNOWN_WORD = ScanStatus.FAIL_UNKNOWN_WORD


def load_default_lexicon() -> Lexicon:
    env = os.environ.get("ENDECASCAN_LEXICON")
    return parse_lexicon(read_text(env) if env else bundled_text("seed.lex"))


def _load_lexicon(path: str | None) -> Lexicon:
    return load_default_lexicon() if path is None else parse_lexicon(read_text(path))


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
        for state in sorted(result.final_states, key=lambda s: -s.likelihood):
            print(f"  ({state.text}, {state.likelihood!r}, {state.count}, "
                  f"{state.pending_p_r})")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    from pathlib import Path
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
    cfg = (wordrules.load_rule_config(read_text(args.rules))
           if args.rules else wordrules.default_config())
    # keyed as the scanner keys them: each data line normalized whole (a
    # quote pair spans words), then tokenized, so `#mezzo` drafts `mezzo`;
    # a canto header is not a verse, so its words are never looked up
    words = []
    for _, line in data_lines(read_text(args.words)):
        if not HEADER_RE.match(line):
            tokens = tokenize(normalize_line(line))
            words += (token.key for token in word_tokens(tokens))
    lex = wordrules.build_draft_lexicon(words, cfg, all_variants=args.all_variants)
    sys.stdout.write(serialize_lexicon(lex))
    return EXIT_OK


def _cmd_lex_check(args) -> int:
    text = read_text(args.file)
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
    doc = corpus.parse_corpus(read_text(args.infile))
    amendments = (read_text(args.amendments) if args.amendments
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


# Each command's arguments, stated once: `build_parser` builds argparse's
# parser of them, and `_read_argv` reads without argparse an argv that
# spells them as documented.  A command maps to (help, the defaults it sets,
# its arguments) or, for `lex`, (help, {}, its subcommands); an argument is
# (name, kind, help), and `--in` is stored as `infile`.
POSITIONAL, VALUE, REQUIRED, FLAG = "positional", "value", "required", "flag"
COMMANDS = {
    "scan": ("scan one verse", {"func": _cmd_scan}, [
        ("verse", POSITIONAL, None),
        ("--lexicon", VALUE, None),
        ("--verbose", FLAG, "dump every final state with full precision")]),
    "corpus": ("scan a corpus file", {"func": _cmd_corpus}, [
        ("--in", REQUIRED, None),
        ("--out", REQUIRED, None),
        ("--lexicon", VALUE, None),
        ("--amendments", VALUE, None)]),
    "lex": ("lexicon tools", {}, {
        "build": ("draft entries from rules", {"func": _cmd_lex_build}, [
            ("--words", REQUIRED, None),
            ("--rules", VALUE, None),
            ("--all-variants", FLAG, "include opt-in nondeterministic variants")]),
        "check": ("validate a lexicon file", {"func": _cmd_lex_check}, [
            ("file", POSITIONAL, None)])}),
    "query": ("synalephe/dialephe occurrences of a word",
              {"func": _cmd_query, "amendments": None}, [
        ("--word", REQUIRED, None),
        ("--in", REQUIRED, None),
        ("--lexicon", VALUE, None)]),
    "stats": ("accent-pattern histogram",
              {"func": _cmd_stats, "amendments": None}, [
        ("--in", REQUIRED, None),
        ("--lexicon", VALUE, None),
        ("--secondary", FLAG, None)]),
}


def _dest(option: str) -> str:
    return "infile" if option == "--in" else option[2:].replace("-", "_")


def build_parser():
    """argparse's parser of COMMANDS; it prints every help, usage and error."""
    import argparse
    parser = argparse.ArgumentParser(prog="endecascan",
                                     description=__doc__.splitlines()[0])
    _add_commands(parser, "command", COMMANDS)
    return parser


def _add_commands(parser, dest: str, commands: dict) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (command_help, defaults, args) in commands.items():
        p = sub.add_parser(name, help=command_help)
        if isinstance(args, dict):
            _add_commands(p, f"{name}_command", args)
            continue
        for arg, kind, arg_help in args:
            if kind is POSITIONAL:
                p.add_argument(arg, help=arg_help)
            else:
                p.add_argument(arg, dest=_dest(arg), required=kind is REQUIRED,
                               action="store_true" if kind is FLAG else "store",
                               help=arg_help)
        p.set_defaults(**defaults)


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, if argv spells a command and
    its options as documented: each option at most once and in full, a
    value after its option, every required option, and no value or
    positional that starts with `-`.  None for any other argv, so help,
    `--`, `--opt=value` and every error are left to argparse."""
    values, dest, args, i = {}, "command", COMMANDS, 0
    while isinstance(args, dict):  # a command, then `lex`'s subcommand
        if i == len(argv) or argv[i] not in args:
            return None
        values[dest] = name = argv[i]
        _, defaults, args = args[name]
        dest, i = f"{name}_command", i + 1
    positionals = [arg for arg, kind, _ in args if kind is POSITIONAL]
    options = {arg: kind for arg, kind, _ in args if kind is not POSITIONAL}
    for option, kind in options.items():
        values[_dest(option)] = False if kind is FLAG else None
    given = set()
    rest = iter(argv[i:])
    for arg in rest:
        if arg[:1] != "-":
            if not positionals:
                return None
            values[positionals.pop(0)] = arg
        elif arg not in options or arg in given:
            return None
        else:
            given.add(arg)
            if options[arg] is FLAG:
                values[_dest(arg)] = True
                continue
            value = next(rest, "-")  # a missing value declines as a dash does
            if value[:1] == "-":
                return None
            values[_dest(arg)] = value
    if positionals or any(kind is REQUIRED and option not in given
                          for option, kind in options.items()):
        return None
    values.update(defaults)
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_FATAL if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        print(f"endecascan: {exc}", file=sys.stderr)
        return EXIT_FATAL


def run() -> int:
    """The program entry of `python -m endecascan.cli` and of the
    `endecascan` script: main's exit code, with every object frozen."""
    code = main()
    # the process ends next: the collections the interpreter makes while it
    # shuts down skip frozen objects, whose memory the OS takes back anyway
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
