"""The fork-storm workload, run in one child process.

    python3 perfbench/forkstorm.py LINES_FILE SECONDS TRACE OUT_DIR

Each line goes through normalize_line, tokenize and scan_verse, and then
every final state is sorted and formatted the way ``scan --verbose``
prints it.  Rounds over all lines repeat until SECONDS of round time
have passed; with TRACE=1 untraced and traced rounds alternate.  The
child writes ``result.json`` (per round, each line's start and end in
``time.perf_counter()`` seconds, which the parent scales by the core
speed samples of corespeed.py), ``outputs.txt`` (the last round's rendered blocks, separated by blank
lines) and, when tracing, ``spans.tsv``.
"""

import json
import sys
import time
from pathlib import Path

import tracing

NO_READING = "no admissible scansion"


def render_verbose(result) -> str:
    out = []
    chosen = result.chosen
    if chosen is None:
        out.append(NO_READING)
    else:
        flags = [f for f, on in (("a4", chosen.a4), ("a6", chosen.a6),
                                 ("a10", chosen.a10)) if on]
        out.append(chosen.text)
        out.append(f"likelihood: {chosen.likelihood!r}")
        out.append(f"syllables: {chosen.count}  accents: {' '.join(flags)}  "
                   f"status: {result.status.value}")
    out.append("final states:")
    for state in sorted(result.final_states, key=lambda s: -s.likelihood):
        out.append(f"  ({state.text}, {state.likelihood!r}, {state.count}, "
                   f"{state.pending_p_r})")
    return "\n".join(out)


def run_round(lines, lex, calls, outputs):
    normalize, tokenize, scan, render = calls
    clock = time.perf_counter
    line_at = []
    for i, line in enumerate(lines):
        start = clock()
        outputs[i] = render(scan(tokenize(normalize(line)), lex))
        line_at.append((start, clock()))
    return line_at


def main() -> int:
    lines_file, seconds, trace, out_dir = sys.argv[1:5]
    seconds, trace, out_dir = float(seconds), trace == "1", Path(out_dir)
    tracer = tracing.Tracer()

    start = time.perf_counter_ns()
    import endecascan.cli as cli
    from endecascan.scander import scan_verse
    from endecascan.tokenizer import normalize_line, tokenize
    if trace:
        tracer.record("cli.import", start, time.perf_counter_ns())
        cli.parse_lexicon = tracer.wrap("lexicon.parse_lexicon", cli.parse_lexicon)
    lex = cli.load_default_lexicon()

    lines = Path(lines_file).read_text("utf-8").splitlines()
    plain = (normalize_line, tokenize, scan_verse, render_verbose)
    traced = (tracer.wrap("tokenizer.normalize_line", normalize_line),
              tracer.wrap("tokenizer.tokenize", tokenize),
              tracer.wrap("scander.scan_verse", scan_verse, tracing.scan_counts),
              tracer.wrap("scander.verbose_render", render_verbose))
    outputs = [""] * len(lines)
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        for is_traced in ((False, True) if trace else (False,)):
            line_at = run_round(lines, lex, traced if is_traced else plain, outputs)
            rounds.append({"traced": is_traced, "line_at": line_at})
            spent += sum(end - start for start, end in line_at)

    (out_dir / "result.json").write_text(json.dumps({"rounds": rounds}), "utf-8")
    with open(out_dir / "outputs.txt", "w", encoding="utf-8") as out:
        for block in outputs:
            out.write(block)
            out.write("\n\n")
    if trace:
        tracer.write(out_dir / "spans.tsv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
