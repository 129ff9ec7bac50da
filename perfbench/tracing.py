"""Spans recorded around calls into the endecascan modules.

A span is (name, start_ns, end_ns, parent, extra): ``parent`` is the
index of the enclosing span in the same process (-1 at top level) and
``extra`` holds the counts gathered at that boundary.  Spans are kept
in memory and written out once, as TSV, when the process ends; all
spans of one file belong to one process, which is one request.

The wrappers are installed from the benchmark's own code by replacing
module attributes, so the program itself carries no tracing.
"""

from __future__ import annotations

import time
from pathlib import Path

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str] | None] = []
        self._stack: list[int] = []

    def record(self, name: str, start_ns: int, end_ns: int, extra: str = "") -> None:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append((name, start_ns, end_ns, parent, extra))

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(result) gives the span's extra field."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else NO_PARENT
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, "")
            if count is not None:
                spans[index] = (name, start, end, parent, count(result))
            return result

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, extra in self.spans:
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{extra}\n")


def scan_counts(result) -> str:
    return f"{len(result.final_states)},{len(result.admissible)}"


def install_cli(tracer: Tracer) -> None:
    """Wrap the public calls the CLI commands make into each module."""
    from endecascan import analysis, cli, corpus

    def bytes_written(paths) -> str:
        return str(sum(Path(p).stat().st_size for p in paths.values()))

    for module in (cli, corpus):
        module.normalize_line = tracer.wrap("tokenizer.normalize_line",
                                            module.normalize_line)
        module.tokenize = tracer.wrap("tokenizer.tokenize", module.tokenize)
        module.scan_verse = tracer.wrap("scander.scan_verse", module.scan_verse,
                                        scan_counts)
    cli.parse_lexicon = tracer.wrap("lexicon.parse_lexicon", cli.parse_lexicon)
    for name in ("parse_corpus", "apply_amendments", "scan_document",
                 "render_scansion"):
        setattr(corpus, name, tracer.wrap(f"corpus.{name}", getattr(corpus, name)))
    corpus.write_outputs = tracer.wrap("corpus.write_outputs",
                                       corpus.write_outputs, bytes_written)
    for name in ("pattern_histogram", "classify_word"):
        setattr(analysis, name, tracer.wrap(f"analysis.{name}",
                                            getattr(analysis, name)))


def read_spans(path: Path) -> list[tuple[str, int, int, int, str]]:
    spans = []
    for line in Path(path).read_text("utf-8").splitlines():
        name, start, end, parent, extra = line.split("\t")
        spans.append((name, int(start), int(end), int(parent), extra))
    return spans


def self_times(spans) -> list[tuple[str, int, int, str]]:
    """(name, duration_ns, self_ns, extra) per span.

    Self time is the span's duration minus the part its direct child
    spans cover; children never overlap because one process runs one
    call at a time.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child_ns[parent] += end - start
    return [(name, end - start, end - start - child_ns[i], extra)
            for i, (name, start, end, _, extra) in enumerate(spans)]
