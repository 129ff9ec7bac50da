"""Benchmark for endecascan.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is comedy-batch, cli-scan, fork-storm, or all (each in turn).
Run it from the root of a source tree: the package is run from ``src``
as ``python -m endecascan.cli``, one child process at a time (besides
the core speed sampler, which sleeps between samples), with
PYTHONHASHSEED pinned.  Inputs are generated from the seed into
``.perfbench_work/``; the program only sees those files and lines.

A run pins itself and its children to one CPU, starts a sampler of
that core's speed on it (corespeed.py), generates its inputs, makes one
untimed warm-up pass so that ``.pyc`` files exist, then repeats rounds
of fixed work until S seconds of round time have passed (at least one
round).  Every time except the spans of --trace 1 is scaled to the
core's fast speed by the samples taken while it ran; the unscaled
figures are printed beside the scaled ones.  The outputs of every round
are checked afterwards against references that do not come from the
engine.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
list every metric with its unit.

End-to-end metrics (--trace 0):
  setup_s          median wall time of a fresh interpreter that imports
                   endecascan.cli and loads the bundled lexicon, over
                   eighteen samples taken in three bursts
  wall_s           wall time of one round: the sum of its items' latencies
  verses_per_s     verses of one round divided by wall_s
  latency_ms_p50   median item latency; an item is a command of
                   comedy-batch, a scan process of cli-scan, a line of
                   fork-storm, and its latency the median of its
                   repetitions, one per round
  latency_ms_tail  the highest of p99.9, p99, p95, p90, p75 and p50
                   with at least ten items beyond it, or the maximum
                   when there are fewer than twenty items
  peak_rss_mb      largest resident set of any child process
  ok_ratio         outputs correct / outputs attempted, that is
                   1 - fail_ratio (a metric that reads 0 cannot carry
                   a relative bound)

Per-layer metrics (--trace 1) come from spans recorded around calls
into each module's public functions; untraced and traced rounds
alternate.  ``.ms`` metrics are self time per round, except
cli.import.ms and lexicon.parse_lexicon.ms, which are per process.
Counts are per round.  trace.overhead_s is wall_s of the traced rounds
minus wall_s of the untraced ones.

The benchmark's own tests: python -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corespeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
WORK = ROOT / ".perfbench_work"
REQUIRED = (ROOT / "src" / "endecascan" / "cli.py",
            ROOT / "tests" / "oracle.py",
            workloads.DATA / "inferno_i_golden.txt",
            ROOT / "BENCHMARK.json")

# set-up samples come in three bursts: before the rounds, after them and
# after the checks
SETUP_RUNS = 6
SETUP_CODE = "import endecascan.cli as cli; cli.load_default_lexicon()"
CLI_TIMEOUT_S = 60
FORK_STORM_TIMEOUT_S = 150
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ENDECASCAN_LEXICON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def run_child(argv: list[str], cwd: Path, timeout: float = CLI_TIMEOUT_S):
    """((start, end), exit code, stdout) of one child process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=ENV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, encoding="utf-8",
                          timeout=timeout)
    return (start, time.perf_counter()), proc.returncode, proc.stdout


def run_cli(args: list[str], cwd: Path, spans: Path | None = None):
    if spans is None:
        argv = [sys.executable, "-m", "endecascan.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
    return run_child(argv, cwd)


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """(label, value) of the highest listed percentile with at least ten
    values beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for q in PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"p{q:g}", ordered[rank - 1]
    return "max", ordered[-1]


@dataclass
class Round:
    traced: bool
    verses: int
    # item -> (start, end) in time.perf_counter() seconds
    intervals: dict = field(default_factory=dict)
    spans: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals.values())


def cli_round(items, traced: bool, verses: int, cwd: Path, spans_dir: Path):
    """One round of CLI processes, one per (key, arguments) item; returns
    the round and each item's (key, exit code, stdout)."""
    result = Round(traced, verses)
    outputs = []
    for key, args in items:
        spans = spans_dir / f"{key}.spans.tsv" if traced else None
        if spans:
            result.spans.append(spans)
        result.intervals[key], code, stdout = run_cli(args, cwd, spans)
        outputs.append((key, code, stdout))
    return result, outputs


def repeat_rounds(run_round, seconds: float, trace: bool) -> list[Round]:
    rounds: list[Round] = []
    spent = 0.0
    while not rounds or spent < seconds:
        for traced in ((False, True) if trace else (False,)):
            rounds.append(run_round(traced, len(rounds)))
            spent += rounds[-1].wall_s
    return rounds


class ComedyBatch:
    name = "comedy-batch"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inputs = workloads.make_comedy(seed, work / "inputs")
        self.runs: list[tuple[str, int, str, Path]] = []

    def manifest(self) -> dict:
        i = self.inputs
        return {"verses": i.verses, "distinct_verses": i.distinct_verses,
                "distinct_word_keys": i.distinct_word_keys,
                "query_word": i.query_word}

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        corpus = str(self.inputs.corpus)
        return [("corpus", ["corpus", "--in", corpus, "--out", str(out),
                            "--amendments", str(self.inputs.amendments)]),
                ("stats", ["stats", "--in", corpus]),
                ("query", ["query", "--word", self.inputs.query_word, "--in", corpus])]

    def warm_up(self) -> None:
        canto = str(workloads.DATA / "inferno_i.txt")
        for args in (["corpus", "--in", canto, "--out", str(self.work / "warm-up")],
                     ["stats", "--in", canto],
                     ["query", "--word", "selva", "--in", canto]):
            run_cli(args, self.work)

    def measure(self, seconds: float, trace: bool) -> list[Round]:
        def run_round(traced: bool, index: int) -> Round:
            out = self.work / f"round-{index}"
            out.mkdir()
            result, outputs = cli_round(self.commands(out), traced,
                                        self.inputs.verses, self.work, out)
            self.runs.extend((*output, out) for output in outputs)
            return result

        return repeat_rounds(run_round, seconds, trace)

    def check(self, tally: checks.Tally) -> None:
        golden, waivers = workloads.golden_lines(), workloads.golden_waivers()
        verses = self.inputs.verses
        for label, code, stdout, out in self.runs:
            if label == "corpus":
                checks.check_corpus_stdout(tally, code, stdout, verses)
                syl = out / "comedy.syl.txt"
                text = syl.read_text("utf-8") if syl.exists() else ""
                checks.check_syl(tally, text, golden, waivers)
            elif label == "stats":
                checks.check_stats(tally, code, stdout, verses)
            else:
                checks.check_query(tally, code, stdout, self.inputs.query_word,
                                   golden, waivers)


class CliScan:
    name = "cli-scan"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.sample = workloads.make_cli_sample(seed)
        self.verses = workloads.canto_verses()
        self.runs: list[tuple[int, int, str]] = []

    def manifest(self) -> dict:
        golden = workloads.golden_lines()
        keys = {k for i in self.sample for k, _ in workloads.golden_words(golden[i])}
        return {"verses": len(self.sample),
                "distinct_verses": len({self.verses[i] for i in self.sample}),
                "distinct_word_keys": len(keys)}

    def warm_up(self) -> None:
        run_cli(["scan", self.verses[0]], self.work)

    def measure(self, seconds: float, trace: bool) -> list[Round]:
        def run_round(traced: bool, index: int) -> Round:
            out = self.work / f"round-{index}"
            out.mkdir()
            result, outputs = cli_round(
                [(i, ["scan", self.verses[i]]) for i in self.sample], traced,
                len(self.sample), self.work, out)
            self.runs.extend(outputs)
            return result

        return repeat_rounds(run_round, seconds, trace)

    def check(self, tally: checks.Tally) -> None:
        golden = workloads.golden_lines()
        for i, code, stdout in self.runs:
            checks.check_scan_line(tally, code, stdout, golden[i])


class ForkStorm:
    name = "fork-storm"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.lines = workloads.make_fork_storm(seed)
        work.mkdir(parents=True, exist_ok=True)
        self.lines_file = work / "lines.txt"
        self.lines_file.write_text("\n".join(self.lines) + "\n", "utf-8")

    def manifest(self) -> dict:
        return {"verses": len(self.lines), "distinct_verses": len(set(self.lines)),
                "distinct_word_keys": len({w for l in self.lines for w in l.split()})}

    def _child(self, lines: Path, seconds: float, trace: bool, out: Path):
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(HERE / "forkstorm.py"), str(lines),
                str(seconds), "1" if trace else "0", str(out)]
        _, code, _ = run_child(argv, self.work, FORK_STORM_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"fork-storm child exited with {code}")

    def warm_up(self) -> None:
        head = self.work / "warm-up-lines.txt"
        head.write_text("\n".join(self.lines[:5]) + "\n", "utf-8")
        self._child(head, 0, False, self.work / "warm-up")

    def measure(self, seconds: float, trace: bool) -> list[Round]:
        out = self.work / "timed"
        self._child(self.lines_file, seconds, trace, out)
        data = json.loads((out / "result.json").read_text("utf-8"))
        spans = [out / "spans.tsv"] if trace else []
        return [Round(r["traced"], len(self.lines),
                      {i: tuple(at) for i, at in enumerate(r["line_at"])},
                      spans if r["traced"] else [])
                for r in data["rounds"]]

    def check(self, tally: checks.Tally) -> None:
        outputs = (self.work / "timed" / "outputs.txt").read_text("utf-8")
        checks.check_fork_storm(tally, self.lines, outputs, self.seed)


WORKLOADS = {w.name: w for w in (ComedyBatch, CliScan, ForkStorm)}


def setup_runs() -> list[tuple[float, float]]:
    """(start, end) of SETUP_RUNS set-ups."""
    return [run_child([sys.executable, "-c", SETUP_CODE], ROOT)[0]
            for _ in range(SETUP_RUNS)]


def item_latencies(rounds: list[Round], speed: corespeed.CoreSpeed | None
                   ) -> list[float]:
    """Each item's median repetition in seconds, scaled by speed if given."""
    def seconds(start: float, end: float) -> float:
        return speed.scale(start, end) if speed else end - start

    return [statistics.median(seconds(*r.intervals[item]) for r in rounds)
            for item in rounds[0].intervals]


def end_to_end(rounds: list[Round], speed: corespeed.CoreSpeed, setup_s: float,
               peak_kb: int, tally: checks.Tally) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r.traced]
    latencies = sorted(1e3 * t for t in item_latencies(plain, speed))
    label, tail = tail_percentile(latencies)
    wall_s = sum(latencies) / 1e3
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "verses_per_s": plain[0].verses / wall_s,
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail,
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }
    raw = sorted(1e3 * t for t in item_latencies(plain, None))
    notes = {"wall_s": f"unscaled {sum(raw) / 1e3:.4f} s",
             "latency_ms_p50": f"unscaled {statistics.median(raw):.4f} ms",
             "latency_ms_tail": f"{label} of {len(latencies)} items, "
                                f"{len(plain)} rounds; unscaled "
                                f"{tail_percentile(raw)[1]:.4f} ms"}
    return values, notes


def per_layer(rounds: list[Round], speed: corespeed.CoreSpeed) -> tuple[dict, dict]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    scan_ns: list[int] = []
    final = admissible = final_max = written = spans = 0
    # one file per process; the fork-storm child's file covers all its rounds
    for path in dict.fromkeys(p for r in traced for p in r.spans):
        rows = tracing.self_times(tracing.read_spans(path))
        spans += len(rows)
        for name, duration, own, extra in rows:
            self_ns[name] += own
            calls[name] += 1
            if name == "scander.scan_verse":
                scan_ns.append(duration)
                f, a = map(int, extra.split(","))
                final += f
                admissible += a
                final_max = max(final_max, f)
            elif name == "corpus.write_outputs":
                written += int(extra)
    n = len(traced)
    values = {}
    for name in ("cli.import", "lexicon.parse_lexicon"):
        values[f"{name}.ms"] = self_ns[name] / max(calls[name], 1) / 1e6
    for name in ("tokenizer.normalize_line", "tokenizer.tokenize",
                 "scander.scan_verse", "scander.verbose_render",
                 "corpus.parse_corpus", "corpus.apply_amendments",
                 "corpus.scan_document", "corpus.render_scansion",
                 "corpus.write_outputs", "analysis.pattern_histogram",
                 "analysis.classify_word"):
        values[f"{name}.ms"] = self_ns[name] / n / 1e6
    label, tail = tail_percentile(scan_ns)
    values.update({
        "scander.scan_verse.p50_us": statistics.median(scan_ns) / 1e3,
        "scander.scan_verse.tail_us": tail / 1e3,
        "scander.final_states": final / n,
        "scander.final_states.max": final_max,
        "scander.admissible_ratio": admissible / final,
        "corpus.bytes_written": written / n,
        "trace.overhead_s": (sum(item_latencies(traced, speed))
                             - sum(item_latencies(plain, speed))),
    })
    notes = {"scander.scan_verse.tail_us": f"{label} of {len(scan_ns)} calls",
             "trace.overhead_s": f"{n} traced and {len(plain)} untraced rounds, "
                                 f"{spans} spans"}
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    header = {"workload": name, "why": workloads.WHY[name], "seed": seed,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg": os.getloadavg(), "trace": trace,
              "cpu": corespeed.pin_to_one_cpu()}
    workload = WORKLOADS[name](seed, work)
    header.update(workload.manifest())
    (work / "run.json").write_text(json.dumps(header, indent=1), "utf-8")
    for key, value in header.items():
        print(f"# {key}: {value}")

    with corespeed.CoreSpeed(work / "core-speed.txt") as speed:
        workload.warm_up()
        setup = setup_runs()
        rounds = workload.measure(seconds, trace)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup += setup_runs()
        tally = checks.Tally()
        workload.check(tally)
        setup += setup_runs()
    fast, _, slow = statistics.quantiles(speed.samples_s, n=4)
    print(f"# core speed: {len(speed.times)} samples of {1e3 * corespeed.REF_S:g} ms "
          f"at the fast speed, quartiles {1e3 * fast:.4f} and {1e3 * slow:.4f} ms")

    if trace:
        values, notes = per_layer(rounds, speed)
        declared = spec["per_layer"]
    else:
        setup_s = statistics.median(speed.scale(*at) for at in setup)
        values, notes = end_to_end(rounds, speed, setup_s, peak_kb, tally)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    for metric, value in values.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:30s} {value:14.6f} {units[metric]}{note}")
    print(f"# fail_ratio: {tally.failed / tally.attempted:.6f} ratio "
          f"({tally.failed} of {tally.attempted} outputs wrong or raised)")
    for error in tally.errors:
        print(f"# wrong output: {error}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"perfbench: source tree incomplete, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload == "all":
        # one process per workload, so peak RSS covers only that workload
        for name in WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds",
                                   str(args.seconds), "--trace", str(args.trace)],
                                  cwd=ROOT).returncode
            if code != 0:
                return code
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
