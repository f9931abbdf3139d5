"""Benchmark of the cuberamsey command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs the workload's cuberamsey commands one at a
time, each started after the previous one has exited, in passes, for about
S seconds, and checks every output.  With --trace 1 each untraced pass is
followed by a traced pass of the same commands (perfbench/traced.py), which
gives the per-layer metrics.  The last line of standard output is a JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Run it from the root of a checkout; the program is taken from src/.  Why
each workload exists and what each metric should move: README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES_PER_PASS = 6  # spread over the pass: the machine's speed drifts
MIN_PASSES = 3  # untraced; each command's time is the fastest of its passes
SCAN_FILES = 4
MB = float(1 << 20)
NOT_MEASURED = "  not measured (fewer than 2 cores)"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("lattice.self_s", "s"), ("lattice.tables_s", "s"), ("lattice.table_mb", "MB"),
    ("coloring.self_s", "s"), ("coloring.make_c0_s", "s"), ("coloring.render_s", "s"),
    ("coloring.parse_s", "s"), ("coloring.parse_mb_per_s", "MB/s"),
    ("properties.self_s", "s"), ("properties.restrictive_s", "s"),
    ("properties.checked", "count"),
    ("search.self_s", "s"), ("search.red_s", "s"), ("search.blue_s", "s"),
    ("search.red_t1_s", "s"), ("search.red_t2_s", "s"),
    ("search.blue_t1_s", "s"), ("search.blue_t2_s", "s"),
    ("search.nodes", "count"), ("search.red_nodes", "count"), ("search.blue_nodes", "count"),
    ("search.window_rejects", "count"), ("search.red_window_rejects", "count"),
    ("search.blue_window_rejects", "count"), ("search.root_gap_rejects", "count"),
    ("search.top_children_hits", "count"), ("search.accept_ratio", "ratio"),
    ("search.nodes_per_s_t1", "1/s"), ("search.nodes_per_s_t2", "1/s"),
    ("search.parallel_eff", "ratio"), ("search.pool_overhead_s", "s"),
    ("search.verify_embedding_s", "s"), ("search.found", "count"),
    ("search.absent", "count"),
    ("bruteforce.self_s", "s"), ("bruteforce.ramsey_s", "s"),
    ("bruteforce.colorings_checked", "count"),
    ("flipgraph.self_s", "s"), ("flipgraph.build_s", "s"), ("flipgraph.bipartition_s", "s"),
    ("flipgraph.export_s", "s"), ("flipgraph.edges", "count"),
    ("reports.self_s", "s"), ("reports.render_s", "s"), ("reports.parse_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Step:
    """One command of a pass.  ``check`` gets the parsed report fields and
    blocks and returns the failed output checks."""

    label: str
    args: list[str]
    exit_code: int
    check: object


@dataclass
class Workload:
    steps: list[Step]
    inputs: list[bytes] = field(default_factory=list)
    # (threads-1 label, threads-2 label): same search, byte-identical report
    twins: list[tuple[str, str]] = field(default_factory=list)
    # twin whose thread-count difference is pool start-up, not search work
    pool_probe: tuple[str, str] | None = None
    # run the steps in reverse order on odd passes (no data dependencies)
    alternate: bool = False


@dataclass
class Record:
    label: str
    wall: float
    rss_mb: float
    text: str
    failures: list[str]
    spans: list[dict]


def expect(fields: dict[str, str], **want: str) -> list[str]:
    return [
        f"{key}: {fields.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if fields.get(key) != value
    ]


def certify_n4(work: Path, seed: int, cores: int) -> Workload:
    """The n = 4 certificate at one and two threads; reads no file."""
    def check(fields, blocks):
        return expect(fields, verdict="verified", red="absent", blue="absent")

    threads = (1, 2) if cores >= 2 else (1,)
    steps = [
        Step(f"t{t}", ["verify-lower-bound", "--n", "4", "--threads", str(t)], 0, check)
        for t in threads
    ]
    twins = [("t1", "t2")] if cores >= 2 else []
    return Workload(steps, twins=twins, alternate=True)


def scan_perturbed_n4(work: Path, seed: int, cores: int) -> Workload:
    """Seeded c0 n = 4 copies with a planted copy each, searched with two
    workers and rechecked, plus the layered m = 5 family at n = 3.  With
    fewer than 2 cores the searches use one worker, so that the pool is not
    measured oversubscribed."""
    threads = (1, 2) if cores >= 2 else (1,)
    steps, files = [], []
    for i in range(SCAN_FILES):
        red, kind, expected = inputs.perturbed_c0_n4(seed, i)
        data = inputs.render_qrc1(red, f"c0 n=4 {kind} seed={seed} file={i}")
        (work / f"scan{i}.qrc1").write_bytes(data)
        files.append(data)

        def check_find(fields, blocks, red=red, expected=expected):
            failures = expect(fields, **expected)
            for color, member in (("red", red), ("blue", ~red)):
                if expected[color] == "found":
                    lines = blocks.get(f"{color}_embedding", [])
                    problem = inputs.check_witness(lines, 4, 8, member)
                    if problem:
                        failures.append(f"{color} witness: {problem}")
            return failures

        steps.append(Step(
            f"find{i}",
            ["find-copy", "--n", "4", "--coloring", f"scan{i}.qrc1",
             "--threads", str(threads[-1]), "--out", f"scan{i}.report"],
            2, check_find,
        ))
        steps.append(Step(
            f"recheck{i}", ["recheck", f"scan{i}.report", "--coloring", f"scan{i}.qrc1"],
            0, lambda fields, blocks: expect(fields, verdict="certificates-valid"),
        ))
    data = inputs.render_qrc1(inputs.layered_red(5), "layered")
    (work / "layered5.qrc1").write_bytes(data)
    files.append(data)
    for t in threads:
        steps.append(Step(
            f"layered-t{t}",
            ["find-copy", "--n", "3", "--coloring", "layered5.qrc1", "--threads", str(t)],
            0, lambda fields, blocks: expect(fields, red="absent", blue="absent"),
        ))
    if len(threads) == 1:
        return Workload(steps, inputs=files)
    probe = ("layered-t1", "layered-t2")
    return Workload(steps, inputs=files, twins=[probe], pool_probe=probe)


def tables_n12(work: Path, seed: int, cores: int) -> Workload:
    """2^24-entry tables: c0 n = 12 render and check, the n = 16 flip graph
    and the brute-force oracle.  No search."""
    c0_text = inputs.render_qrc1(inputs.c0_red(12), "c0 n=12")
    edges_text = inputs.flip_graph_edges_text(16)
    c0_digest, edges_digest = inputs.digest([c0_text]), inputs.digest([edges_text])

    def same_file(name, want):
        path = work / name
        got = inputs.digest([path.read_bytes()]) if path.exists() else "missing"
        return [] if got == want else [f"{name} differs from the independent build"]

    steps = [
        Step("color", ["color", "--n", "12", "--scheme", "c0", "--out", "c0n12.qrc1"], 0,
             lambda fields, blocks: same_file("c0n12.qrc1", c0_digest)),
        Step("check", ["check", "--n", "12", "--coloring", "c0n12.qrc1"], 0,
             lambda fields, blocks: expect(fields, verdict="restrictive")),
        Step("flip-graph", ["flip-graph", "--n", "16", "--edges", "edges16.txt"], 0,
             lambda fields, blocks: expect(fields, matches_parity="yes", edges="524288")
             + same_file("edges16.txt", edges_digest)),
        Step("brute-ramsey", ["brute-ramsey", "--n", "2", "--max-m", "4"], 0,
             lambda fields, blocks: expect(fields, value="4")),
    ]
    return Workload(steps, inputs=[c0_text, edges_text])


WORKLOADS = {
    "certify-n4": certify_n4,
    "scan-perturbed-n4": scan_perturbed_n4,
    "tables-n12": tables_n12,
}


class Runner:
    """Starts one command at a time and waits for it to exit."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def run(self, args: list[str], spans_path: Path | None = None, run_id: str = ""
            ) -> tuple[int, float, float, str, str]:
        """(exit code, wall s, max RSS MB including waited-for children,
        stdout, stderr)."""
        if spans_path is None:
            argv = [sys.executable, "-m", "cuberamsey", *args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), run_id, *args]
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out.read_text(errors="replace"), err.read_text(errors="replace"))


SETUP = Step(
    "setup", ["--version"], 0,
    lambda fields, blocks: [] if any(k.startswith("cuberamsey ") for k in blocks)
    else ["--version printed no version"],
)


def run_pass(wl: Workload, runner: Runner, number: int, traced: bool) -> list[Record]:
    """One pass of the workload's commands; an untraced pass also takes the
    set-up samples, interleaved with the commands."""
    steps = wl.steps[::-1] if wl.alternate and number % 2 else wl.steps
    if not traced:
        k, n = SETUP_SAMPLES_PER_PASS, len(steps)
        steps = [s for i, step in enumerate(steps)
                 for s in [SETUP] * ((i + 1) * k // n - i * k // n) + [step]]
    spans_path = runner.work / "spans.json" if traced else None
    return [run_step(step, runner, spans_path, f"{number}:{step.label}") for step in steps]


def run_step(step: Step, runner: Runner, spans_path: Path | None = None, run_id: str = ""
             ) -> Record:
    code, wall, rss, text, err = runner.run(step.args, spans_path, run_id)
    failures = []
    if code != step.exit_code:
        detail = err.strip().splitlines()[-1:] or [""]
        failures.append(f"exit {code}, expected {step.exit_code} {detail[0]}".rstrip())
    fields, blocks = inputs.parse_report(text)
    failures += step.check(fields, blocks)
    spans = []
    if spans_path is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Record(step.label, wall, rss, text, failures, spans)


def cross_check(wl: Workload, passes: list[list[Record]]) -> None:
    """Reports must repeat byte for byte (the program's volatile lines
    aside) across passes and between the thread counts of a twin."""
    from cuberamsey.reports import stable_lines

    first: dict[str, list[str]] = {}
    for records in passes:
        for rec in records:
            lines = stable_lines(rec.text)
            if first.setdefault(rec.label, lines) != lines:
                rec.failures.append("report differs from the first pass")
    for a, b in wl.twins:
        if first.get(a) != first.get(b):
            rec = next(r for r in passes[0] if r.label == b)
            rec.failures.append(f"reports of {a} and {b} differ")


def report_counters(records: list[Record]) -> dict[str, float]:
    """Work counters parsed from the report lines of one pass."""
    c: dict[str, float] = defaultdict(float)
    for rec in records:
        fields, _ = inputs.parse_report(rec.text)
        if fields.get("command") == "recheck":
            continue
        for color in ("red", "blue"):
            status = fields.get(color)
            if status in ("found", "absent"):
                c[f"search.{status}"] += 1
            c[f"search.{color}_nodes"] += int(fields.get(f"{color}_nodes", 0))
            c[f"search.{color}_window_rejects"] += int(
                fields.get(f"{color}_prune_cardinality-window", 0))
        for key, value in fields.items():
            prefix, sep, prune = key.partition("_prune_")
            if sep and prefix in ("red", "blue"):
                c[f"search.prune.{prune}"] += int(value)
    c["search.nodes"] = c["search.red_nodes"] + c["search.blue_nodes"]
    c["search.window_rejects"] = c["search.red_window_rejects"] + c["search.blue_window_rejects"]
    c["search.root_gap_rejects"] = c["search.prune.root-gap"]
    c["search.top_children_hits"] = c["search.prune.top-children"]
    tried = c["search.nodes"] + c["search.window_rejects"]
    c["search.accept_ratio"] = c["search.nodes"] / tried if tried else 0.0
    return c


def self_times(spans: list[dict]) -> None:
    """Add each span's self time: its duration less its children's."""
    inner: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"]:
            inner[(s["run"], s["parent"])] += s["end"] - s["start"]
    for s in spans:
        s["self"] = s["end"] - s["start"] - inner[(s["run"], s["id"])]


def layer_metrics(wl: Workload, records: list[Record]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m: dict[str, float] = defaultdict(float)
    by_label: dict[str, float] = defaultdict(float)  # search time per command
    for rec in records:
        self_times(rec.spans)
        layered = 0.0
        searches = 0
        for s in sorted(rec.spans, key=lambda s: s["start"]):
            layer, _, op = s["name"].partition(".")
            if layer == "cli":
                continue  # cli time is what the other layers leave of the wall time
            m[f"{layer}.self_s"] += s["self"]
            layered += s["self"]
            if s["name"] == "lattice.table" and "bytes" in s:
                m["lattice.tables_s"] += s["self"]
                m["lattice.table_mb"] += s["bytes"] / MB
            elif layer == "coloring" and op in ("make_c0", "render", "parse"):
                m[f"coloring.{op}_s"] += s["self"]
                m["coloring.parse_bytes"] += s.get("bytes", 0)
            elif s["name"] == "properties.restrictive":
                m["properties.restrictive_s"] += s["self"]
                m["properties.checked"] += s["checked"]
            elif s["name"] == "search.find_copy":
                # cli searches Red, then Blue, and skips Blue after a find
                color = ("red", "blue")[searches % 2]
                searches += 1
                t = s["workers"]
                m[f"search.{color}_s"] += s["self"]
                m[f"search.{color}_t{t}_s"] += s["self"]
                m[f"search.time_t{t}"] += s["self"]
                m[f"search.traced_nodes_t{t}"] += s["nodes"]
                by_label[rec.label] += s["self"]
            elif s["name"] == "search.verify_embedding":
                m["search.verify_embedding_s"] += s["self"]
            elif s["name"] == "bruteforce.ramsey":
                m["bruteforce.ramsey_s"] += s["self"]
                m["bruteforce.colorings_checked"] += s["checked"]
            elif layer == "flipgraph":
                m[f"flipgraph.{op}_s"] += s["self"]
                m["flipgraph.edges"] += s.get("edges", 0)
            elif layer == "reports":
                m[f"reports.{op}_s"] += s["self"]
        imports = [s["end"] - s["start"] for s in rec.spans if s["name"] == "cli.import"]
        m["cli.import_total"] += sum(imports)
        m["cli.self_s"] += rec.wall - layered - sum(imports)
    m["cli.import_s"] = m["cli.import_total"] / max(1, len(records))
    if m["coloring.parse_s"]:
        m["coloring.parse_mb_per_s"] = m["coloring.parse_bytes"] / MB / m["coloring.parse_s"]
    for t in (1, 2):
        if m[f"search.time_t{t}"]:
            m[f"search.nodes_per_s_t{t}"] = m[f"search.traced_nodes_t{t}"] / m[f"search.time_t{t}"]
    t1 = sum(by_label[a] for a, b in wl.twins)
    t2 = sum(by_label[b] for a, b in wl.twins)
    if t1 and t2:
        m["search.parallel_eff"] = t1 / (2.0 * t2)
    if wl.pool_probe:
        a, b = wl.pool_probe
        m["search.pool_overhead_s"] = by_label[b] - by_label[a]
    m.update(report_counters(records))
    return m


def label_fastest(passes: list[list[Record]]) -> dict[str, float]:
    """Each command's fastest wall time over the passes.  The machine's
    speed drifts over seconds and minutes, and the fastest pass follows the
    program's own cost more closely than the median does."""
    walls: dict[str, list[float]] = defaultdict(list)
    for records in passes:
        for rec in records:
            walls[rec.label].append(rec.wall)
    return {label: min(v) for label, v in walls.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "cuberamsey" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cuberamsey'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cores = len(os.sched_getaffinity(0))
    wl = WORKLOADS[args.workload](work, args.seed, cores)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env cores={sorted(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__}")
    print(f"inputs digest={inputs.digest(wl.inputs)} files={len(wl.inputs)}")

    runner = Runner(work, started + RUN_LIMIT_S)
    # The first import in a fresh checkout writes the bytecode cache.
    warmup = run_step(SETUP, runner)
    plain, traced = [], []
    min_passes = 1 if args.trace else MIN_PASSES
    loop_start = time.monotonic()
    while True:
        plain.append(run_pass(wl, runner, len(plain), traced=False))
        if args.trace:
            traced.append(run_pass(wl, runner, len(traced), traced=True))
        now = time.monotonic()
        per_pass = (now - loop_start) / len(plain)
        if now - started + per_pass > RUN_LIMIT_S:
            break
        if len(plain) >= min_passes and now - loop_start + per_pass / 2 > args.seconds:
            break
    cross_check(wl, plain + traced)

    records = [warmup] + [rec for records in plain + traced for rec in records]
    attempted = len(records)
    failed = sum(1 for rec in records if rec.failures)
    for rec in records:
        for problem in rec.failures:
            print(f"FAIL {rec.label}: {problem}")

    walls = label_fastest(plain)
    del walls["setup"]
    setup = [rec.wall for records in plain for rec in records if rec.label == "setup"]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls.values()),
        "peak_rss_mb": max(rec.rss_mb for records in plain for rec in records),
    }
    print(f"passes untraced={len(plain)} traced={len(traced)} setup_samples={len(setup)} "
          f"(fastest pass per command, summed over the {len(walls)} commands of a pass)")
    for label in walls:
        times = " ".join(f"{rec.wall:.3f}" for records in plain for rec in records
                         if rec.label == label)
        print(f"  wall of {label:<23} {times} s")
    for name, unit in END_TO_END:
        print(f"  {name:<32} {e2e[name]:>14.6f} {unit}")
    if args.workload == "certify-n4":
        for label in ("t1", "t2"):
            value = f"{walls[label]:>14.6f} s" if label in walls else NOT_MEASURED
            print(f"  certify_{label}_s{'':<21} {value}")
    print(f"  {'fail_ratio':<32} {failed / attempted:>14.6f} ratio ({failed}/{attempted})")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        per_pass = [layer_metrics(wl, records) for records in traced]
        layer = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
                 for name, _ in PER_LAYER}
        layer["trace.overhead_s"] = sum(label_fastest(traced).values()) - e2e["wall_s"]
        # Without a second core these would be measured oversubscribed.
        unmeasured = {"search.parallel_eff", "search.pool_overhead_s"} if cores < 2 else set()
        print(f"per-layer (median of {len(traced)} traced passes; 0 where the workload "
              "does not reach the layer)")
        for name, unit in PER_LAYER:
            value = NOT_MEASURED if name in unmeasured else f"{layer[name]:>14.6f} {unit}"
            print(f"  {name:<32} {value}")
        named = ("root-gap", "cardinality-window", "top-children")
        extra = sorted(k for k in per_pass[0]
                       if k.startswith("search.prune.") and k[13:] not in named)
        for name in extra:  # a prune added after this benchmark was written
            print(f"  {name:<32} {per_pass[0][name]:>14.0f} count")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER if name not in unmeasured}
        (work / "spans.json").write_text(json.dumps(
            [s for rec in records for s in rec.spans]))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
