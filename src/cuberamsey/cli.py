"""Command-line front end.

Exit codes are a stable contract: 0 success/absent, 1 failed check or
usage/format error (command-line errors included), 2 copy found, 3
inconclusive (budget hit).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bruteforce import ramsey_bruteforce
from .coloring import (
    Color,
    Coloring,
    dual_coloring,
    load_coloring,
    make_c0,
    make_c3,
    make_layered,
    render_coloring,
    save_coloring,
)
from .flipgraph import build_flip_graph, check_bipartition, export_edges
from .lattice import CapacityError
from .properties import is_restrictive
from .reports import (
    parse_report,
    parse_embedding_block,
    render_embedding_block,
    render_report,
    render_set_pair,
)
from .search import MAX_SOURCE_N, SearchOutcome, find_copy, verify_embedding

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_FOUND = 2
EXIT_INCONCLUSIVE = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Command-line errors exit EXIT_FAIL: argparse's own code 2 would read
    as "copy found"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    """The CPUs this process may run on; the machine's count only where
    the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(threads: int) -> int:
    """The worker count for --threads: at least 1, at most the CPUs this
    process may run on."""
    if threads < 1:
        raise UsageError(f"--threads must be at least 1, got {threads}")
    return min(threads, _default_threads())


def _check_budget(budget_ms: float | None) -> None:
    """--budget-ms is absent or a number of milliseconds, not negative."""
    if budget_ms is not None and not budget_ms >= 0:
        raise UsageError(f"--budget-ms must be a number >= 0, got {budget_ms:g}")


def _write_text(path: str, chunks) -> None:
    """Write text given as an iterable of strings, each as it comes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _finish(args, pairs, start: float, code: int, report_out: str | None = None) -> int:
    pairs.append(("version", __version__))
    pairs.append(("elapsed_ms", f"{(time.perf_counter() - start) * 1000.0:.1f}"))
    text = render_report(pairs)
    if report_out:
        _write_text(report_out, (text,))
    if not args.quiet:
        sys.stdout.write(text)
    return code


def _load(args) -> Coloring:
    if not args.coloring:
        raise UsageError("--coloring is required")
    return load_coloring(args.coloring)


def _restrictive_pairs(prefix: str, coloring: Coloring, n: int) -> tuple[list, bool]:
    report = is_restrictive(coloring.color_class(Color.RED), n)
    pairs = []
    for sub in report.subreports:
        if sub.holds:
            value = f"holds checked={sub.checked_count}"
        else:
            value = (
                f"fails witness={render_set_pair(sub.witness)}"
                f" checked={sub.checked_count}"
            )
        pairs.append((f"{prefix}_{sub.name}", value))
    pairs.append((f"{prefix}_restrictive", "holds" if report.holds else "fails"))
    return pairs, report.holds


def _restrictive_block(coloring: Coloring, n: int) -> tuple[list, bool]:
    """The checks of Red and of Red in the dual coloring; both must hold."""
    red_pairs, red_ok = _restrictive_pairs("red", coloring, n)
    dual_pairs, dual_ok = _restrictive_pairs("dual-red", dual_coloring(coloring), n)
    return red_pairs + dual_pairs, red_ok and dual_ok


def _outcome_pairs(prefix: str, outcome: SearchOutcome) -> list:
    pairs = [(prefix, outcome.status)]
    if outcome.status == "found":
        pairs.append((f"{prefix}_embedding", render_embedding_block(outcome.embedding)))
    elif outcome.status == "absent":
        pairs.append((f"{prefix}_nodes", str(outcome.nodes_explored)))
        for name, hits in outcome.prune_hits.items():
            pairs.append((f"{prefix}_prune_{name}", str(hits)))
    return pairs


def cmd_color(args) -> int:
    start = time.perf_counter()
    n = args.n
    if args.scheme == "layered":
        coloring = make_layered(args.m if args.m is not None else 2 * n - 1)
    else:
        if args.m is not None and args.m != 2 * n:
            raise UsageError(f"scheme {args.scheme} needs m = {2 * n}, got --m {args.m}")
        if args.scheme == "c3" and n != 3:
            raise UsageError(f"scheme c3 is a coloring for n = 3, got --n {n}")
        coloring = make_c0(n) if args.scheme == "c0" else make_c3()
    if not args.out:
        if not args.quiet:
            sys.stdout.write(render_coloring(coloring))
        return EXIT_OK
    save_coloring(coloring, args.out)
    pairs = [
        ("command", "color"),
        ("n", str(n)),
        ("m", str(coloring.space.m)),
        ("scheme", coloring.scheme),
        ("entries", str(coloring.space.size)),
        ("out", args.out),
    ]
    return _finish(args, pairs, start, EXIT_OK, report_out=None)


def cmd_check(args) -> int:
    start = time.perf_counter()
    n = args.n
    coloring = _load(args)
    if coloring.space.m != 2 * n:
        raise UsageError(
            f"checking needs a coloring of [{2 * n}], file has m={coloring.space.m}"
        )
    pairs = [
        ("command", "check"),
        ("n", str(n)),
        ("m", str(coloring.space.m)),
        ("scheme", coloring.scheme),
    ]
    block, ok = _restrictive_block(coloring, n)
    pairs.extend(block)
    pairs.append(("verdict", "restrictive" if ok else "not-restrictive"))
    return _finish(args, pairs, start, EXIT_OK if ok else EXIT_FAIL, args.out)


def _run_color_searches(coloring: Coloring, n: int, colors, budget_ms, workers):
    """Search the selected classes in fixed order, skipping once found.
    The exit code is EXIT_FOUND after a find, else EXIT_INCONCLUSIVE if a
    budget ran out, else EXIT_OK."""
    pairs = []
    statuses = set()
    for color in colors:
        prefix = color.name.lower()
        if "found" in statuses:
            pairs.append((prefix, "skipped"))
            continue
        outcome = find_copy(
            coloring.color_class(color), n, "first",
            budget_ms=budget_ms, workers=workers,
        )
        pairs.extend(_outcome_pairs(prefix, outcome))
        statuses.add(outcome.status)
    if "found" in statuses:
        return pairs, EXIT_FOUND
    if "inconclusive" in statuses:
        return pairs, EXIT_INCONCLUSIVE
    return pairs, EXIT_OK


def cmd_find_copy(args) -> int:
    start = time.perf_counter()
    workers = _workers(args.threads)
    _check_budget(args.budget_ms)
    coloring = _load(args)
    colors = {
        "red": (Color.RED,),
        "blue": (Color.BLUE,),
        "both": (Color.RED, Color.BLUE),
    }[args.color]
    pairs = [
        ("command", "find-copy"),
        ("n", str(args.n)),
        ("m", str(coloring.space.m)),
        ("scheme", coloring.scheme),
        ("color", args.color),
        ("budget_ms", "none" if args.budget_ms is None else f"{args.budget_ms:g}"),
    ]
    search_pairs, code = _run_color_searches(
        coloring, args.n, colors, args.budget_ms, workers
    )
    pairs.extend(search_pairs)
    return _finish(args, pairs, start, code, args.out)


def cmd_verify_lower_bound(args) -> int:
    """Search both classes of the built-in coloring of [2n]: c3 at n = 3
    (route search-only), c0 from n = 4 on (route construction, which also
    checks that c0 is restrictive).  Verdicts, first match wins:
    copy-found, inconclusive, not-restrictive, verified."""
    start = time.perf_counter()
    n = args.n
    if n < 3:
        raise UsageError("the lower bound statement starts at n = 3")
    if n > MAX_SOURCE_N:
        raise UsageError(f"source cube parameter {n} outside 1..{MAX_SOURCE_N}")
    workers = _workers(args.threads)
    _check_budget(args.budget_ms)
    coloring = make_c3() if n == 3 else make_c0(n)
    pairs = [
        ("command", "verify-lower-bound"),
        ("n", str(n)),
        ("m", str(2 * n)),
        ("scheme", coloring.scheme),
        ("route", "search-only" if n == 3 else "construction"),
    ]
    restrictive = True
    if n > 3:
        block, restrictive = _restrictive_block(coloring, n)
        pairs.extend(block)
    search_pairs, code = _run_color_searches(
        coloring, n, (Color.RED, Color.BLUE), args.budget_ms, workers
    )
    pairs.extend(search_pairs)
    if code == EXIT_FOUND:
        pairs.append(("verdict", "copy-found"))
    elif code == EXIT_INCONCLUSIVE:
        pairs.append(("verdict", "inconclusive"))
    elif not restrictive:
        pairs.append(("verdict", "not-restrictive"))
        code = EXIT_FAIL
    else:
        pairs.append(("verdict", "verified"))
        pairs.append(("bound", f"R(Q{n},Q{n}) >= {2 * n + 1}"))
    return _finish(args, pairs, start, code, args.out)


def cmd_brute_ramsey(args) -> int:
    start = time.perf_counter()
    scan = ramsey_bruteforce(args.n, args.max_m)
    pairs = [
        ("command", "brute-ramsey"),
        ("n", str(args.n)),
        ("max_m", str(args.max_m)),
    ]
    for res in scan.results:
        if res.good_coloring is None:
            value = f"none checked={res.colorings_checked}"
        else:
            index = res.good_coloring.scheme.rpartition("-")[2]
            value = f"good index={index} checked={res.colorings_checked}"
        pairs.append((f"m={res.m}", value))
    pairs.append(("value", str(scan.value) if scan.value is not None else "unresolved"))
    return _finish(args, pairs, start, EXIT_OK, args.out)


def cmd_flip_graph(args) -> int:
    start = time.perf_counter()
    graph = build_flip_graph(args.n)
    report = check_bipartition(graph)
    if args.edges:
        _write_text(args.edges, export_edges(graph))
    ok = report.bipartite and report.connected and report.matches_parity
    pairs = [
        ("command", "flip-graph"),
        ("n", str(args.n)),
        ("vertices", str(len(graph.vertices))),
        ("edges", str(len(graph.edges))),
        ("bipartite", "yes" if report.bipartite else "no"),
        ("connected", "yes" if report.connected else "no"),
        ("odd_class", str(report.odd_class_size)),
        ("even_class", str(report.even_class_size)),
        ("matches_parity", "yes" if report.matches_parity else "no"),
    ]
    return _finish(args, pairs, start, EXIT_OK if ok else EXIT_FAIL, args.out)


def cmd_recheck(args) -> int:
    start = time.perf_counter()
    text = Path(args.report).read_text(encoding="utf-8")
    fields, blocks = parse_report(text)
    coloring = _load(args)
    if "n" not in fields or "m" not in fields:
        raise UsageError("report lacks n and m fields")
    n = int(fields["n"])
    if not 1 <= n <= MAX_SOURCE_N:
        raise UsageError(f"report says n={n}, outside 1..{MAX_SOURCE_N}")
    m = int(fields["m"])
    if coloring.space.m != m:
        raise UsageError(f"report says m={m} but coloring file has m={coloring.space.m}")
    certificates = {
        key: lines for key, lines in blocks.items() if key.endswith("_embedding")
    }
    if not certificates:
        raise UsageError("report contains no embedding certificate")
    pairs = [
        ("command", "recheck"),
        ("n", fields["n"]),
        ("m", fields["m"]),
    ]
    all_ok = True
    for key in sorted(certificates):
        prefix = key[: -len("_embedding")]
        color = {"red": Color.RED, "blue": Color.BLUE}.get(prefix)
        if color is None:
            raise UsageError(f"unknown certificate block {key!r}")
        embedding = parse_embedding_block(certificates[key], n, m)
        check = verify_embedding(embedding, coloring.color_class(color))
        if check.ok:
            pairs.append((f"{prefix}_certificate", "valid"))
        else:
            pairs.append((f"{prefix}_certificate", f"invalid ({check.violation})"))
            all_ok = False
    pairs.append(("verdict", "certificates-valid" if all_ok else "certificates-invalid"))
    return _finish(args, pairs, start, EXIT_OK if all_ok else EXIT_FAIL, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuberamsey",
        description="Colorings of subset cubes, structural property checks, "
        "and exhaustive searches for monochromatic subcube copies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--quiet", action="store_true", help="emit only the exit status")
        sub.add_argument("--out", help="also write the output to this path")
        return sub

    sub = add("color", cmd_color, "generate a coloring file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--scheme", choices=("c0", "c3", "layered"), required=True)
    sub.add_argument("--m", type=int, help="ground size override (layered only)")

    sub = add("check", cmd_check, "check the four structural properties")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--coloring", required=True)

    sub = add("find-copy", cmd_find_copy, "search color classes for a subcube copy")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--color", choices=("red", "blue", "both"), default="both")
    sub.add_argument("--budget-ms", type=float)
    sub.add_argument("--threads", type=int, default=_default_threads())

    sub = add("verify-lower-bound", cmd_verify_lower_bound,
              "certify one lower-bound instance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--budget-ms", type=float)
    sub.add_argument("--threads", type=int, default=_default_threads())

    sub = add("brute-ramsey", cmd_brute_ramsey, "exhaust tiny cubes for the exact value")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--max-m", type=int, required=True)

    sub = add("flip-graph", cmd_flip_graph, "build and diagnose the flip graph")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--edges", help="write the edge list to this path")

    sub = add("recheck", cmd_recheck, "re-verify embedding certificates in a report")
    sub.add_argument("report", help="report file produced by find-copy")
    sub.add_argument("--coloring", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def app() -> None:
    sys.exit(main())
