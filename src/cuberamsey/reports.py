"""Deterministic plain-text reports: ordered "key: value" lines, with
indented continuation blocks for embedding listings.

Given identical inputs and flags, a report is byte-identical across runs
and across worker counts except for the ``version`` and ``elapsed_ms``
lines, which comparisons should filter out (see ``stable_lines``).
"""

from __future__ import annotations

from .lattice import ElementSet, parse_set
from .search import Embedding

VOLATILE_KEYS = ("version", "elapsed_ms")


def render_report(pairs: list[tuple[str, str | list[str]]]) -> str:
    """A list value renders as "key:" followed by two-space-indented
    lines."""
    out = []
    for key, value in pairs:
        if isinstance(value, list):
            out.append(f"{key}:")
            out.extend(f"  {line}" for line in value)
        else:
            out.append(f"{key}: {value}")
    return "\n".join(out) + "\n"


def parse_report(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Inverse of render_report: scalar fields and indented blocks.
    Repeated keys keep the first occurrence; a repeated block's lines are
    dropped."""
    fields: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            current = None
            continue
        if line.startswith("  "):
            if current is None:
                raise ValueError(f"line {lineno}: continuation without a block header")
            current.append(line[2:])
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if value:
            fields.setdefault(key, value)
            current = None
        elif key in blocks:
            current = []
        else:
            current = blocks[key] = []
    return fields, blocks


def stable_lines(text: str) -> list[str]:
    """Report lines with the run-to-run volatile fields removed; the
    byte-identity contract quantifies over these."""
    return [
        line
        for line in text.splitlines()
        if line.partition(":")[0] not in VOLATILE_KEYS
    ]


def render_embedding_block(e: Embedding) -> list[str]:
    """One line per source subset, ascending encoded value."""
    return [f"{ElementSet(i, e.n)} -> {ElementSet(v, e.m)}" for i, v in enumerate(e.images)]


def parse_embedding_block(lines: list[str], n: int, m: int) -> Embedding:
    if len(lines) != 1 << n:
        raise ValueError(f"expected {1 << n} embedding lines, got {len(lines)}")
    values = [0] * (1 << n)
    seen = [False] * (1 << n)
    for line in lines:
        left, sep, right = line.partition("->")
        if not sep:
            raise ValueError(f"embedding line without '->': {line!r}")
        source = parse_set(left.strip(), n)
        image = parse_set(right.strip(), m)
        if seen[source.bits]:
            raise ValueError(f"duplicate source {source} in embedding block")
        seen[source.bits] = True
        values[source.bits] = image.bits
    return Embedding(n, m, tuple(values))


def render_set_pair(witness) -> str:
    if isinstance(witness, tuple):
        return f"({witness[0]},{witness[1]})"
    return str(witness)
