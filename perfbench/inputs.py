"""Deterministic benchmark inputs and output checks that do not use the program.

The c0 coloring is built here straight from its band table (README of the
project), not through ``cuberamsey.make_c0``, so generating the inputs also
cross-checks the program.  The witness checker re-derives the copy property
from the report text alone.

Perturbed colorings carry a planted monochromatic copy of 2^[n], so their
expected search outcome is known for every seed without running a search:

* ``found``: only Blue->Red flips, which plant a Red copy on the subsets of a
  random 4-set inside [6].  Red holds a copy, so Red is found and Blue is
  skipped.
* ``absent-then-found``: only Red->Blue flips, which plant a Blue copy
  ``{8, a} | S`` for the subsets S of the two pairs of [6] that miss ``a``.
  Red is then a subfamily of the c0 Red class, which has no copy for n = 4,
  so Red is absent and Blue is found.

Both plants sit in the same region of the search order for every seed, so
the search work of a file changes little from seed to seed.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

QRC1_WRAP = 64


def c0_red(n: int) -> np.ndarray:
    """Red/Blue table of the c0 scheme on [2n], index = encoded subset.

    Band table, with k = |S|:
      k < ceil(n/2)               red
      ceil(n/2) <= k < n          red iff S contains a complete pair
      k = n                       red iff the element sum of S is odd
      n < k <= n + floor(n/2)     red iff S misses no pair
      k > n + floor(n/2)          blue
    """
    m = 2 * n
    idx = np.arange(1 << m, dtype=np.uint32)
    size = np.zeros(idx.shape, dtype=np.uint8)
    pairs = np.zeros(idx.shape, dtype=np.uint8)
    missed = np.zeros(idx.shape, dtype=np.uint8)
    odd = np.zeros(idx.shape, dtype=np.uint8)
    for i in range(n):
        # Pair i+1 is {2i+1, 2i+2} at bits 2i and 2i+1; 2i+1 is the odd element.
        lo = ((idx >> np.uint32(2 * i)) & np.uint32(1)).astype(np.uint8)
        hi = ((idx >> np.uint32(2 * i + 1)) & np.uint32(1)).astype(np.uint8)
        size += lo + hi
        pairs += lo & hi
        missed += 1 - (lo | hi)
        odd ^= lo
    low = (n + 1) // 2
    red = size < low
    red |= (size >= low) & (size < n) & (pairs > 0)
    red |= (size == n) & (odd == 1)
    red |= (size > n) & (size <= n + n // 2) & (missed == 0)
    return red


def layered_red(m: int) -> np.ndarray:
    """Red iff |S| is odd."""
    idx = np.arange(1 << m)
    size = sum((idx >> j) & 1 for j in range(m))
    return size % 2 == 1


def render_qrc1(red: np.ndarray, scheme: str) -> bytes:
    """QRC1 text: magic, m, scheme, then R/B payload in lines of 64."""
    m = red.size.bit_length() - 1
    payload = np.where(red, ord("R"), ord("B")).astype(np.uint8)
    rows = payload.reshape(-1, min(QRC1_WRAP, red.size))
    lines = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=np.uint8)
    lines[:, :-1] = rows
    lines[:, -1] = ord("\n")
    return f"QRC1\nm={m}\nscheme={scheme}\n".encode() + lines.tobytes()


def flip_graph_edges_text(n: int) -> bytes:
    """Edge list of the transversal flip graph: one "u v" line per edge,
    u < v, sorted, vertices as encoded masks."""
    verts = np.zeros(1 << n, dtype=np.int64)
    combos = np.arange(1 << n, dtype=np.int64)
    for i in range(n):
        verts |= np.int64(1) << (2 * i + ((combos >> i) & 1))
    us, vs = [], []
    for i in range(n):
        other = verts ^ (np.int64(3) << (2 * i))
        keep = other > verts
        us.append(verts[keep])
        vs.append(other[keep])
    u = np.concatenate(us)
    v = np.concatenate(vs)
    order = np.lexsort((v, u))
    return "".join(f"{a} {b}\n" for a, b in zip(u[order].tolist(), v[order].tolist())).encode()


def _submasks(mask: int) -> list[int]:
    out, s = [], mask
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & mask


def _bits(elements) -> int:
    return sum(1 << (e - 1) for e in elements)


def perturbed_c0_n4(seed: int, index: int) -> tuple[np.ndarray, str, dict[str, str]]:
    """File ``index`` of the scan for ``seed``: (red table, kind, expected
    statuses).  Even indices plant a Blue copy, odd ones a Red copy."""
    rng = random.Random(seed * 1000 + index)
    red = c0_red(4)
    if index % 2:
        top = _bits(rng.sample(range(1, 7), 4))
        for s in _submasks(top):
            red[s] = True
        return red, "found", {"red": "found", "blue": "skipped"}
    a = rng.randrange(1, 7)
    partner = a + 1 if a % 2 else a - 1
    bottom = _bits((8, a))
    rest = _bits(e for e in range(1, 7) if e not in (a, partner))
    for s in _submasks(rest):
        red[bottom | s] = False
    return red, "absent-then-found", {"red": "absent", "blue": "found"}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()[:16]


def parse_report(text: str) -> tuple[dict[str, str], dict[str, list[str]]]:
    """``key: value`` fields and indented blocks of a cuberamsey report."""
    fields: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        if line.startswith("  ") and current is not None:
            current.append(line.strip())
            continue
        key, _, value = line.partition(":")
        value = value.strip()
        if value:
            fields.setdefault(key.strip(), value)
            current = None
        else:
            current = blocks.setdefault(key.strip(), [])
    return fields, blocks


def _parse_set(text: str, m: int) -> int:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a set literal: {text!r}")
    bits = 0
    for part in filter(None, inner[1:-1].split(",")):
        e = int(part)
        if not 1 <= e <= m:
            raise ValueError(f"element {e} outside 1..{m}")
        bits |= 1 << (e - 1)
    return bits


def check_witness(lines: list[str], n: int, m: int, member: np.ndarray) -> str | None:
    """Independent check of an embedding block ``{A} -> {f(A)}``: every
    subset of [n] appears once, images are distinct members of the family,
    and A is a subset of B exactly when f(A) is a subset of f(B).
    Returns None when the witness holds, else the first violation."""
    images: dict[int, int] = {}
    for line in lines:
        left, sep, right = line.partition("->")
        if not sep:
            return f"line without '->': {line!r}"
        try:
            source, image = _parse_set(left, n), _parse_set(right, m)
        except ValueError as exc:
            return str(exc)
        if source in images:
            return f"source {left.strip()} listed twice"
        images[source] = image
    if len(images) != 1 << n:
        return f"{len(images)} sources listed, expected {1 << n}"
    if len(set(images.values())) != len(images):
        return "two sources share an image"
    for a, fa in images.items():
        if not member[fa]:
            return f"image of source {a} is not in the family"
        for b, fb in images.items():
            if (a & b == a) != (fa & fb == fa):
                return f"subset order broken on sources {a}, {b}"
    return None
