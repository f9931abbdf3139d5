"""Total Red/Blue colorings of the subset lattice 2^[m].

Three built-in schemes:

* ``layered``: color by cardinality parity (odd sizes red).
* ``c0``: the explicit pairing-based scheme on [2n].  Five size bands:
  everything small is red, the band below n is red exactly when the set
  contains a complete pair, the middle layer n is red exactly when the
  element sum is odd, the band above n is red exactly when the set misses
  no pair, and everything above n + n//2 is blue.
* ``c3``: a fixed coloring of [6] for n = 3, where c0 fails.  That
  neither class holds a copy of 2^[3] rests on exhaustive search of both,
  not on how the constant was found.

Colorings are dense: one entry per encoded subset value.  The QRC1 text
format stores them bit-exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import (
    MAX_GROUND_SIZE,
    CubeSpace,
    ElementSet,
    missed_count_table,
    odd_sum_table,
    pair_count_table,
    popcount_table,
)


class Color(enum.Enum):
    RED = "R"
    BLUE = "B"

    def flipped(self) -> "Color":
        return Color.BLUE if self is Color.RED else Color.RED


@dataclass(frozen=True)
class SetFamily:
    """A collection of subsets of [m], stored as a dense membership table."""

    space: CubeSpace
    mask: np.ndarray  # bool, length 2^m, read-only

    def __post_init__(self) -> None:
        if self.mask.dtype != bool or self.mask.shape != (self.space.size,):
            raise ValueError("family mask must be bool of length 2^m")
        self.mask.flags.writeable = False

    @classmethod
    def from_sets(cls, space: CubeSpace, sets) -> "SetFamily":
        mask = np.zeros(space.size, dtype=bool)
        for s in sets:
            mask[s.bits if isinstance(s, ElementSet) else int(s)] = True
        return cls(space, mask)

    @classmethod
    def full(cls, space: CubeSpace) -> "SetFamily":
        return cls(space, np.ones(space.size, dtype=bool))

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def contains(self, s: ElementSet | int) -> bool:
        bits = s.bits if isinstance(s, ElementSet) else int(s)
        return bool(self.mask[bits])

    def member_values(self) -> np.ndarray:
        """Encoded values of the members, ascending."""
        return np.flatnonzero(self.mask)

    def iter_sets(self):
        for bits in self.member_values():
            yield ElementSet(int(bits), self.space.m)

    def with_toggled(self, s: ElementSet | int) -> "SetFamily":
        """A copy with one set added or removed."""
        bits = s.bits if isinstance(s, ElementSet) else int(s)
        mask = self.mask.copy()
        mask[bits] = not mask[bits]
        return SetFamily(self.space, mask)

    def complement_image(self) -> "SetFamily":
        """The family of complements of the members."""
        return SetFamily(self.space, self.mask[::-1].copy())


@dataclass(frozen=True)
class Coloring:
    """A total Red/Blue assignment on 2^[m]; ``red[i]`` is True iff the set
    encoded by i is red."""

    space: CubeSpace
    red: np.ndarray
    scheme: str = ""

    def __post_init__(self) -> None:
        if self.red.dtype != bool or self.red.shape != (self.space.size,):
            raise ValueError("assignment must be bool of length 2^m")
        if "\n" in self.scheme:
            raise ValueError("scheme label must not contain newlines")
        self.red.flags.writeable = False

    def color_of(self, s: ElementSet | int) -> Color:
        bits = s.bits if isinstance(s, ElementSet) else int(s)
        return Color.RED if self.red[bits] else Color.BLUE

    def color_class(self, color: Color) -> SetFamily:
        mask = self.red if color is Color.RED else ~self.red
        return SetFamily(self.space, mask.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return (
            self.space == other.space
            and self.scheme == other.scheme
            and bool(np.array_equal(self.red, other.red))
        )


def make_layered(m: int) -> Coloring:
    space = CubeSpace(m)
    red = (popcount_table(m) & 1).astype(bool)
    return Coloring(space, red, scheme="layered")


def make_c0(n: int) -> Coloring:
    """Build the full c0 coloring on [2n]: the union of the red parts of
    the size bands, over the cached per-subset tables."""
    space = CubeSpace.with_pairs(n)
    m = space.m
    sizes = popcount_table(m)
    low, high = (n + 1) // 2, n + n // 2
    red = sizes < low
    red |= (sizes >= low) & (sizes < n) & (pair_count_table(m) > 0)
    red |= (sizes == n) & odd_sum_table(m)
    red |= (sizes > n) & (sizes <= high) & (missed_count_table(m) == 0)
    return Coloring(space, red, scheme=f"c0 n={n}")


# Bit i is 1 when the set encoded by i is red in c3.
_C3_RED_BITS = 0x815735E8706A2C09


def make_c3() -> Coloring:
    """The c3 coloring of [6]: neither class holds a copy of 2^[3]."""
    red = np.array([_C3_RED_BITS >> i & 1 for i in range(64)], dtype=bool)
    return Coloring(CubeSpace(6), red, scheme="c3")


def dual_coloring(c: Coloring) -> Coloring:
    """The coloring S -> flip(c(complement(S))); an involution.

    Complementation reverses the index order because the full mask is all
    ones, so the assignment is the reversed, negated table.
    """
    red = ~c.red[::-1]
    scheme = c.scheme[5:-1] if c.scheme.startswith("dual(") and c.scheme.endswith(")") else f"dual({c.scheme})"
    return Coloring(c.space, red, scheme=scheme)


class ColoringFormatError(ValueError):
    """Malformed QRC1 input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_WRAP = 64


def _qrc1_parts(c: Coloring) -> tuple[str, np.ndarray]:
    """The QRC1 header and the payload as one uint8 buffer: the payload
    rows (64 chars each) plus a newline column."""
    width = min(_WRAP, c.red.size)
    lines = np.full((c.red.size // width, width + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = np.where(c.red, np.uint8(ord("R")), np.uint8(ord("B"))).reshape(-1, width)
    return f"QRC1\nm={c.space.m}\nscheme={c.scheme}\n", lines


def render_coloring(c: Coloring) -> str:
    """The QRC1 text for a coloring (Unix newlines, 64 chars per payload line)."""
    header, lines = _qrc1_parts(c)
    return header + lines.tobytes().decode("ascii")


def save_coloring(c: Coloring, path) -> None:
    """Write the QRC1 text of ``render_coloring`` (UTF-8) without building it
    as a string."""
    header, lines = _qrc1_parts(c)
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(lines.data)


def parse_coloring(text: str) -> Coloring:
    """Read QRC1 text.  A malformed text raises the first error in file
    order, at its 1-based line and column; columns count characters."""
    lines = text.split("\n", 3)
    if lines[0] != "QRC1":
        raise ColoringFormatError("expected QRC1 magic", 1, 1)
    if len(lines) < 2 or not lines[1].startswith("m="):
        raise ColoringFormatError("expected m=<integer>", 2, 1)
    digits = lines[1][2:]
    try:
        m = int(digits)
        if not digits.isdigit() or str(m) != digits:
            raise ValueError  # only canonical decimal renders back to the same text
    except ValueError:
        raise ColoringFormatError(f"bad ground-set size {digits!r}", 2, 3) from None
    if not 1 <= m <= MAX_GROUND_SIZE:
        raise ColoringFormatError(f"ground-set size {m} outside 1..{MAX_GROUND_SIZE}", 2, 3)
    if len(lines) < 3 or not lines[2].startswith("scheme="):
        raise ColoringFormatError("expected scheme=<label>", 3, 1)
    scheme = lines[2][7:]

    payload = lines[3] if len(lines) > 3 else ""
    expected = 1 << m
    width = min(_WRAP, expected)
    rows = expected // width
    # One byte per character: a non-ASCII character becomes "?", which
    # fails the R/B test as the character itself would.
    raw = payload.encode("ascii", "replace")
    if len(raw) in (rows * (width + 1), rows * (width + 1) - 1):  # final newline optional
        body = np.ndarray((rows, width), np.uint8, raw, strides=(width + 1, 1))
        ends = np.frombuffer(raw, np.uint8)[width :: width + 1]
        red = body == ord("R")
        if (ends == ord("\n")).all() and (red | (body == ord("B"))).all():
            return Coloring(CubeSpace(m), red.reshape(-1), scheme=scheme)
    raise _payload_error(payload, width, rows)


def _payload_error(payload: str, width: int, rows: int) -> ColoringFormatError:
    """The first error in a payload that is not ``rows`` lines of ``width``
    R/B characters.  Lines before the first bad one hold ``width`` entries
    each, so that line is read by the per-character rules alone."""
    lines = payload.split("\n")
    if lines[-1] == "":
        lines.pop()  # trailing newline
    for j, line in enumerate(lines):
        lineno = 4 + j
        if j >= rows:
            return ColoringFormatError("unexpected extra line after payload", lineno, 1)
        if len(line) == width and not line.strip("RB"):
            continue
        left = (rows - j) * width  # entries still expected when this line starts
        for col, ch in enumerate(line, start=1):
            if ch not in "RB":
                return ColoringFormatError(f"illegal character {ch!r}", lineno, col)
            if col > left:
                return ColoringFormatError("payload longer than 2^m entries", lineno, col)
        return ColoringFormatError(
            f"payload line has {len(line)} entries, expected {width}", lineno, len(line) + 1
        )
    return ColoringFormatError(
        f"payload has {len(lines) * width} entries, expected {rows * width}", 4 + len(lines), 1
    )


def load_coloring(path) -> Coloring:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    return parse_coloring(text)
