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
    popcount_table,
    profile_table,
)

# The per-subset table builders stay attributes of this module, where the
# tracer of perfbench/traced.py wraps them, though c0 no longer uses them.
from .lattice import missed_count_table, odd_sum_table, pair_count_table  # noqa: F401


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
        """The members of one class.  Red shares the read-only table."""
        return SetFamily(self.space, self.red if color is Color.RED else ~self.red)

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
    the size bands, a rule on each set's size, complete pairs and element
    sum parity."""
    space = CubeSpace.with_pairs(n)
    low, high = (n + 1) // 2, n + n // 2

    def red(size, pairs, odd):
        missed = n - size + pairs
        return (
            (size < low)
            | (size >= low) & (size < n) & (pairs > 0)
            | (size == n) & odd
            | (size > n) & (size <= high) & (missed == 0)
        )

    return Coloring(space, profile_table(space.m, red), scheme=f"c0 n={n}")


# Bit i is 1 when the set encoded by i is red in c3.
_C3_RED_BITS = 0x815735E8706A2C09


def make_c3() -> Coloring:
    """The c3 coloring of [6]: neither class holds a copy of 2^[3]."""
    red = np.array([_C3_RED_BITS >> i & 1 for i in range(64)], dtype=bool)
    return Coloring(CubeSpace(6), red, scheme="c3")


def dual_coloring(c: Coloring) -> Coloring:
    """The coloring S -> flip(c(complement(S))); an involution.

    Complementation reverses the index order because the full mask is all
    ones, so the assignment is the reversed, negated table.  From eight
    entries on it is taken as 64-bit words: reversing the words and the
    bytes of each reverses the entries, and one XOR negates eight.
    """
    if c.red.size % 8 == 0 and c.red.flags.c_contiguous:
        words = c.red.view(np.uint64)[::-1].byteswap()
        red = np.bitwise_xor(words, np.uint64(0x0101010101010101), out=words).view(bool)
    else:
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
    rows (64 chars each) plus a newline column.  The characters are
    written in place: "B" + 16 for red is "R"."""
    width, rows = _payload_shape(c.space.m)
    lines = np.empty((rows, width + 1), dtype=np.uint8)
    lines[:, -1] = ord("\n")
    body = lines[:, :-1]
    np.multiply(c.red.view(np.uint8).reshape(-1, width), np.uint8(ord("R") - ord("B")), out=body)
    body += np.uint8(ord("B"))
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


def parse_coloring(text: str | bytes) -> Coloring:
    """Read QRC1 text, given as str or as its UTF-8 bytes.  A malformed
    text raises the first error in file order, at its 1-based line and
    column; columns count characters.  Bytes that are not UTF-8 raise
    UnicodeDecodeError at their offset, before any format error, as
    reading them as UTF-8 text would.

    The three header lines are decoded; the payload is checked as a uint8
    view of the bytes.  Only a malformed input is decoded whole, to find
    its first error."""
    if isinstance(text, str):
        # Lone surrogates pass through both ways, so the header reads as
        # the str's own lines.
        data, errors = text.encode("utf-8", "surrogatepass"), "surrogatepass"
    else:
        data, errors = text, "strict"
    try:
        lines, start = _header_lines(data, errors)
        m, scheme = _read_header(lines)
    except (UnicodeDecodeError, ColoringFormatError):
        pass
    else:
        red = _payload_red(data, start, m)
        if red is not None:
            return Coloring(CubeSpace(m), red, scheme=scheme)
    if not isinstance(text, str):
        text = data.decode("utf-8")  # invalid UTF-8 raises here, at its offset
    lines = text.split("\n", 3)
    m, _ = _read_header(lines)
    raise _payload_error(lines[3] if len(lines) > 3 else "", m)


def _header_lines(data: bytes, errors: str) -> tuple[list[str], int]:
    """The first three lines of ``data`` (fewer when it has fewer
    newlines; the last then runs to the end), decoded as UTF-8, and the
    offset of the payload after them."""
    lines, start = [], 0
    for _ in range(3):
        end = data.find(b"\n", start)
        if end < 0:
            lines.append(data[start:].decode("utf-8", errors))
            return lines, len(data)
        lines.append(data[start:end].decode("utf-8", errors))
        start = end + 1
    return lines, start


def _read_header(lines: list[str]) -> tuple[int, str]:
    """The ground-set size and scheme label of the header lines
    ``lines[:3]``; raises the first header error."""
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
    return m, lines[2][7:]


def _payload_shape(m: int) -> tuple[int, int]:
    """Characters per payload line and the number of lines for 2^m entries."""
    width = min(_WRAP, 1 << m)
    return width, (1 << m) // width


def _payload_red(data: bytes, start: int, m: int) -> np.ndarray | None:
    """The red table of a well-formed payload at ``data[start:]``, checked
    without a copy; None when it is malformed.  It must be ``rows`` lines
    of ``width`` R/B characters, each followed by a newline but possibly
    the last."""
    width, rows = _payload_shape(m)
    if len(data) - start not in (rows * (width + 1), rows * (width + 1) - 1):
        return None
    flat = np.frombuffer(data, np.uint8, offset=start)
    body = np.ndarray((rows, width), np.uint8, data, start, (width + 1, 1))
    red = body == ord("R")
    # The newline columns hold neither letter, so the payload's B count is
    # the body's.
    if not (flat[width :: width + 1] == ord("\n")).all():
        return None
    if np.count_nonzero(red) + np.count_nonzero(flat == ord("B")) != red.size:
        return None
    return red.reshape(-1)


def _payload_error(payload: str, m: int) -> ColoringFormatError:
    """The first error in a payload that is not ``rows`` lines of ``width``
    R/B characters (``_payload_shape``).  Lines before the first bad one
    hold ``width`` entries each, so that line is read by the per-character
    rules alone."""
    width, rows = _payload_shape(m)
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
    """Read a QRC1 file, as bytes (see ``parse_coloring``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_coloring(data)
