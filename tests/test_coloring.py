"""Colorings, set families, the two built-in schemes, and the QRC1 format."""

import random
import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import random_coloring
from cuberamsey import (
    Color,
    Coloring,
    ColoringFormatError,
    ElementSet,
    SetFamily,
    dual_coloring,
    load_coloring,
    make_c0,
    make_layered,
    parse_coloring,
    render_coloring,
    save_coloring,
)


class TestSetFamily:
    def test_from_sets_and_contains(self):
        fam = SetFamily.from_sets(4, [0b11, 5, 5])
        assert fam.size == 2
        assert fam.mask[0b11] and fam.mask[5]
        assert not fam.mask[0]

    def test_member_values_ascending(self):
        fam = SetFamily.from_sets(3, [6, 1, 3])
        assert list(fam.member_values()) == [1, 3, 6]

    def test_full(self):
        fam = SetFamily(np.ones(8, dtype=bool))
        assert fam.size == 8

    def test_with_toggled(self):
        fam = SetFamily.from_sets(3, [1])
        assert fam.with_toggled(2).mask[2]
        assert not fam.with_toggled(1).mask[1]
        assert fam.mask[1]  # original untouched

    @pytest.mark.parametrize("v", [-1, 8, 9])
    def test_rejects_values_outside_the_cube(self, v):
        # -1 would wrap round to the top of the table, 8 = 2^3 is past it.
        with pytest.raises(ValueError, match=f"set value {v} outside 0..7"):
            SetFamily.from_sets(3, [1, v])
        with pytest.raises(ValueError, match=f"set value {v} outside 0..7"):
            SetFamily.from_sets(3, [1]).with_toggled(v)

    def test_complement_image_literal(self):
        rng = random.Random(3)
        fam = SetFamily.from_sets(4, [v for v in range(16) if rng.random() < 0.5])
        comp = fam.complement_image()
        for v in range(16):
            assert comp.mask[v] == fam.mask[15 ^ v]

    def test_equality_compares_space_and_members(self):
        fam = make_c0(2).color_class(Color.BLUE)
        assert fam == make_c0(2).color_class(Color.BLUE)
        assert fam.complement_image().complement_image() == fam
        for v in (0, 5, 15):
            assert fam.with_toggled(v) != fam
        assert fam != object()
        full = lambda m: SetFamily(np.ones(1 << m, dtype=bool))
        assert full(2) != full(3)

    def test_rejects_bad_mask(self):
        # Lengths that are not a power of two.
        for length in (3, 6, 24):
            with pytest.raises(ValueError, match="family mask must be bool of length 2"):
                SetFamily(np.zeros(length, dtype=bool))
        with pytest.raises(ValueError, match="family mask must be bool of length 2"):
            SetFamily(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            SetFamily(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="ground-set size must be in 1..32, got 0"):
            SetFamily(np.zeros(1, dtype=bool))


class TestColoringClass:
    def test_color_of_and_classes_partition(self):
        c = make_layered(3)
        red = c.color_class(Color.RED)
        blue = c.color_class(Color.BLUE)
        assert red.size + blue.size == 8
        for v in range(8):
            assert red.mask[v] == c.red[v]
            assert blue.mask[v] != c.red[v]

    def test_rejects_newline_scheme(self):
        with pytest.raises(ValueError):
            Coloring(np.zeros(2, dtype=bool), scheme="a\nb")

    @pytest.mark.parametrize(
        "red",
        [np.zeros(8, dtype=np.uint8), np.zeros(6, dtype=bool), np.zeros((2, 4), dtype=bool)],
        ids=["uint8", "length-6", "two-dimensional"],
    )
    def test_rejects_table_not_bool_of_length_power_of_two(self, red):
        with pytest.raises(ValueError, match="assignment must be bool of length 2\\^m"):
            Coloring(red)

    def test_equality_includes_scheme(self):
        a = make_layered(2)
        b = Coloring(a.red.copy(), scheme="other")
        assert a != b
        assert a == make_layered(2)

    def test_colorings_and_families_are_unhashable(self):
        c = make_c0(2)
        for obj, name in ((c, "Coloring"), (c.color_class(Color.RED), "SetFamily")):
            with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
                hash(obj)


class TestLayeredScheme:
    def test_red_iff_odd_size(self):
        c = make_layered(5)
        for v in range(32):
            assert c.red[v] == (ElementSet(v, 5).size % 2 == 1)

    def test_scheme_label(self):
        assert make_layered(3).scheme == "layered"


class TestC0Scheme:
    def test_band_examples_n4(self):
        c = make_c0(4)
        examples = {
            # below ceil(n/2): always red
            "{1}": Color.RED,
            "{}": Color.RED,
            # ceil(n/2) <= |S| < n: red iff S contains a pair
            "{1,3}": Color.BLUE,
            "{1,2,3}": Color.RED,
            "{1,3,5}": Color.BLUE,
            # |S| = n: red iff the element sum is odd
            "{1,3,5,7}": Color.BLUE,  # sum 16
            "{2,3,5,7}": Color.RED,  # sum 17
            # n < |S| <= n + n//2: red iff S misses no pair
            "{1,2,3,4,5}": Color.BLUE,  # misses {7,8}
            "{1,2,3,4,5,7}": Color.RED,
            # above n + n//2: always blue
            "{1,2,3,4,5,6,7}": Color.BLUE,
        }
        from cuberamsey import parse_set

        for text, expected in examples.items():
            s = parse_set(text, 8)
            assert c.red[s.bits] == (expected is Color.RED), text

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_vectorized_matches_scalar_and_literal(self, n):
        c = make_c0(n)
        for v in range(c.red.size):
            assert c.red[v] == (oracles.c0_color_literal(v, n) == Color.RED.value)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_band_union_matches_band_masks(self, n):
        assert np.array_equal(make_c0(n).red, oracles.c0_band_masks(n))

    def test_red_class_size_n4(self):
        c = make_c0(4)
        assert c.color_class(Color.RED).size == 125

    def test_scheme_label(self):
        assert make_c0(3).scheme == "c0 n=3"


class TestDualColoring:
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_literal_definition(self, m):
        rng = random.Random(m)
        c = random_coloring(m, rng)
        d = dual_coloring(c)
        for v in range(1 << m):
            assert d.red[v] != c.red[((1 << m) - 1) ^ v]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_reversed_negation(self, m):
        # m >= 3 takes the 64-bit word path, m < 3 the entrywise one.
        c = random_coloring(m, random.Random(40 + m))
        assert np.array_equal(dual_coloring(c).red, ~c.red[::-1])

    def test_strided_table(self):
        red = np.random.default_rng(5).random(32) < 0.5
        c = Coloring(red[::2])
        assert np.array_equal(dual_coloring(c).red, ~red[::2][::-1])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_c0_dual_differs_only_on_the_middle_layer_at_even_n(self, n):
        # The premise of one search per odd-n certificate: at odd n, c0 is
        # its own dual; at even n the two disagree on every n-set and only
        # there.  Compared by table, since == also compares the schemes.
        c = make_c0(n)
        d = dual_coloring(c)
        if n % 2:
            assert np.array_equal(c.red, d.red)
        else:
            differ = np.flatnonzero(c.red != d.red)
            assert differ.size == comb(2 * n, n)
            assert np.all(np.bitwise_count(differ) == n)

    def test_involution_including_scheme(self):
        c = make_c0(3)
        assert dual_coloring(dual_coloring(c)) == c
        assert dual_coloring(c).scheme == "dual(c0 n=3)"


class TestQRC1Format:
    def test_exact_bytes_m1(self):
        assert render_coloring(make_layered(1)) == "QRC1\nm=1\nscheme=layered\nBR\n"

    def test_wrap_at_64(self):
        text = render_coloring(make_c0(4))
        lines = text.splitlines()
        assert lines[:3] == ["QRC1", "m=8", "scheme=c0 n=4"]
        assert [len(ln) for ln in lines[3:]] == [64, 64, 64, 64]
        assert text.endswith("\n")

    def test_payload_follows_index_order(self):
        c = make_layered(2)
        # indices 0..3 have sizes 0,1,1,2
        assert render_coloring(c).splitlines()[3] == "BRRB"

    @pytest.mark.parametrize("m", range(1, 9))
    def test_roundtrip_random(self, m):
        rng = random.Random(100 + m)
        for trial in range(20):
            c = random_coloring(m, rng, scheme=f"trial-{trial}")
            assert parse_coloring(render_coloring(c)) == c

    @pytest.mark.parametrize("m", range(1, 17))
    def test_render_matches_where_oracle(self, m):
        c = random_coloring(m, random.Random(1600 + m), scheme=f"m{m}")
        assert render_coloring(c) == oracles.qrc1_where(c)

    def test_save_load_byte_exact(self, tmp_path):
        path = tmp_path / "c.qrc1"
        for c in (make_c0(3), Coloring(make_layered(2).red, "größe ≤ 2")):
            save_coloring(c, path)
            assert path.read_bytes().decode() == render_coloring(c)
            assert load_coloring(path) == c

    def test_parse_accepts_missing_final_newline(self):
        assert parse_coloring("QRC1\nm=1\nscheme=x\nBR") == parse_coloring(
            "QRC1\nm=1\nscheme=x\nBR\n"
        )


class TestQRC1Errors:
    CASES = [
        ("QRC2\nm=1\nscheme=x\nBR\n", 1, 1),  # bad magic
        ("QRC1\r\nm=1\r\nscheme=x\r\nBR\r\n", 1, 1),  # CR is not part of the format
        ("QRC1\nm=zz\nscheme=x\nBR\n", 2, 3),  # unparsable size
        ("QRC1\nm=0\nscheme=x\nBR\n", 2, 3),  # size below range
        ("QRC1\nm=33\nscheme=x\nBR\n", 2, 3),  # size above range
        ("QRC1\nschemeville\nBR\n", 2, 1),  # missing m line
        ("QRC1\nm=1\nschemeville\nBR\n", 3, 1),  # missing scheme line
        ("QRC1\nm=1\nscheme=x\nBX\n", 4, 2),  # illegal payload character
        ("QRC1\nm=1\nscheme=x\nB\n", 4, 2),  # short payload line
        ("QRC1\nm=1\nscheme=x\nBRR\n", 4, 3),  # payload overrun
        ("QRC1\nm=3\nscheme=x\nRBRB\nRBRB\n", 4, 5),  # wrapped too early
        ("QRC1\nm=1\nscheme=x\nBR\n\n", 5, 1),  # blank line after payload
        ("QRC1\nm=1\nscheme=x\nBR\nBR\n", 5, 1),  # extra payload line
        ("QRC1\nm=1\nscheme=x\n", 4, 1),  # payload missing entirely
        # Only canonical decimal sizes: each of these once read as m = 1.
        ("QRC1\nm=1\r\nscheme=x\nBR\n", 2, 3),
        ("QRC1\nm= 1\nscheme=x\nBR\n", 2, 3),
        ("QRC1\nm=+1\nscheme=x\nBR\n", 2, 3),
        ("QRC1\nm=0_1\nscheme=x\nBR\n", 2, 3),
        ("QRC1\nm=01\nscheme=x\nBR\n", 2, 3),
        ("QRC1\nm=\u0661\nscheme=x\nBR\n", 2, 3),  # ARABIC-INDIC DIGIT ONE
    ]

    @pytest.mark.parametrize("text,line,column", CASES)
    def test_position_of_first_error(self, text, line, column):
        with pytest.raises(ColoringFormatError) as exc:
            parse_coloring(text)
        assert exc.value.line == line
        assert exc.value.column == column
        assert f"line {line}, column {column}:" in str(exc.value)

    def test_error_is_value_error(self):
        assert issubclass(ColoringFormatError, ValueError)


def parse_outcome(parse, text):
    """The parsed coloring, or (message, line, column) of the error."""
    try:
        return parse(text)
    except ColoringFormatError as exc:
        return (str(exc), exc.line, exc.column)


def loop_outcome(text):
    """The per-character oracle's outcome, with one deliberate difference:
    a size that is not canonical decimal (an int() reading accepted signs,
    spaces, underscores, leading zeros and non-ASCII digits) is an error."""
    lines = text.split("\n", 3)
    out = parse_outcome(oracles.parse_coloring_loop, text)
    if lines[0] == "QRC1" and len(lines) > 1 and lines[1].startswith("m="):
        digits = lines[1][2:]
        if not re.fullmatch(r"0|[1-9][0-9]*", digits):
            return (f"line 2, column 3: bad ground-set size {digits!r}", 2, 3)
    return out


CORRUPTING_CHARS = ["R", "B", "\n", "\r", "X", "\u00e9"]


def corrupt(text, rng):
    """One seeded corruption: substitute, insert or delete one character,
    truncate, or append a line."""
    kind = rng.randrange(5)
    at = rng.randrange(len(text))
    if kind == 0:
        return text[:at] + rng.choice(CORRUPTING_CHARS) + text[at + 1 :]
    if kind == 1:
        return text[:at] + rng.choice(CORRUPTING_CHARS) + text[at:]
    if kind == 2:
        return text[:at] + text[at + 1 :]
    if kind == 3:
        return text[:at]
    return text + rng.choice(["BR\n", "\n", "R" * 64 + "\n", "X\n", "RB"])


class TestParseMatchesLoop:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_valid_renders(self, m):
        c = random_coloring(m, random.Random(700 + m), scheme=f"m{m}")
        text = render_coloring(c)
        assert parse_coloring(text) == oracles.parse_coloring_loop(text) == c
        assert parse_coloring(text[:-1]) == c

    def test_corruption_corpus(self):
        rng = random.Random(2024)
        kinds = set()
        for case in range(1500):
            m = rng.randint(1, 10)
            text = corrupt(render_coloring(random_coloring(m, rng, scheme="s")), rng)
            expected = loop_outcome(text)
            assert parse_outcome(parse_coloring, text) == expected, (case, text)
            if isinstance(expected, tuple):
                kinds.add(re.sub(r"[0-9'].*", "", expected[0].split(": ", 1)[1]))
        # Every payload rule is met somewhere in the corpus.
        assert {
            "illegal character ",
            "payload longer than ",
            "payload line has ",
            "unexpected extra line after payload",
            "payload has ",
        } <= kinds

    def test_illegal_character_deep_in_file(self):
        # The size `color --n 12` writes: 2^24 entries on 262,144 lines.
        red = np.random.default_rng(12).random(1 << 24) < 0.5
        text = render_coloring(Coloring(red, scheme="s"))
        at = len("QRC1\nm=24\nscheme=s\n") + 96 * 65 + 16  # line 100, column 17
        text = text[:at] + "X" + text[at + 1 :]
        assert parse_outcome(parse_coloring, text) == (
            "line 100, column 17: illegal character 'X'", 100, 17
        )
        assert loop_outcome(text) == parse_outcome(parse_coloring, text)

    @pytest.mark.parametrize(
        "extra,expected",
        [
            ("\u00e9", ("line 5, column 65: illegal character '\u00e9'", 5, 65)),
            ("R", ("line 5, column 66: payload line has 65 entries, expected 64", 5, 66)),
        ],
    )
    def test_65th_character(self, extra, expected):
        lines = render_coloring(make_c0(6)).split("\n")
        lines[4] += extra
        text = "\n".join(lines)
        assert parse_outcome(parse_coloring, text) == expected
        assert loop_outcome(text) == expected

    def test_full_payload_without_final_newline(self):
        c = make_c0(10)
        text = render_coloring(c)[:-1]
        assert parse_coloring(text) == oracles.parse_coloring_loop(text) == c

    def test_huge_header_with_short_payload_allocates_nothing(self):
        text = "QRC1\nm=32\nscheme=x\nBR\n"
        tracemalloc.start()
        try:
            outcome = parse_outcome(parse_coloring, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == ("line 4, column 3: payload line has 2 entries, expected 64", 4, 3)
        assert peak < 16 << 20


def read_outcome(read, source):
    """The parsed coloring, or the error's type, message, line and column
    (None for a decode error)."""
    try:
        return read(source)
    except (ColoringFormatError, UnicodeDecodeError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


class TestLoadMatchesParse:
    """``load_coloring`` reads bytes and ``parse_coloring`` takes str or
    bytes: each input reads the same every way, and as the file read as
    whole UTF-8 text did (``oracles.load_coloring_text``)."""

    BYTE_CASES = [
        b"QRC1\r\nm=1\r\nscheme=x\r\nBR\r\n",  # CRLF line ends
        b"QRC1\nm=1\nscheme=x\nBR\r\n",  # CR at a payload line end
        b"QRC1\nm=1\nscheme=\xff\nBR\n",  # invalid UTF-8 in the header
        b"Q\xc3RC1\nm=1\nscheme=x\nBR\n",  # truncated sequence in the magic
        b"QRC1\nm=1\nscheme=x\nB\xffR\n",  # invalid UTF-8 in the payload
        b"QRC1\nm=1\nscheme=x\nBR\n\x80",  # ... after a complete payload
        b"QRC2\nm=1\nscheme=x\nBR\n\xff",  # the decode error precedes the header's
        b"QRC1\nm=2\nscheme=x\nBRB\xed\xa0\x80\n",  # an encoded surrogate is not UTF-8
        b"\xef\xbb\xbfQRC1\nm=1\nscheme=x\nBR\n",  # a byte-order mark is not the magic
        "QRC1\nm=1\nscheme=gr\u00f6\u00dfe \u2264 2\nBR\n".encode(),  # non-ASCII label
        "QRC1\nm=1\nscheme=gr\u00f6\u00dfe\nB\u00e9\n".encode(),  # non-ASCII payload
        "QRC1\nm=1\nscheme=\u00e9\nBRR\n".encode(),
        "QRC1\nm=7\nscheme=\u2264\n".encode() + b"R" * 64 + "\u00e9\n".encode(),
        b"QRC1\nm=1\nscheme=x",
        b"",
    ]

    @pytest.mark.parametrize("text,line,column", TestQRC1Errors.CASES)
    def test_malformed_cases(self, tmp_path, text, line, column):
        path = tmp_path / "c.qrc1"
        path.write_bytes(text.encode())
        want = read_outcome(parse_coloring, text)
        assert want[2:] == (line, column)
        assert read_outcome(parse_coloring, text.encode()) == want
        assert read_outcome(load_coloring, path) == want
        assert read_outcome(oracles.load_coloring_text, path) == want

    @pytest.mark.parametrize("data", BYTE_CASES)
    def test_byte_cases(self, tmp_path, data):
        path = tmp_path / "c.qrc1"
        path.write_bytes(data)
        want = read_outcome(oracles.load_coloring_text, path)
        assert read_outcome(load_coloring, path) == want
        assert read_outcome(parse_coloring, data) == want
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            assert want[0] is UnicodeDecodeError
        else:
            assert read_outcome(parse_coloring, text) == want

    def test_valid_non_ascii_label(self, tmp_path):
        c = Coloring(make_layered(3).red, "gr\u00f6\u00dfe \u2264 2")
        path = tmp_path / "c.qrc1"
        save_coloring(c, path)
        assert load_coloring(path) == parse_coloring(path.read_bytes()) == c

    def test_lone_surrogates_in_str(self):
        # A str need not be encodable: its label is kept, and in the
        # payload it is an illegal character.
        c = parse_coloring("QRC1\nm=1\nscheme=\ud800\nBR\n")
        assert c.scheme == "\ud800" and c.red.tolist() == [False, True]
        assert read_outcome(parse_coloring, "QRC1\nm=1\nscheme=x\nB\udfff\n") == (
            ColoringFormatError, "line 4, column 2: illegal character '\\udfff'", 4, 2
        )

    def test_byte_corruption_corpus(self, tmp_path):
        rng = random.Random(2026)
        path = tmp_path / "c.qrc1"
        pieces = [b"R", b"B", b"\n", b"\r", b"X", b"\xff", b"\x80", b"\xc3", "\u00e9".encode()]
        kinds = set()
        for case in range(400):
            m = rng.randint(1, 8)
            data = render_coloring(random_coloring(m, rng, scheme="s\u00e9")).encode()
            for _ in range(rng.randint(1, 2)):
                at = rng.randrange(len(data) + 1)
                piece = rng.choice(pieces)
                kind = rng.randrange(3)
                if kind == 0:
                    data = data[:at] + piece + data[at + 1 :]
                elif kind == 1:
                    data = data[:at] + piece + data[at:]
                else:
                    data = data[:at]
            path.write_bytes(data)
            want = read_outcome(oracles.load_coloring_text, path)
            assert read_outcome(load_coloring, path) == want, (case, data)
            assert read_outcome(parse_coloring, data) == want, (case, data)
            kinds.add(want[0] if isinstance(want, tuple) else Coloring)
        assert kinds == {Coloring, ColoringFormatError, UnicodeDecodeError}


@given(st.integers(1, 6), st.data())
def test_roundtrip_property(m, data):
    bits = data.draw(st.integers(0, (1 << (1 << m)) - 1))
    red = np.array([(bits >> v) & 1 == 1 for v in range(1 << m)], dtype=bool)
    c = Coloring(red, scheme="prop")
    assert parse_coloring(render_coloring(c)) == c
