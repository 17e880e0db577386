"""The shared ``.fpc`` / ``.oa`` reader: strict token grammar, fuzzing and round trips."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import digits_past_int_limit, reference_code_text, reference_oa_text, reference_read_table
from test_verify import codes_with_c, starred_codes_with_t

from frameproof import (
    base_code,
    build_oa_strength2,
    code_from_text,
    code_to_text,
    execute_plan,
    make_code,
    make_oa,
    oa_from_text,
    oa_to_text,
    plan_code,
    read_code_file,
    read_oa_file,
    write_code_file,
    write_oa_file,
)
from frameproof import codes
from frameproof.cli import run
from frameproof.oa import read_oa_header

# a valid text of each format, with "{}" where one entry of the first row goes
FPC = "fpc1 q=20 l=2 M=2 inf=0\n{} 1\n2 3\n"
OA = "oa1 N=4 k=2 s=2 t=1\n{} 1 0 1\n0 1 0 1\n"
# entries and rows the parent reader coerced or rejected; all are input errors
BAD_ENTRIES = ["1_0", "+3", "*1", "1-2", "1 2 # 3", "1 2"]  # the last makes a ragged row


def _exit_and_err(tmp_path, capsys, text, name):
    path = tmp_path / name
    path.write_bytes(text.encode())
    rc = run(["import", str(path)])
    return rc, capsys.readouterr().err


class TestStrictGrammar:
    @pytest.mark.parametrize("template, name", [(FPC, "a.fpc"), (OA, "a.oa")])
    def test_valid_templates_read(self, tmp_path, capsys, template, name):
        assert _exit_and_err(tmp_path, capsys, template.format("1"), name)[0] == 0

    @pytest.mark.parametrize("entry", BAD_ENTRIES + ["٣"])
    @pytest.mark.parametrize("template, name", [(FPC, "a.fpc"), (OA, "a.oa")])
    def test_bad_entry_is_an_input_error(self, tmp_path, capsys, template, name, entry):
        rc, err = _exit_and_err(tmp_path, capsys, template.format(entry), name)
        assert rc == 64 and err.startswith("error: ") and "Traceback" not in err
        assert "usecols" not in err

    @pytest.mark.parametrize("text, name", [
        ("fpc1 q=1_1 l=2 M=1 inf=none\n1 2\n", "a.fpc"),
        ("fpc1 q=11 l=+2 M=1 inf=none\n1 2\n", "a.fpc"),
        ("fpc1 q=11 l=2 M=1 inf=1_0\n1 2\n", "a.fpc"),
        ("oa1 N=4 k=2 s=1_1 t=1\n0 1 0 1\n1 0 1 0\n", "a.oa"),
        ("oa1 N=4 k=2 s=2 t=none\n0 1 0 1\n1 0 1 0\n", "a.oa"),
    ])
    def test_header_values_are_ascii_decimal(self, tmp_path, capsys, text, name):
        rc, err = _exit_and_err(tmp_path, capsys, text, name)
        assert rc == 64 and "header field" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, name", [
        ("fpc1 q=3 l=2 M=1 inf=0 LONG\n1 2\n", "a.fpc"),
        ("fpc1 q=3 l=2 M=1 inf=LONG\n1 2\n", "a.fpc"),
        ("oa1 N=4 k=2 s=2 LONG\n0 1 0 1\n1 0 1 0\n", "a.oa"),
        ("LONG\n1 2\n", "a.fpc"),
    ])
    def test_a_long_bad_header_is_echoed_short(self, tmp_path, capsys, text, name):
        # the refused header, field or magic is echoed as a prefix and its length
        rc, err = _exit_and_err(tmp_path, capsys, text.replace("LONG", "y" * 5000), name)
        assert rc == 64 and "characters)" in err and "Traceback" not in err
        assert len(err) < 300

    def test_zero_length_is_an_input_error(self, tmp_path, capsys):
        rc, err = _exit_and_err(tmp_path, capsys, "fpc1 q=3 l=0 M=0 inf=none\n", "a.fpc")
        assert rc == 64 and err == "error: length must be an integer of at least 1, got 0\n"

    @pytest.mark.parametrize("entry", BAD_ENTRIES + ["٣"])
    def test_bad_entry_through_the_library(self, entry):
        with pytest.raises(ValueError):
            code_from_text(FPC.format(entry))
        with pytest.raises(ValueError):
            oa_from_text(OA.format(entry))

    def test_non_ascii_header_digits_are_refused(self):
        with pytest.raises(ValueError, match="not ASCII"):
            code_from_text("fpc1 q=٣ l=2 M=1 inf=none\n1 2\n")

    def test_header_too_long_for_int_names_its_field(self, tmp_path, capsys):
        digits = digits_past_int_limit()
        text = f"fpc1 q={'9' * digits} l=2 M=1 inf=none\n1 2\n"
        message = f"fpc1 header field q has {digits} digits, more than int() converts"
        with pytest.raises(ValueError) as exc:
            code_from_text(text)
        assert str(exc.value) == message
        assert _exit_and_err(tmp_path, capsys, text, "q.fpc") == (64, f"error: {message}\n")

    def test_a_star_must_be_a_whole_token(self):
        with pytest.raises(ValueError, match="whole"):
            code_from_text("fpc1 q=3 l=2 M=1 inf=0\n1* 2\n")
        assert code_from_text("fpc1 q=3 l=2 M=1 inf=0\n1\t*\n").words == ((1, 0),)

    def test_blank_lines_and_empty_bodies(self):
        text = "\nfpc1 q=3 l=2 M=2 inf=0\n\n* 1\n   \n1 *\n\n"
        assert code_from_text(text).words == ((0, 1), (1, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = code_from_text("fpc1 q=3 l=2 M=0 inf=none\n\n")
        assert empty.size == 0 and empty.length == 2
        with pytest.raises(ValueError, match="M=1"):
            code_from_text("fpc1 q=3 l=2 M=1 inf=none\n")

    def test_row_width_against_the_header(self):
        with pytest.raises(ValueError, match="l=3"):
            code_from_text("fpc1 q=3 l=3 M=1 inf=none\n1 2\n")
        with pytest.raises(ValueError, match="N=3"):
            oa_from_text("oa1 N=3 k=1 s=2 t=1\n0 1 0 1\n")

    def test_wide_symbols_reach_the_range_check(self):
        with pytest.raises(ValueError, match=f"symbol {2**64 - 1} out of range"):
            code_from_text(f"fpc1 q={2**64} l=2 M=1 inf=none\n1 {2**64 - 1}\n")
        with pytest.raises(ValueError, match="could not convert"):
            code_from_text(f"fpc1 q={2**65} l=2 M=1 inf=none\n1 {2**64}\n")


class TestLineEnds:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_every_line_end_reads_the_same(self, tmp_path, capsys, end):
        # the text and file readers agree, for the header and the body
        fpc = end.join(["fpc1 q=3 l=2 M=2 inf=0", "1 2", "2 *", ""])
        oa = end.join(["oa1 N=4 k=2 s=2 t=1", "0 0 1 1", "0 1 0 1", ""])
        (tmp_path / "a.fpc").write_bytes(fpc.encode())
        (tmp_path / "a.oa").write_bytes(oa.encode())
        code, array = read_code_file(tmp_path / "a.fpc"), read_oa_file(tmp_path / "a.oa")
        assert code_from_text(fpc).words == code.words == ((1, 2), (2, 0))
        assert oa_from_text(oa).array.tolist() == array.array.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1]]
        assert _exit_and_err(tmp_path, capsys, fpc, "b.fpc") == (0, "")
        assert read_oa_header(tmp_path / "a.oa") == {"N": 4, "k": 2, "s": 2, "t": 1}
        assert run(["--quiet", "oa-verify", str(tmp_path / "a.oa")]) == 0

    def test_mixed_line_ends(self):
        assert code_from_text("fpc1 q=3 l=2 M=2 inf=0\n1 2\r2 1\n").words == ((1, 2), (2, 1))
        assert code_from_text("fpc1 q=3 l=2 M=2 inf=0\r\n1 2\r\r\n2 1").words == ((1, 2), (2, 1))


# --- the chunked reader against the loadtxt reference ---------------------------

FORMATS = {"fpc1": (("q", "l", "M", "inf"), ("M", "l"), "inf"),
           "oa1": (("N", "k", "s", "t"), ("k", "N"), None)}
READABLE = [
    code_to_text(base_code("q3")),
    code_to_text(make_code(2, 4, [(0, 3), (3, 0), (2, 2)])),
    f"fpc1 q={2**65} l=2 M=2 inf={2**64 - 1}\n1 *\n{2**63} 4\n",
    f"fpc1 q={2**65} l=2 M=1 inf={2**64}\n1 *\n",
    oa_to_text(build_oa_strength2(3)),
]
MUTATIONS = [
    "\t", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\r\n", "\r", " ", "\n", "\n\n", "1 2\n",
    "0", "000", "9" * 19, "1" + "0" * 18, "0" * 19 + "12", str(2**63), str(2**64 - 1), str(2**64),
    "1" * 21, "0" * 30 + str(2**64 - 1), "*", "+", "-", "_", "٣", "７",
]


@st.composite
def mutated_bodies(draw):
    """A readable text with one to four characters of its body deleted or inserted."""
    text = draw(st.sampled_from(READABLE))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(text.index("\n") + 1, len(text)))
        if pos < len(text) and draw(st.booleans()):
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(st.sampled_from(MUTATIONS)) + text[pos:]
    return text


def _read_or_none(read, text, magic):
    try:
        vals, table = read(text, magic, *FORMATS[magic])
    except ValueError:
        return None
    return vals, table.dtype, table.shape, table.tolist()


@given(mutated_bodies(), st.sampled_from([1, 2, 3, 5, 8, 13, 1 << 16]), st.booleans())
@settings(max_examples=1500, derandomize=True, deadline=None)
def test_chunked_reader_matches_the_loadtxt_reference(text, chunk_bytes, as_bytes):
    # tiny chunks cut the body at nearly every line end; the reference reads \n lines only
    magic = text.split(None, 1)[0]
    expected = _read_or_none(reference_read_table,
                             text.replace("\r\n", "\n").replace("\r", "\n"), magic)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(codes, "_CHUNK_BYTES", chunk_bytes)
        got = _read_or_none(codes._read_table, text.encode() if as_bytes else text, magic)
    assert got == expected


def test_chunks_cut_a_long_body_at_line_ends():
    text = code_to_text(execute_plan(plan_code(2, 15)))
    expected = _read_or_none(reference_read_table, text, "fpc1")
    for chunk_bytes in (1, 7, 64, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_CHUNK_BYTES", chunk_bytes)
            assert _read_or_none(codes._read_table, text, "fpc1") == expected
            # the last of the 393 rows loses an entry
            for read in (codes._read_table, reference_read_table):
                with pytest.raises(ValueError, match="columns changed from 4 to 3 at row 393"):
                    read(text[:-3] + "\n", "fpc1", *FORMATS["fpc1"])


# --- fuzzing --------------------------------------------------------------------

VALID = {
    "q3.fpc": code_to_text(base_code("q3")),
    "plain.fpc": code_to_text(make_code(2, 4, [(0, 3), (3, 0), (2, 2)])),
    "s3.oa": oa_to_text(build_oa_strength2(3)),
}
INSERTS = ["*", "_", "+", "#", "-", "٣", "７", "7", " ", "\n", str(2**63), str(2**64)]
HEADER_FIELDS = ["q=0", "q=1", "q=1_1", f"q={2**64}", "l=0", "l=9", "M=0", "M=99", "inf=none",
                 "inf=9", "inf=*", "N=0", "N=5", "k=0", "k=9", "s=1", "s=4", "t=0", "t=5",
                 "x=1", "fpc1", "oa1", "=", ""]


@st.composite
def mutated_texts(draw):
    """A valid text with one to three lines dropped, duplicated or edited.

    The magic word is kept, so every text reaches the reader.
    """
    name = draw(st.sampled_from(sorted(VALID)))
    lines = VALID[name].splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "header", "insert", "widen"]))
        i = draw(st.integers(1, len(lines) - 1))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "header":
            parts = lines[0].split()
            parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(HEADER_FIELDS))
            lines[0] = " ".join(parts) + "\n"
        elif kind == "insert":
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:pos] + draw(st.sampled_from(INSERTS)) + lines[i][pos:]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(
                draw(st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64])))
            lines[i] = " ".join(tokens) + "\n"
        if len(lines) < 2:
            break
    return name, "".join(lines)


class TestFuzzedFiles:
    @given(mutated_texts())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_only_contract_exits_and_no_traceback(self, tmp_path_factory, case):
        name, text = case
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_bytes(text.encode())
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = run(["--quiet", "import", str(path)])
        assert rc in (0, 1, 2, 64)
        assert "Traceback" not in err.getvalue()
        assert (rc == 0) == (err.getvalue() == "")


@given(st.one_of(
    codes_with_c(wide=True).map(lambda case: case[0]),
    starred_codes_with_t().map(lambda case: case[0]),
    starred_codes_with_t(wide=True).map(lambda case: case[0]),
))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_text_round_trip(code):
    assert code_from_text(code_to_text(code)) == code


def test_fpc_words_may_come_in_any_order():
    # readers sort the words and refuse repeats; writers emit lexicographic order
    code = code_from_text("fpc1 q=3 l=2 M=2 inf=none\n2 1\n1 2\n")
    assert code == code_from_text("fpc1 q=3 l=2 M=2 inf=none\n1 2\n2 1\n")
    assert code_to_text(code) == "fpc1 q=3 l=2 M=2 inf=none\n1 2\n2 1\n"
    with pytest.raises(ValueError, match=r"duplicate word \(2, 1\)"):
        code_from_text("fpc1 q=3 l=2 M=2 inf=none\n2 1\n2 1\n")


# --- the byte-table writer --------------------------------------------------------


@st.composite
def written_codes(draw):
    """Codes over a dense window of symbols or a sparse set, q up to 2**63, M from 0.

    The infinity id is None, 0, q-1 or an inner id, and is often one of
    the symbols.
    """
    length = draw(st.integers(1, 4))
    q = draw(st.sampled_from([2, 3, 10, 1001, 2**62, 2**63]) | st.integers(2, 2**63))
    inf_ids = [None, 0, q - 1] + ([draw(st.integers(1, q - 2))] if q > 2 else [])
    inf = draw(st.sampled_from(inf_ids))
    if draw(st.booleans()):
        lo = draw(st.integers(0, max(0, q - 12)))
        pool = list(range(lo, min(q, lo + 12)))
    else:
        pool = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=8))
    if inf is not None and draw(st.booleans()):
        pool.append(inf)
    words = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * length), unique=True,
                          max_size=12))
    return make_code(length, q, words, inf)


@st.composite
def written_arrays(draw):
    """Arrays of k rows and N = index * s**t random entries, N = 0 included."""
    k = draw(st.integers(1, 4))
    t = draw(st.integers(1, k))
    s = draw(st.integers(2, 6))
    n = draw(st.integers(0, max(0, 40 // s**t))) * s**t
    rows = draw(st.lists(st.lists(st.integers(0, s - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return make_oa(rows, s, t) if n else make_oa([[]] * k, draw(st.integers(2, 2**62)), t)


class TestWriter:
    @given(written_codes())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_code_bytes_match_the_reference(self, tmp_path_factory, code):
        text = code_to_text(code)
        assert text == reference_code_text(code)
        path = tmp_path_factory.mktemp("fpc") / "a.fpc"
        write_code_file(code, path)
        assert path.read_bytes() == text.encode()

    @given(written_arrays())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_oa_bytes_match_the_reference(self, tmp_path_factory, oa):
        text = oa_to_text(oa)
        assert text == reference_oa_text(oa)
        path = tmp_path_factory.mktemp("oa") / "a.oa"
        write_oa_file(oa, path)
        assert path.read_bytes() == text.encode()

    def test_edge_tables(self):
        # M = 0, N = 0, and symbols at both ends of the int64 range
        top = 2**63 - 1
        for code in (make_code(3, 7, [], inf_id=0),
                     make_code(2, 2**62, [(0, 2**62 - 1), (2**62 - 1, 0)], inf_id=2**62 - 1),
                     make_code(2, 2**63, [(top, top - 1), (top - 1, top)], inf_id=top - 1),
                     make_code(2, 2**63, [(top, top)], inf_id=0)):
            assert code_to_text(code) == reference_code_text(code)
        empty = make_oa([[], []], 3, 1)
        assert oa_to_text(empty) == reference_oa_text(empty) == "oa1 N=0 k=2 s=3 t=1\n\n\n"

    def test_many_symbol_tables(self, tmp_path):
        # 10**5 consecutive symbols whose names grow from 6 to 7 digits, the star among them
        dense = 999_950 + np.arange(10**5)
        sparse = np.concatenate([[7, 40], 2**62 + np.arange(3000) * 987_654_321_001])
        for symbols, star in ((dense, 1_000_003), (sparse, int(sparse[1500]))):
            rows = np.stack([symbols, np.roll(symbols, 1)], axis=1)
            code = make_code(2, int(symbols.max()) + 1, rows, inf_id=star)
            text = code_to_text(code)
            # lists, which pytest reports by first differing line: its diff of two long
            # strings runs for minutes
            assert text.split("\n") == reference_code_text(code).split("\n") and "*" in text
            write_code_file(code, tmp_path / "a.fpc")
            assert (tmp_path / "a.fpc").read_bytes() == text.encode()

    @pytest.mark.parametrize("rows, s, t", [([[], []], 3, 1), ([[]] * 3, 3, 2)])
    def test_arrays_with_no_runs_read_back(self, rows, s, t):
        # k blank rows are a k x 0 table; a blank body under M=1 is still refused
        oa = make_oa(rows, s, t)
        again = oa_from_text(oa_to_text(oa))
        assert again.array.shape == (len(rows), 0) and oa_to_text(again) == oa_to_text(oa)
        assert oa_from_text(f"oa1 N=0 k={len(rows)} s={s} t={t}\n").array.shape == (len(rows), 0)
        with pytest.raises(ValueError, match="k=2"):
            oa_from_text("oa1 N=1 k=2 s=3 t=1\n\n\n")
