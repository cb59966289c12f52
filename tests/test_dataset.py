"""Loading, validation, design construction, counterfactual substitution."""

import csv
import gc
import io
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscore import dataset
from gscore.dataset import (
    ColumnSchema,
    ModelSpec,
    TrialDataset,
    _canonical_arm,
    _is_missing,
    _parse_number,
    build_design,
    counterfactual_design,
    load_csv,
    stack_designs,
)
from gscore.errors import (
    DataError,
    DegenerateArmError,
    EmptyDataError,
    SchemaError,
)
from gscore.simulation import from_config


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def reference_load_csv(path: str, schema: ColumnSchema):
    """The row-by-row loader that the column-wise load_csv replaced, kept
    as its reference: each row is checked, dropped or parsed in file order
    with the same token helpers."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        used = [schema.outcome, schema.arm, *schema.covariates]
        missing_cols = [c for c in used if c not in header]
        if missing_cols:
            raise SchemaError(f"{path}: missing columns {missing_cols}")
        idx = {c: header.index(c) for c in used}

        y, arm, cov = [], [], []
        dropped = 0
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: data row {rownum} has {len(row)} fields, "
                    f"header has {len(header)}")
            tokens = {c: row[idx[c]] for c in used}
            if any(_is_missing(tokens[c]) for c in used):
                dropped += 1
                continue
            y.append(_parse_number(tokens[schema.outcome], schema.outcome, rownum))
            arm.append(_canonical_arm(tokens[schema.arm], schema.arm_map, rownum))
            cov.append([_parse_number(tokens[c], c, rownum)
                        for c in schema.covariates])

    if not y:
        raise EmptyDataError(f"{path}: no usable rows after dropping incomplete ones")
    data = TrialDataset(
        outcome=np.array(y),
        arm=np.array(arm),
        covariates=np.array(cov, dtype=float).reshape(len(y), len(schema.covariates)),
        covariate_names=schema.covariates,
    )
    return data, dropped


def load_outcome(loader, path, schema):
    """What ``loader`` gives on the file: each array's dtype, shape and
    bytes, the covariate names and the dropped count; or the exception's
    type and message."""
    try:
        data, dropped = loader(path, schema)
    except Exception as exc:  # the outcome compared is the exception
        return type(exc), str(exc)
    return loaded_outcome(data, dropped)


def loaded_outcome(data, dropped):
    """load_outcome of a loader that returned (data, dropped)."""
    arrays = (data.outcome, data.arm, data.covariates)
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            data.covariate_names, dropped)


# load_csv parses the file in blocks of dataset._BLOCK rows; the block
# sizes every reference comparison runs at, so that small files cross
# block boundaries too
BLOCK_SIZES = (1, 3, dataset._BLOCK)


def assert_loads_as_reference(path, schema):
    """load_csv gives the reference's outcome at every block size; that
    outcome is returned."""
    want = load_outcome(reference_load_csv, path, schema)
    for block in BLOCK_SIZES:
        with mock.patch.object(dataset, "_BLOCK", block):
            assert load_outcome(load_csv, path, schema) == want, block
    return want


# Tokens for the differential test.  float() reads the numbers, including
# padded ones, "1_0", infinities and signed NaNs (kept, not missing); the
# missing tokens are every spelling of _MISSING_TOKENS in mixed case.
NUMBERS = ["0", "1", "-2.5", " 3 ", "4e-1", "1_0", "0.1", "-0", "7.25"]
SPECIAL_NUMBERS = ["inf", "-Inf", "-nan", "+nan", "+NaN"]
MISSING = ["", " ", "NA", "na", "nA", "nan", "NaN", " NAN ", "N/A", "n/a",
           "null", "NULL", "Null"]
NON_NUMERIC = ["oops", "1,5", "1.2.3", "--1", "x y", 'say "hi"', "1 2"]
# (arm_map, tokens that map into {1, 2}); 1.0 is arm 1 with no map
ARM_MAPS = [
    (None, ["1", "2", "1.0", " 2 ", "2.0"]),
    ({0: 1, 1: 2}, ["0", "1", "1.0", " 0 "]),
    ({"a": 1, "b": 2}, ["a", "b", " b "]),
    ({"1.0": 2, 2: 1}, ["1.0", "2", " 2.0"]),
    ({"ctl": 1, 7: 2, "x": 3}, ["ctl", "7", "7.0"]),
]
BAD_ARMS = ["3", "0", "x", "2.5", "-1", "arm", "1e9"]
# labels in the unused "site" column
SITES = ["a", "b", " a ", "site 3", "c"]


@st.composite
def csv_files(draw):
    """(text, schema): a random trial CSV and the schema to read it with.
    Most cells are clean; a row may have one or two cells replaced by a
    missing, non-numeric or special token, and one row may be ragged.
    Four of the five ARM_MAPS have a map, which sends the whole file down
    the token path."""
    arm_map, arms = draw(st.sampled_from(ARM_MAPS))
    covariates = draw(st.sampled_from([(), ("w1",), ("w2", "w1")]))
    columns = draw(st.permutations(["y", "arm", "w1", "w2", "site", "x"]))
    clean = dict.fromkeys(columns, NUMBERS) | {"arm": arms, "site": SITES}
    taints = {"missing": dict.fromkeys(columns, MISSING),
              "bad": dict.fromkeys(columns, NON_NUMERIC) | {"arm": BAD_ARMS},
              "special": dict.fromkeys(columns, SPECIAL_NUMBERS)}
    used = ["y", "arm", *covariates]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = {c: draw(st.sampled_from(clean[c])) for c in columns}
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))):
            taint = taints[draw(st.sampled_from(list(taints)))]
            c = draw(st.sampled_from(used * 3 + columns))
            row[c] = draw(st.sampled_from(taint[c]))
        rows.append([row[c] for c in columns])
    if rows and draw(st.sampled_from([False, False, False, True])):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    header = [draw(st.sampled_from([c, f" {c}"])) for c in columns]
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, quoting=quoting).writerows(
        [header, *rows])
    schema = ColumnSchema("y", "arm", covariates, arm_map=arm_map,
                          delimiter=delimiter)
    return buf.getvalue(), schema


# Tokens for files that NumPy's reader should take: numbers and arms it
# reads as float() does, and an unused text column, which may hold a
# quote character (csv then reads the rest of the file).
PLAIN_NUMBERS = ["0", "1", " 3 ", "-0", "4e-1", "1e-400", "-2.5",
                 "12345678901234567890123456789",
                 "0.1000000000000000055511151231257827021181583404541015625"]
# in some files only: a non-finite value fails the whole load
INFINITE = ["1e400", "inf"]
PLAIN_ARMS = ["1", "2", "1.0", " 2 "]
TEXT = ["txt", "two words", ""]
QUOTED_TEXT = ['say "hi"', '"quoted"', '"a{d}b"', '"two\nlines"']
# one row's taint: a token only the token path reads or rejects, put in a
# used column; a line it reads as a row to drop or of the wrong width; or
# a NUL in the unused column, which csv rejects before Python 3.11
TOKEN_TAINTS = ["1_0", "\u0661", "NA", "", "nan", "-nan", '"1"']
LINE_TAINTS = ["blank", "whitespace", "ragged", "empty fields", "NUL note"]


@st.composite
def plain_csv_files(draw):
    """(text, schema, taint_row): a CSV with no arm map, and the 0-based
    data row of its one taint (None when it has none).  Line endings, a
    final newline, a byte-order mark and the delimiter vary; about a
    third of the files carry a taint."""
    covariates = draw(st.sampled_from([(), ("w1",), ("w2", "w1")]))
    columns = draw(st.permutations(["y", "arm", "w1", "w2", "note"]))
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    text = TEXT + draw(st.sampled_from([[], [], [], [q.format(d=delimiter)
                                                     for q in QUOTED_TEXT]]))
    numbers = PLAIN_NUMBERS + draw(st.sampled_from([[], [], INFINITE]))
    tokens = dict.fromkeys(columns, numbers) | {"arm": PLAIN_ARMS,
                                                "note": text}
    rows = [[draw(st.sampled_from(tokens[c])) for c in columns]
            for _ in range(draw(st.integers(0, 10)))]
    lines = [delimiter.join(row) for row in rows]
    taint_row = None
    if rows and draw(st.integers(0, 2)) == 0:
        taint_row = draw(st.integers(0, len(rows) - 1))
        taint = draw(st.sampled_from(TOKEN_TAINTS + LINE_TAINTS))
        row = rows[taint_row]
        if taint in TOKEN_TAINTS:
            row[columns.index(draw(st.sampled_from(
                ["y", "arm", *covariates])))] = taint
        elif taint == "NUL note":
            row[columns.index("note")] = "\0"
        lines[taint_row] = {
            "blank": "", "whitespace": " ",
            "ragged": delimiter.join([*row, "1"]),
            "empty fields": delimiter * (len(columns) - 1),
        }.get(taint, delimiter.join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    body = eol.join([delimiter.join(columns), *lines])
    body += draw(st.sampled_from([eol, ""]))
    body = draw(st.sampled_from(["", "\ufeff"])) + body
    schema = ColumnSchema("y", "arm", covariates, delimiter=delimiter)
    return body, schema, taint_row


class TestLoadCsv:
    def test_fixture_loads_complete(self, fixture_data):
        assert fixture_data.n == 20
        assert fixture_data.arm_sizes() == (10, 10)
        assert fixture_data.covariate_names == ("w1",)

    def test_rows_with_missing_values_are_dropped_and_counted(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1,0.5\n,2,0.1\n0,2,NA\n1,1,1.0\n0,2,0.3\n")
        data, dropped = load_csv(path, ColumnSchema("y", "arm", ("w",)))
        assert dropped == 2
        assert data.n == 3

    def test_missing_value_in_unused_column_is_kept(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w,extra\n1,1,0.5,NA\n0,2,0.1,\n0,1,0.0,7\n0,2,1.0,8\n")
        data, dropped = load_csv(path, ColumnSchema("y", "arm", ("w",)))
        assert dropped == 0
        assert data.n == 4

    def test_non_numeric_token_is_rejected_not_coerced(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1,0.5\noops,2,0.1\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_missing_column_is_a_schema_error(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,1\n0,2\n")
        with pytest.raises(SchemaError, match="w"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataError):
            load_csv(write_csv(tmp_path, ""), ColumnSchema("y", "arm"))

    def test_all_rows_incomplete(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\nNA,1\n,2\n")
        with pytest.raises(EmptyDataError):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_arm_relabel_map(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,0\n0,1\n1,0\n0,1\n")
        data, _ = load_csv(path, ColumnSchema("y", "arm", arm_map={0: 1, 1: 2}))
        assert sorted(np.unique(data.arm)) == [1, 2]
        # raw 0 became arm 1
        assert data.arm[0] == 1 and data.arm[1] == 2

    def test_arm_outside_domain_after_mapping(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,3\n0,1\n")
        with pytest.raises(DataError, match="arm"):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_single_arm_csv(self, tmp_path):
        path = write_csv(tmp_path, "y,arm\n1,1\n0,1\n")
        with pytest.raises(DegenerateArmError):
            load_csv(path, ColumnSchema("y", "arm"))

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,w\n1,1\n")
        with pytest.raises(DataError, match="fields"):
            load_csv(path, ColumnSchema("y", "arm", ("w",)))

    def test_quoted_fields(self, tmp_path):
        """Quoted names and fields, in used columns and in the unused
        "site" column, are read without their quotes."""
        path = write_csv(tmp_path,
                         '"y",arm,"site"\n1,"1","a"\n0,2,"b, c"\n"1",2,a\n')
        schema = ColumnSchema("y", "arm")
        data, _ = load_csv(path, schema)
        assert data.outcome.tolist() == [1, 0, 1]
        assert data.arm.tolist() == [1, 2, 2]
        assert_loads_as_reference(path, schema)

    def test_schema_role_collision(self):
        with pytest.raises(SchemaError):
            ColumnSchema(outcome="y", arm="y")

    def test_schema_has_no_stratum_role(self):
        """A stratum is a covariate: name its column in ``covariates``."""
        with pytest.raises(TypeError, match="stratum"):
            ColumnSchema("y", "arm", ("w",), stratum="site")

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r", 1,
                                           None])
    def test_bad_delimiter_is_a_schema_error(self, delimiter):
        """A delimiter csv rejects, or one that would be read as a quote
        or a line end, is named when the schema is made."""
        message = ("delimiter must be one character other than '\"', '\\r' "
                   f"and '\\n', got {delimiter!r}")
        with pytest.raises(SchemaError, match=re.escape(message)):
            ColumnSchema("y", "arm", ("w",), delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "|", "\u00a7"])
    def test_one_character_delimiters_load(self, tmp_path, delimiter):
        path = tmp_path / "d.csv"
        path.write_bytes("".join(
            delimiter.join(row) + "\n"
            for row in [["y", "arm", "w"], ["1", "1", "0.5"],
                        ["0", "2", "0.25"]]).encode())
        schema = ColumnSchema("y", "arm", ("w",), delimiter=delimiter)
        assert_loads_as_reference(str(path), schema)
        data, _ = load_csv(str(path), schema)
        assert data.covariates.tolist() == [[0.5], [0.25]]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Excel writes UTF-8 CSVs with a BOM before the first name."""
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,arm\n1,1\n0,2\n")
        data, dropped = load_csv(str(path), ColumnSchema("y", "arm"))
        assert (data.n, dropped) == (2, 0)

    def test_used_column_named_twice_is_a_schema_error(self, tmp_path):
        path = write_csv(tmp_path, "y,arm,y\n1,1,0\n0,2,1\n")
        with pytest.raises(SchemaError, match="'y'"):
            load_csv(path, ColumnSchema("y", "arm"))
        # a repeated column the schema does not use is no error
        path = write_csv(tmp_path, "y,arm,x,x\n1,1,0,0\n0,2,1,1\n")
        assert load_csv(path, ColumnSchema("y", "arm"))[0].n == 2

    @pytest.mark.parametrize("text, covariates, message", [
        ("y,arm,w\n1,1,0.5\n1,2\noops,2,0.1\n", ("w",),
         "data row 2 has 2 fields"),
        ("y,arm,w\n1,1,0.5\noops,2,0.1\n1,2\n", ("w",),
         "'oops' in column 'y', data row 2"),
        ("y,arm,w\n1,1,0.5\noops,2,bad\n", ("w",), "column 'y'"),
        ("y,arm,w\n1,1,0.5\n0,9,bad\n", ("w",), "arm value '9'"),
        ("y,arm,w,v\n1,1,0.5,1\n0,2,bad,worse\n", ("v", "w"),
         "'worse' in column 'v'"),
        ("y,arm,w\n1,1,0.5\noops,2,NA\n0,9,0.1\n", ("w",),
         "arm value '9' .* data row 3"),
    ], ids=["ragged-first", "parse-first", "outcome-then-covariate",
            "arm-then-covariate", "covariates-in-schema-order",
            "dropped-row-not-parsed"])
    def test_first_bad_row_wins(self, tmp_path, text, covariates, message):
        """The first bad row in file order is reported; within a row a
        wrong field count, then outcome, arm and covariates in schema
        order.  A row with a missing token is dropped unparsed."""
        path = write_csv(tmp_path, text)
        schema = ColumnSchema("y", "arm", covariates)
        with pytest.raises(DataError, match=message):
            load_csv(path, schema)
        assert_loads_as_reference(path, schema)

    @pytest.mark.parametrize("first_row", ["oops,1,0.5", "1,1,0.5"])
    def test_read_error_after_a_bad_row(self, tmp_path, first_row):
        """A byte that is not UTF-8 past the first read-ahead chunk is
        raised only when no row read before it is bad."""
        path = tmp_path / "late.csv"
        path.write_bytes(f"y,arm,w\n{first_row}\n".encode()
                         + b"1,2,0.5\n" * 4000 + b"0,2,\xff\n")
        schema = ColumnSchema("y", "arm", ("w",))
        got = assert_loads_as_reference(str(path), schema)
        assert got[0] is (DataError if first_row.startswith("oops")
                          else UnicodeDecodeError)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(csv_files())
    def test_matches_the_row_by_row_reference(self, tmp_path_factory, case):
        """Bit-identical arrays and dropped counts, or the same exception
        type and message, on random files of clean, padded, special,
        missing and non-numeric tokens, ragged rows, relabel maps,
        quoting, delimiters and an unused text column."""
        text, schema = case
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        path.write_bytes(text.encode())
        assert_loads_as_reference(str(path), schema)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(plain_csv_files())
    def test_numpy_reader_matches_the_row_by_row_reference(
            self, tmp_path_factory, case):
        """Files NumPy's reader should take, some with one row only the
        token path reads or rejects, load as the reference does.  At
        blocks of 3 lines, every block before the first with a taint or
        a quote character is read by NumPy's reader, and the token path
        reads the rest of the file from the first block it declines."""
        text, schema, taint_row = case
        path = tmp_path_factory.mktemp("plain") / "d.csv"
        path.write_bytes(text.encode())
        assert_loads_as_reference(str(path), schema)

        plain = dataset._plain_block
        taken = []  # per raw block given to NumPy's reader: taken or not

        def plain_block(lines, *args):
            part = plain(lines, *args)
            taken.append(part is not None)
            return part

        with mock.patch.object(dataset, "_BLOCK", 3), \
                mock.patch.object(dataset, "_plain_block", plain_block):
            load_outcome(load_csv, str(path), schema)
        lines = text.splitlines()[1:]
        quoted = [i for i, line in enumerate(lines) if '"' in line]
        first = min([len(lines), *quoted]
                    + ([] if taint_row is None else [taint_row]))
        # a clean file's last block is plain; the empty one after it is not
        plain_blocks = first // 3 if first < len(lines) else -(-first // 3)
        assert taken == [True] * plain_blocks + [False]


class TestLoadCsvBlocks:
    """load_csv reads blocks of rows in turn; a block boundary must not
    change a result, an error or its row number.  Each case runs at
    blocks of 3 rows, where the boundaries sit after rows 3, 6, 9, ...,
    and at the other BLOCK_SIZES."""

    @pytest.mark.parametrize("rows, message", [
        (["1,1,0.5"] * 3 + ["0,2"], "data row 4 has 2 fields"),
        (["1,1,0.5"] * 4 + ["0,2,0.1,9"], "data row 5 has 4 fields"),
        (["1,1,0.5", "0,2,0.1", "oops,2,0.1", "0,2"],
         "'oops' in column 'y', data row 3"),
    ], ids=["ragged-row-opens-a-block", "long-row-in-a-clean-block",
            "bad-last-row-then-ragged"])
    def test_errors_across_a_block_boundary(self, tmp_path, rows, message):
        path = write_csv(tmp_path, "y,arm,w\n" + "\n".join(rows) + "\n")
        schema = ColumnSchema("y", "arm", ("w",))
        with mock.patch.object(dataset, "_BLOCK", 3), \
                pytest.raises(DataError, match=message):
            load_csv(path, schema)
        assert_loads_as_reference(path, schema)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("token", TOKEN_TAINTS)
    def test_one_token_numpy_must_not_read(self, tmp_path, token, column):
        """A token that only the token path reads or rejects, in one row
        of an otherwise clean file, loads as the reference does."""
        rows = [[str(i % 2), str(1 + i % 2), str(i / 4)] for i in range(8)]
        rows[4][column] = token
        path = write_csv(tmp_path, "y,arm,w\n"
                         + "\n".join(map(",".join, rows)) + "\n")
        assert_loads_as_reference(path, ColumnSchema("y", "arm", ("w",)))

    @pytest.mark.parametrize("m", [9, 10])
    def test_clean_blocks_go_through_numpy(self, tmp_path, m):
        """Every block of a clean file is parsed by one np.loadtxt call,
        and the empty block after a last full one by none."""
        rows = [f"{i % 2},{1 + i % 2},{i / 4}" for i in range(m)]
        path = write_csv(tmp_path, "y,arm,w\n" + "\n".join(rows) + "\n")
        schema = ColumnSchema("y", "arm", ("w",))
        with mock.patch.object(dataset, "_BLOCK", 3), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            got = load_outcome(load_csv, path, schema)
        assert spy.call_count == -(-m // 3)
        assert got == load_outcome(reference_load_csv, path, schema)

    def test_arm_token_first_seen_in_a_later_block(self, tmp_path):
        """Each distinct arm token is read once and its reading shared by
        later blocks: a new valid token maps, and a bad token met first
        in a dropped row still fails where it is next used."""
        schema = ColumnSchema("y", "arm", ("w",), arm_map={"a": 1, "b": 2})
        clean = "y,arm,w\n1,a,0\n0,a,1\n1,a,2\n0,b,3\n1,b,4\n0,a,5\n"
        path = write_csv(tmp_path, clean)
        with mock.patch.object(dataset, "_BLOCK", 3):
            data, dropped = load_csv(path, schema)
        assert data.arm.tolist() == [1, 1, 1, 2, 2, 1] and dropped == 0
        assert_loads_as_reference(path, schema)

        path = write_csv(tmp_path, "y,arm,w\n1,a,0\nNA,z,1\n1,b,2\n"
                         "0,a,3\n1,z,4\n", name="late.csv")
        with mock.patch.object(dataset, "_BLOCK", 3), \
                pytest.raises(DataError, match="'z' not in relabel map, "
                                               "data row 5"):
            load_csv(path, schema)
        assert_loads_as_reference(path, schema)

    def test_block_with_every_row_dropped(self, tmp_path):
        """The second block of 3 rows loses each row to a missing token in
        a used column; the token path reads it and the rows after it."""
        rows = ["1,1,0.5,a", "0,2,0.1,b", "1,2,0.3,a",
                "NA,1,0.5,a", "1,,0.2,b", "0,2,null,b",
                "0,1,0.7,b", "1,2,0.9, c "]
        path = write_csv(tmp_path, "y,arm,w,site\n" + "\n".join(rows)
                         + "\n")
        schema = ColumnSchema("y", "arm", ("w",))
        with mock.patch.object(dataset, "_BLOCK", 3):
            data, dropped = load_csv(path, schema)
        assert dropped == 3
        assert data.outcome.tolist() == [1, 0, 1, 0, 1]
        assert data.covariates[:, 0].tolist() == [0.5, 0.1, 0.3, 0.7, 0.9]
        assert_loads_as_reference(path, schema)

    def test_decode_error_in_a_later_block(self, tmp_path):
        """A byte that is not UTF-8 after many clean blocks is raised, and
        no row after it is looked at."""
        path = tmp_path / "late.csv"
        path.write_bytes(b"y,arm,w\n" + b"1,2,0.5\n0,1,0.25\n" * 2000
                         + b"0,2,\xff\noops,1,0.5\n")
        got = assert_loads_as_reference(str(path),
                                        ColumnSchema("y", "arm", ("w",)))
        assert got[0] is UnicodeDecodeError

    def test_decode_error_inside_a_quoted_field(self, tmp_path):
        """A byte that is not UTF-8 met while a quoted field spans lines
        is raised, not the field count of the row cut short by it."""
        path = tmp_path / "late.csv"
        path.write_bytes(b"y,arm,w\n" + b"1,2,0.5\n" * 1000 + b'0,"2\n'
                         + (b"x" * 20 + b"\n") * 30 + b"0,2,\xff\n")
        got = assert_loads_as_reference(str(path),
                                        ColumnSchema("y", "arm", ("w",)))
        assert got[0] is UnicodeDecodeError

    @pytest.mark.parametrize("second_row", ["oops,2,0.1", "0,2,0.1"])
    def test_csv_error_keeps_the_rows_read_before_it(self, tmp_path,
                                                     second_row):
        """A field over csv's size limit stops reading; a bad row of the
        same block read before it is still the error reported."""
        huge = "9" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path, f"y,arm,w\n1,1,0.5\n{second_row}\n"
                         f"1,2,{huge}\n0,1,0.2\n")
        got = assert_loads_as_reference(path, ColumnSchema("y", "arm", ("w",)))
        assert got[0] is (DataError if second_row.startswith("oops")
                          else csv.Error)

    def test_large_file_starts_no_collection_and_holds_no_tokens(
            self, tmp_path):
        """On a 20,000-row file no row list outlives its block, so after
        a full collection a load starts no collection of any generation
        at CPython's default thresholds, and its traced peak stays within
        3x the arrays it returns (the tokens of the whole file, as a
        whole-file read holds them, take about 10x)."""
        n = 20000
        rng = np.random.default_rng(7)
        W = rng.standard_normal((n, 4))
        W[:, 3] = W[:, 3] > 0.25
        y = (rng.random(n) < 0.3).astype(float)
        arm = rng.integers(1, 3, n)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["y", "arm", "W1", "W2", "W3", "W4"])
        writer.writerows([repr(float(y[i])), int(arm[i]),
                          *map(repr, W[i].tolist())] for i in range(n))
        path = tmp_path / "large.csv"
        path.write_text(buf.getvalue())
        schema = ColumnSchema("y", "arm", ("W1", "W2", "W3", "W4"))

        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        thresholds = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        gc.collect()
        gc.callbacks.append(count)
        tracemalloc.start()
        try:
            data, dropped = load_csv(str(path), schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.callbacks.remove(count)
            gc.set_threshold(*thresholds)
        assert (data.n, dropped) == (n, 0)
        assert loaded_outcome(data, dropped) == load_outcome(
            reference_load_csv, str(path), schema)
        assert starts == []
        result = data.outcome.nbytes + data.arm.nbytes + data.covariates.nbytes
        assert peak < 3 * result, (peak, result)


def reference_plain_block(lines, usecols, width, delimiter):
    """_plain_block with its shape rules tested line by line, each line's
    delimiters counted and every line measured: the reference for the
    block-level shape test."""
    text = "".join(lines)
    if ('"' in text or "\0" in text
            or set(map(str.count, lines, itertools.repeat(delimiter)))
            != {width - 1}
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        values = np.loadtxt(lines, delimiter=delimiter, comments=None,
                            quotechar=None, usecols=usecols, dtype=float,
                            ndmin=2)
    except ValueError:
        return None
    arm = values[:, 1]
    if (len(values) != len(lines) or np.isnan(values).any()
            or not ((arm == 1) | (arm == 2)).all()):
        return None
    return values[:, 0], arm.astype(int), values[:, 2:]


def file_lines(text):
    """text's lines as load_csv reads them from a file: split after each
    "\n", "\r\n" or bare "\r", the endings kept."""
    return io.StringIO(text, newline="").readlines()


LIMIT = csv.field_size_limit()
# (data lines after a "y,arm,w,note" header, with "," for the delimiter;
# whether the block is plain).  Each non-plain block with the right total
# of delimiters or of line ends is read by NumPy (the note column is not
# used), so only the shape rules decline it.
SHAPE_CASES = {
    "clean": ("1,1,0.5,a\n0,2,0.25,b\n1,2,-1,c\n", True),
    "clean-crlf": ("1,1,0.5,a\r\n0,2,0.25,b\r\n1,2,-1,c\r\n", True),
    "counts-compensate": ("1,1,0.5,a,9\n0,2,0.25\n", False),
    "counts-compensate-crlf": ("1,2,0.5\r\n0,1,0.25,b,9\r\n", False),
    "counts-compensate-over-3": ("1,1,0.5,a,9\n0,2,0.25,b\n1,2,-1\n",
                                 False),
    "mixed-endings": ("1,1,0.5,a\n0,2,0.25,b\r\n1,2,-1,c\n", True),
    "bare-cr-endings": ("1,1,0.5,a\r0,2,0.25,b\r", True),
    "last-line-unterminated": ("1,1,0.5,a\n0,2,0.25,b", True),
    "unterminated-compensates": ("1,1,0.5,a,9\n0,2,0.25", False),
    "blank-line": ("1,1,0.5,a\n\n0,2,0.25,b\n", False),
    "non-ascii-field": ("1,1,0.5,\u00e9t\u00e9\n0,2,0.25,b\n", True),
    "non-ascii-compensates": ("1,1,0.5,\u00e9,9\n0,2,0.25\n", False),
    "line-over-the-limit": (f"1,1,0.5,{'x' * LIMIT}\n0,2,0.25,b\n", False),
    "block-over-the-limit": (f"1,1,0.5,{'x' * (LIMIT // 2)}\n"
                             f"0,2,0.25,{'y' * (LIMIT // 2)}\n1,2,-1,c\n",
                             True),
}


@st.composite
def shaped_blocks(draw):
    """(lines, width, delimiter): a block as load_csv reads it from a file.
    Every line starts with ``width - 1`` delimiters; up to two moves take
    one or two from one line to another, and a line may then get any
    count.  Each line ends as the block's lines mostly do ("\n" or
    "\r\n"), or in "\n", "\r\n", "\r" or nothing, which joins it to
    the next.  Some blocks hold a non-ASCII field."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "\u00a7"]))
    width = draw(st.integers(2, 5))
    field = st.sampled_from(["1", "0.5", "", "x"]
                            + draw(st.sampled_from([[], [], ["\u00e9"]])))
    counts = [width - 1] * draw(st.integers(0, 6))
    if counts:
        index = st.integers(0, len(counts) - 1)
        for _ in range(draw(st.integers(0, 2))):
            i, j, moved = draw(index), draw(index), draw(st.integers(1, 2))
            if counts[j] >= moved:
                counts[i] += moved
                counts[j] -= moved
        if draw(st.integers(0, 3)) == 0:
            counts[draw(index)] = draw(st.integers(0, width))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ends = st.sampled_from([eol] * 6 + ["\n", "\r\n", "\r", ""])
    text = "".join(
        delimiter.join(draw(st.lists(field, min_size=k + 1, max_size=k + 1)))
        + draw(ends) for k in counts)
    return file_lines(text), width, delimiter


class TestPlainBlockShape:
    """_plain_block tests a block's shape on its bytes first and falls back
    to the per-line rule, and takes exactly the blocks that rule takes."""

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "\u00a7"])
    @pytest.mark.parametrize("case", list(SHAPE_CASES))
    def test_takes_the_blocks_the_per_line_rule_takes(self, tmp_path, case,
                                                      delimiter):
        body, plain = SHAPE_CASES[case]
        body = body.replace(",", delimiter)
        lines = file_lines(body)
        got = dataset._plain_block(lines, [0, 1, 2], 4, delimiter,
                                   dataset._shape_bytes(delimiter))
        want = reference_plain_block(lines, [0, 1, 2], 4, delimiter)
        assert (got is not None, want is not None) == (plain, plain)
        if plain:
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        path = tmp_path / "d.csv"
        path.write_bytes(delimiter.join(["y", "arm", "w", "note"]).encode()
                         + b"\n" + body.encode())
        assert_loads_as_reference(
            str(path), ColumnSchema("y", "arm", ("w",), delimiter=delimiter))

    def test_no_lines_is_not_plain(self):
        assert dataset._plain_block([], [0, 1, 2], 4, ",",
                                    dataset._shape_bytes(",")) is None

    def test_clean_ascii_block_is_judged_on_its_bytes(self):
        """A clean ASCII block with one kind of line end never reaches the
        per-line count: its lines are not iterated."""

        class Unread(list):
            def __iter__(self):
                raise AssertionError("lines iterated")

        for eol in ("\n", "\r\n"):
            assert dataset._has_width(
                Unread([f"1,2,0.5,a{eol}"] * 5), f"1,2,0.5,a{eol}" * 5, 4,
                ",", dataset._shape_bytes(","))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(shaped_blocks())
    def test_has_width_matches_the_per_line_count(self, case):
        """On random blocks whose delimiter counts are right, moved
        between lines so the total stays right, or changed on one line,
        and whose line ends are mostly of one kind, _has_width is the
        per-line rule."""
        lines, width, delimiter = case
        assert dataset._has_width(
            lines, "".join(lines), width, delimiter,
            dataset._shape_bytes(delimiter)
        ) == (set(map(str.count, lines, itertools.repeat(delimiter)))
              == {width - 1})


class TestTrialDataset:
    def test_arrays_are_immutable(self, fixture_data):
        for arr in (fixture_data.outcome, fixture_data.arm,
                    fixture_data.covariates):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_nonfinite_outcome_rejected(self):
        with pytest.raises(DataError):
            TrialDataset(outcome=np.array([1.0, np.nan]),
                         arm=np.array([1, 2]),
                         covariates=np.empty((2, 0)), covariate_names=())

    def test_too_small(self):
        with pytest.raises(EmptyDataError):
            TrialDataset(outcome=np.array([1.0]), arm=np.array([1]),
                         covariates=np.empty((1, 0)), covariate_names=())

    @pytest.mark.parametrize("arm, bad", [
        ([1, 0, 2, 1], [0]),
        ([3, 1, 2, 2], [3]),
        ([1, 2, -1, 2], [-1]),
        ([1, 3, 2, 0, 3, -1, 0], [-1, 0, 3]),
    ], ids=["zero", "three", "minus-one", "mixed"])
    def test_arm_labels_outside_one_two(self, arm, bad):
        """The error lists each bad label once, sorted, as plain
        integers."""
        message = f"arm labels outside {{1, 2}}: {bad}"
        with pytest.raises(DataError, match=re.escape(message)) as exc:
            TrialDataset(outcome=np.zeros(len(arm)), arm=np.array(arm),
                         covariates=np.empty((len(arm), 0)),
                         covariate_names=())
        assert str(exc.value) == message

    def test_no_stratum_field(self):
        """A stratum is a covariate column, not a separate label field."""
        with pytest.raises(TypeError, match="stratum"):
            TrialDataset(outcome=np.zeros(2), arm=np.array([1, 2]),
                         covariates=np.empty((2, 0)), covariate_names=(),
                         stratum=np.array([0, 1]))

    @pytest.mark.parametrize("arm, missing", [([1, 1, 1], 2), ([2, 2], 1)])
    def test_missing_arm_is_degenerate(self, arm, missing):
        with pytest.raises(DegenerateArmError) as exc:
            TrialDataset(outcome=np.zeros(len(arm)), arm=np.array(arm),
                         covariates=np.empty((len(arm), 0)),
                         covariate_names=())
        assert str(exc.value) == f"arm {missing} has no subjects"


class TestModelSpec:
    def test_unknown_family(self):
        with pytest.raises(SchemaError, match="family"):
            ModelSpec(family="probit")

    def test_duplicate_covariates(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ModelSpec(family="bernoulli-logit", covariates=("w", "w"))

    @pytest.mark.parametrize("value", ["false", "no", "0", "true", None, 2])
    def test_heterogeneous_must_be_true_or_false(self, value):
        """A quoted YAML "false" is not silently a per-arm model."""
        with pytest.raises(SchemaError, match="heterogeneous"):
            from_config(ModelSpec, {"family": "bernoulli-logit",
                                    "heterogeneous": value}, "model")


def two_subject_data():
    return TrialDataset(outcome=np.array([1.0, 0.0]), arm=np.array([1, 2]),
                        covariates=np.array([[3.0, -1.0], [5.0, 2.0]]),
                        covariate_names=("w", "v"))


class TestBuildDesign:
    def test_homogeneous_layout(self):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",)))
        assert d.column_labels == ("arm1", "arm2", "w")
        np.testing.assert_array_equal(d.X, [[1, 0, 3], [0, 1, 5]])

    def test_heterogeneous_layout(self):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",),
                                   heterogeneous=True))
        assert d.column_labels == ("arm1", "arm2", "w:arm1", "w:arm2")
        np.testing.assert_array_equal(d.X, [[1, 0, 3, 0], [0, 1, 0, 5]])

    def test_every_row_has_exactly_one_arm_indicator(self, fixture_data):
        d = build_design(fixture_data, ModelSpec("bernoulli-logit", ("w1",)))
        np.testing.assert_array_equal(d.X[:, 0] + d.X[:, 1], np.ones(d.n))

    def test_unknown_covariate(self, fixture_data):
        with pytest.raises(SchemaError, match="nope"):
            build_design(fixture_data, ModelSpec("bernoulli-logit", ("nope",)))

    def test_constant_covariate_heterogeneous_warns_not_fails(self):
        data = TrialDataset(outcome=np.array([1.0, 0.0, 1.0, 0.0]),
                            arm=np.array([1, 2, 1, 2]),
                            covariates=np.ones((4, 1)),
                            covariate_names=("c",))
        with pytest.warns(UserWarning, match="constant"):
            build_design(data, ModelSpec("bernoulli-logit", ("c",),
                                         heterogeneous=True))

    def test_arm_only_design(self, fixture_data):
        d = build_design(fixture_data, ModelSpec("bernoulli-logit"))
        assert d.p == 2

    @pytest.mark.parametrize("heterogeneous", [False, True])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_stored_one_column_per_row(self, heterogeneous, batch):
        """X is the (..., n, p) view of a read-only C-contiguous (..., p, n)
        array, and each counterfactual design a writable one built in the
        same layout; all are the same numbers as a row-major build."""
        rng = np.random.default_rng(5)
        n = 7
        arm = rng.permuted(np.tile([1, 2, 1, 2, 1, 2, 2], batch + (1,)),
                           axis=-1)
        w = rng.standard_normal(batch + (n, 3))
        spec = ModelSpec("gaussian-identity", ("c", "a"), heterogeneous)
        d = stack_designs(arm, w, ("a", "b", "c"), spec)
        a1 = (arm == 1)[..., None]
        cols = w[..., [2, 0]]
        assert not d.X.flags.writeable and not d.X.mT.flags.writeable
        for Xa, ind in ((d.X, a1), (counterfactual_design(d, 1), True),
                        (counterfactual_design(d, 2), False)):
            assert Xa.shape == batch + (n, d.p)
            assert Xa.mT.flags.c_contiguous
            assert Xa.flags.writeable == (Xa is not d.X)
            ind = np.broadcast_to(ind, batch + (n, 1)).astype(float)
            want = np.concatenate(
                [ind, 1.0 - ind, cols * ind, cols * (1.0 - ind)]
                if heterogeneous else [ind, 1.0 - ind, cols], axis=-1)
            np.testing.assert_array_equal(Xa, want)


class TestCounterfactual:
    @pytest.mark.parametrize("covariates, X1, X2", [
        (("w",), [[1, 0, 3], [1, 0, 5]], [[0, 1, 3], [0, 1, 5]]),
        ((), [[1, 0], [1, 0]], [[0, 1], [0, 1]]),
    ], ids=["w", "arm-only"])
    def test_homogeneous_sets_arm_columns_only(self, covariates, X1, X2):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", covariates))
        np.testing.assert_array_equal(counterfactual_design(d, 1), X1)
        np.testing.assert_array_equal(counterfactual_design(d, 2), X2)

    @pytest.mark.parametrize("covariates, X1, X2", [
        (("w",), [[1, 0, 3, 0], [1, 0, 5, 0]], [[0, 1, 0, 3], [0, 1, 0, 5]]),
        (("w", "v"), [[1, 0, 3, -1, 0, 0], [1, 0, 5, 2, 0, 0]],
         [[0, 1, 0, 0, 3, -1], [0, 1, 0, 0, 5, 2]]),
    ], ids=["w", "w-v"])
    def test_heterogeneous_moves_covariate_between_arm_slots(
            self, covariates, X1, X2):
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", covariates,
                                   heterogeneous=True))
        np.testing.assert_array_equal(counterfactual_design(d, 1), X1)
        np.testing.assert_array_equal(counterfactual_design(d, 2), X2)

    def test_bad_arm_value(self, fixture_design):
        with pytest.raises(ValueError):
            counterfactual_design(fixture_design, 3)

    def test_consistency_rows_match_observed_design(self):
        """Subjects observed on arm a keep identical rows under setting a."""
        rng = np.random.default_rng(42)
        from conftest import random_trial

        for trial in range(20):
            data = random_trial(rng, n=30, q=3)
            het = bool(trial % 2)
            d = build_design(data, ModelSpec("gaussian-identity",
                                             ("w1", "w2", "w3"),
                                             heterogeneous=het))
            for a in (1, 2):
                Xa = counterfactual_design(d, a)
                rows = data.arm == a
                np.testing.assert_array_equal(Xa[rows], d.X[rows])

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_built_on_demand_as_fresh_writable_copies(self, heterogeneous):
        """The design stores X alone; each call builds a new counterfactual
        design, and writing to one changes neither X nor the next one."""
        d = build_design(two_subject_data(),
                         ModelSpec("bernoulli-logit", ("w",),
                                   heterogeneous=heterogeneous))
        before = d.X.copy()
        for a in (1, 2):
            Xa = counterfactual_design(d, a)
            want = Xa.copy()
            assert Xa is not counterfactual_design(d, a)
            assert Xa.flags.writeable
            Xa[0, 0] = 7.0
            np.testing.assert_array_equal(counterfactual_design(d, a), want)
        np.testing.assert_array_equal(d.X, before)

    def test_counterfactual_does_not_mutate_design(self, fixture_design):
        before = fixture_design.X.copy()
        counterfactual_design(fixture_design, 2)
        np.testing.assert_array_equal(fixture_design.X, before)
