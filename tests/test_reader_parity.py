"""``parse_dataset_csv`` reads the body with numpy's C reader and falls back to
the row scan; both must give the same columns, bit for bit, or the same error.

Where ``np.loadtxt`` and ``csv`` plus ``float()`` read a file differently
(blank lines, ``#``, quotes, NUL, a cut-off string field), the C path must
decline the file, so that the row scan reads it.
"""

import csv
import importlib.util
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from tramsurv.cli import _dataset_from_rows, _dataset_from_text, parse_dataset_csv
from tramsurv.core import validate_dataset
from tramsurv.errors import TramsurvError

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _header(handle):
    return [column.strip() for column in next(csv.reader(handle))]


def _row_scan(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [column.strip() for column in next(reader)]
        return _dataset_from_rows(path, header, reader)


def _c_reader(path):
    """The C reader's dataset, or None where it leaves the file to the row scan."""
    with open(path, newline="") as handle:
        return _dataset_from_text(path, _header(handle), handle.encoding)


def _columns(dataset):
    return (
        dataset.feature_names,
        *((c.shape, c.dtype.str, c.tobytes()) for c in (dataset.x, dataset.t_lower,
                                                        dataset.t_upper, dataset.kind)),
    )


def _outcome(read, path):
    """Columns of a successful read, or the error's type, code and message."""
    try:
        return ("ok", _columns(read(path)))
    except Exception as exc:  # the row scan may raise more than TramsurvError
        return ("error", type(exc).__name__, getattr(exc, "code", None), str(exc))


def _assert_parity(path):
    """The C reader agrees with the row scan, or declines; returns whether it read."""
    scanned = _outcome(_row_scan, path)
    assert _outcome(parse_dataset_csv, path) == scanned
    read = _c_reader(path)
    if read is not None:
        assert ("ok", _columns(read)) == scanned
    return read is not None


def _file(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return path


def _error(path):
    with pytest.raises(TramsurvError) as info:
        parse_dataset_csv(path)
    return info.value.code, str(info.value)


class TestPinnedDisagreements:
    """Inputs ``np.loadtxt`` reads differently by default; the row scan decides."""

    def test_blank_line_names_its_line(self, tmp_path):
        path = _file(tmp_path, "time,status,x\n1,exact,2\n\n3,exact,4\n")
        assert not _assert_parity(path)
        assert _error(path) == ("E_MISSING_COLUMN", f"{path}: line 3: 0 cells for 3 columns")

    def test_trailing_blank_line(self, tmp_path):
        path = _file(tmp_path, "time,status,x\r\n1,exact,2\r\n\r\n")
        assert not _assert_parity(path)
        assert _error(path) == ("E_MISSING_COLUMN", f"{path}: line 3: 0 cells for 3 columns")

    def test_only_blank_lines_after_the_header(self, tmp_path):
        path = _file(tmp_path, "time,status,x\n\n\n")
        assert not _assert_parity(path)
        assert _error(path) == ("E_MISSING_COLUMN", f"{path}: line 2: 0 cells for 3 columns")

    def test_hash_inside_a_cell_is_not_a_comment(self, tmp_path):
        path = _file(tmp_path, "time,status,x\n1,exact,1 # c\n")
        assert not _assert_parity(path)
        assert _error(path) == (
            "E_NON_NUMERIC_COVARIATE", f"{path}: line 2: column 'x' value '1 # c' is not numeric"
        )

    def test_hash_at_line_start_is_not_a_comment(self, tmp_path):
        path = _file(tmp_path, "time,status,x\n#1,exact,2\n")
        assert not _assert_parity(path)
        assert _error(path) == (
            "E_NON_NUMERIC_COVARIATE", f"{path}: line 2: time value '#1' is not numeric"
        )

    def test_header_only_is_an_empty_dataset(self, tmp_path):
        for text in ("time,status,x\n", "time,status,x"):
            path = _file(tmp_path, text)
            assert not _assert_parity(path)
            dataset = parse_dataset_csv(path)
            assert (dataset.n, dataset.p) == (0, 1)
            with pytest.raises(TramsurvError) as info:
                validate_dataset(dataset)
            assert info.value.code == "E_EMPTY_DATASET"


class TestPinnedCells:
    @pytest.mark.parametrize(
        "cell, value, c_reader",
        [
            ("1_000", 1000.0, False),  # float() takes underscores, numpy does not
            (" 2.5 ", 2.5, True),
            ("infinity", np.inf, True),
            ("-Infinity", -np.inf, True),
            ("nan", np.nan, True),
            ("1e500", np.inf, True),
            ("-0.0", -0.0, True),
        ],
    )
    def test_float_cell(self, tmp_path, cell, value, c_reader):
        path = _file(tmp_path, f"time,status,x\n1,exact,{cell}\n")
        assert _assert_parity(path) == c_reader
        got = parse_dataset_csv(path).x[0, 0]
        assert np.array(got).tobytes() == np.array(float(cell)).tobytes()
        np.testing.assert_equal(got, value)

    @pytest.mark.parametrize("cell", ["0x1p3", "1.5d3", "\x1c2", "2\x00", "", "1,5"])
    def test_rejected_float_cell(self, tmp_path, cell):
        path = _file(tmp_path, f"time,status,x\n1,exact,{cell}\n")
        assert not _assert_parity(path)
        code, _ = _error(path)
        assert code in ("E_NON_NUMERIC_COVARIATE", "E_MISSING_COLUMN")

    def test_quoted_header_name(self, tmp_path):
        path = _file(tmp_path, '"time",status,"dose, mg"\n1,exact,2\n')
        assert not _assert_parity(path)
        assert parse_dataset_csv(path).feature_names == ["dose, mg"]

    def test_quoted_cells(self, tmp_path):
        path = _file(tmp_path, 'time,status,x\n"1","exact","2.5"\n')
        assert not _assert_parity(path)
        assert parse_dataset_csv(path).x.tolist() == [[2.5]]

    def test_crlf_line_endings(self, tmp_path):
        path = _file(tmp_path, "time,time2,status,x\r\n1,,exact,2\r\n3,4,interval,5\r\n")
        assert _assert_parity(path)
        dataset = parse_dataset_csv(path)
        assert dataset.t_upper.tolist() == [1.0, 4.0]

    def test_bare_cr_line_endings(self, tmp_path):
        path = _file(tmp_path, "time,status,x\r1,exact,2\r3,right,4\r")
        assert not _assert_parity(path)
        assert parse_dataset_csv(path).n == 2

    def test_padded_upper_case_status(self, tmp_path):
        path = _file(tmp_path, "time,status,x\n1, EXACT ,2\n3,Right,4\n")
        assert _assert_parity(path)
        assert parse_dataset_csv(path).kind.tolist() == [0, 1]

    @pytest.mark.parametrize("status", ["intervals", "  interval  ", "exact\x00", "sometimes"])
    def test_status_the_c_reader_cannot_decide(self, tmp_path, status):
        # a value as wide as the string field may have been cut short
        path = _file(tmp_path, f"time,time2,status,x\n1,2,{status},3\n")
        assert not _assert_parity(path)

    def test_junk_time2_on_a_non_interval_row_is_ignored(self, tmp_path):
        path = _file(tmp_path, "time,time2,status,x\n1,not a time at all,exact,2\n3,?,right,4\n")
        assert _assert_parity(path)
        assert parse_dataset_csv(path).t_upper.tolist() == [1.0, np.inf]

    @pytest.mark.parametrize("time2", ["", " ", "abc", "0x1p3", "1" * 30])
    def test_interval_time2_the_c_reader_declines(self, tmp_path, time2):
        path = _file(tmp_path, f"time,time2,status,x\n1,{time2},interval,2\n")
        assert not _assert_parity(path)

    def test_covariates_around_reserved_columns(self, tmp_path):
        path = _file(
            tmp_path, "b,time,a,status,c,time2,time\n1,2,3,left,4,,x\n5,6,7,interval,8,9,y\n"
        )
        assert _assert_parity(path)
        dataset = parse_dataset_csv(path)
        assert dataset.feature_names == ["b", "a", "c"]
        assert dataset.x.tolist() == [[1.0, 3.0, 4.0], [5.0, 7.0, 8.0]]
        assert dataset.t_upper.tolist() == [2.0, 9.0]


_VALID_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=1e-3, max_value=1e3).map(lambda v: f" {v:.6g} "),
    st.sampled_from(["infinity", "-inf", "+nan", "1e500", "-0.0", "+.5", "\xa02.5", "2.5\x85"]),
)
_ODD_FLOAT = st.one_of(
    st.sampled_from(
        ["1_000", "0x1p3", "1.5d3", "#1", "1 # c", "\u0661", "\x1c2", "", "1,5", '"3"']
    ),
    st.text(alphabet="0123456789.eE+-_ #\"\r\n,\x00\x1c\x1f\xa0x\xe9\u0100", max_size=8),
)
_VALID_STATUS = st.sampled_from(["exact", "right", "left", "interval", " EXACT ", "Right"])
_ODD_STATUS = st.sampled_from(["intervals", "  interval  ", "", "exact\x00", "#", "\xe9xact"])
_LAYOUTS = [
    ["time", "time2", "status", "x0", "x1"],
    ["x0", "time", "status", "x1"],
    ["time", "status"],
    ["status", "x0", "time2", "time"],
    ["time2", "time", "status", "x0"],
]


@st.composite
def _csv_files(draw):
    """Mostly well-formed files; ``odd`` sets how often a cell or line is not."""
    header = draw(st.sampled_from(_LAYOUTS))
    odd = draw(st.sampled_from([0, 0, 5, 20]))

    def pick(valid, other):
        return draw(other if odd and draw(st.integers(1, odd)) == 1 else valid)

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = {name: pick(_VALID_FLOAT, _ODD_FLOAT) for name in header}
        cells["status"] = pick(_VALID_STATUS, _ODD_STATUS)
        rows.append(",".join(cells[name] for name in header))
        if odd and draw(st.integers(1, odd)) == 1:
            rows.append("")  # a blank line
    end = draw(st.sampled_from(["\n", "\r\n", "\r"] if odd else ["\n", "\r\n"]))
    text = end.join([",".join(header), *rows]) + draw(st.sampled_from(["", end]))
    return text.encode()


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=_csv_files())
def test_c_reader_matches_row_scan(tmp_path, data):
    _assert_parity(_file(tmp_path, data))


def _bench_fixture(path, *args):
    spec = importlib.util.spec_from_file_location("_bench_fixtures", BENCH / "fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.make(path, *args)
    return path


@pytest.mark.parametrize(
    "args",
    [
        (1, 1, 0, 8000, 16, 0.7, 1.0),  # train
        (1, 2, 1, 600, 8, 3.0, 0.25, 1.0),  # score
        (1, 3, 0, 400, 8, 1.5, 0.5),  # simulate
        (1, 4, 0, 200, 8, 3.0, 0.25),  # ensemble
    ],
    ids=["train", "score", "simulate", "ensemble"],
)
def test_bench_fixtures_take_the_c_reader(tmp_path, args):
    assert _assert_parity(_bench_fixture(tmp_path / "fixture.csv", *args))
