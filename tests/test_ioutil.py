import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smhd.ioutil import CSV_BLOCK_ROWS, write_rows_csv

# 0 and -0 compare equal but print apart; NaNs compare unequal to themselves
SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  1.7976931348623157e308)
SPECIAL_INTS = (0, -1, -(2**62), 2**62)
# header only, one row, one row either side of a block boundary, and three blocks,
# so that a value repeats across blocks
LENGTHS = (0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1)
# print apart although 0 == -0, and although NaN != NaN whatever its sign
EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan)


def _per_row(header, columns):
    """The plain rendering: ``spec % v`` for each value of each row."""
    specs = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns]
    rows = (",".join(spec % v for spec, v in zip(specs, row))
            for row in zip(*(c.tolist() for c in columns)))
    return "\n".join([header, *rows]) + "\n"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.sampled_from(LENGTHS),
       floats=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6),
       ints=st.lists(st.sampled_from(SPECIAL_INTS) | st.integers(-(2**63), 2**63 - 1),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(n=CSV_BLOCK_ROWS + 1, floats=[0.0, -0.0], ints=[-3, 2**62], seed=0)
def test_write_rows_csv_matches_per_row_reference(tmp_path_factory, n, floats, ints, seed):
    # few distinct values over many rows, so that every block repeats its values
    rng = np.random.default_rng(seed)
    pick = lambda pool, dtype: np.array(pool, dtype=dtype)[rng.integers(0, len(pool), n)]
    columns = [pick(floats, np.float64), pick(ints, np.int64), pick(floats, np.float64)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_rows_csv("a,b,c", columns, path)
    assert path.read_bytes() == _per_row("a,b,c", columns).encode()


@pytest.mark.parametrize("n", LENGTHS)
def test_write_rows_csv_mixes_column_kinds(tmp_path, n):
    # one call with a column of few distinct values, one with about 1.5 rows per value,
    # all-distinct float and int columns and a bool column; where four rows fit either side of the
    # first block boundary, 0/-0 and +-NaN sit on both sides of it
    rng = np.random.default_rng(n)
    repeated = np.array(EDGE_FLOATS)[rng.integers(0, 4, n)]
    pairs = rng.standard_normal(n)
    pairs[1::3] = pairs[::3][:len(pairs[1::3])]
    distinct = rng.standard_normal(n)
    ints = rng.permutation(n) - n // 2
    b = CSV_BLOCK_ROWS
    if n > b + 4:
        repeated[b - 4:b + 4] = EDGE_FLOATS + EDGE_FLOATS[::-1]
        pairs[b - 4:b + 4] = EDGE_FLOATS + EDGE_FLOATS[::-1]
        distinct[b - 2:b + 2] = (0.0, math.nan, -0.0, -math.nan)
    columns = [repeated, pairs, distinct, ints, rng.integers(0, 2, n).astype(bool)]
    path = tmp_path / "t.csv"
    write_rows_csv("a,b,c,d,e", columns, path)
    assert path.read_bytes() == _per_row("a,b,c,d,e", columns).encode()


@pytest.mark.parametrize("column", [np.zeros((3, 2)), np.float64(1.0), np.array(["1", "2", "3"]),
                                    np.ones(3, dtype=complex), np.array([1.0, None, 2.0])],
                         ids=["2d", "0d", "str", "complex", "object"])
def test_write_rows_csv_rejects_malformed_column(tmp_path, column):
    path = tmp_path / "t.csv"
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(ValueError, match="CSV column 1 must be 1D bool, int or float"):
        write_rows_csv("a,b", [np.arange(3.0), column], path)
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("lengths", [(3, 2), (CSV_BLOCK_ROWS, 2000)])
def test_write_rows_csv_rejects_unequal_columns(tmp_path, lengths):
    # (1024, 2000) fills the first block of both columns alike, so a per-block
    # zip(strict=True) would still drop the longer column's tail silently
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        write_rows_csv("a,b", [np.arange(n, dtype=float) for n in lengths], path)
    assert not path.exists()
