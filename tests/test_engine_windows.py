"""Window function execution: ranking, navigation, frames, aggregates."""

from __future__ import annotations

import pytest

from repro import BindError, Database


@pytest.fixture
def w(db: Database) -> Database:
    db.execute("CREATE TABLE w (grp VARCHAR, seq INTEGER, val INTEGER)")
    db.execute(
        """INSERT INTO w VALUES
           ('a', 1, 10), ('a', 2, 20), ('a', 3, 30),
           ('b', 1, 5), ('b', 2, 5), ('b', 3, 1)"""
    )
    return db


def test_row_number(w):
    rows = w.execute(
        """SELECT grp, seq, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY seq DESC)
           FROM w ORDER BY grp, seq"""
    ).rows
    assert rows == [
        ("a", 1, 3), ("a", 2, 2), ("a", 3, 1),
        ("b", 1, 3), ("b", 2, 2), ("b", 3, 1),
    ]


def test_rank_and_dense_rank_with_ties(w):
    rows = w.execute(
        """SELECT seq, RANK() OVER (PARTITION BY grp ORDER BY val),
                  DENSE_RANK() OVER (PARTITION BY grp ORDER BY val)
           FROM w WHERE grp = 'b' ORDER BY seq"""
    ).rows
    assert rows == [(1, 2, 2), (2, 2, 2), (3, 1, 1)]


def test_percent_rank(w):
    rows = w.execute(
        """SELECT seq, PERCENT_RANK() OVER (ORDER BY val)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 0.0), (2, 0.5), (3, 1.0)]


def test_cume_dist(w):
    values = w.execute(
        """SELECT CUME_DIST() OVER (ORDER BY val)
           FROM w WHERE grp = 'b'"""
    ).rows
    assert sorted(v[0] for v in values) == [pytest.approx(1 / 3), 1.0, 1.0]


def test_ntile(w):
    rows = w.execute(
        "SELECT seq, NTILE(2) OVER (ORDER BY seq) FROM w WHERE grp = 'a' ORDER BY seq"
    ).rows
    assert rows == [(1, 1), (2, 1), (3, 2)]


def test_lag_lead_defaults(w):
    rows = w.execute(
        """SELECT seq, LAG(val) OVER (PARTITION BY grp ORDER BY seq),
                  LEAD(val) OVER (PARTITION BY grp ORDER BY seq)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, None, 20), (2, 10, 30), (3, 20, None)]


def test_lag_with_offset_and_default(w):
    rows = w.execute(
        """SELECT seq, LAG(val, 2, -1) OVER (ORDER BY seq)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, -1), (2, -1), (3, 10)]


def test_first_and_last_value(w):
    rows = w.execute(
        """SELECT seq,
                  FIRST_VALUE(val) OVER (PARTITION BY grp ORDER BY seq),
                  LAST_VALUE(val) OVER (PARTITION BY grp ORDER BY seq
                    ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 10, 30), (2, 10, 30), (3, 10, 30)]


def test_default_frame_running_sum(w):
    rows = w.execute(
        """SELECT seq, SUM(val) OVER (PARTITION BY grp ORDER BY seq)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 10), (2, 30), (3, 60)]


def test_default_frame_includes_peers(w):
    # grp b has a tie on val=5: peers share the running total (RANGE frame).
    rows = w.execute(
        """SELECT seq, SUM(val) OVER (ORDER BY val)
           FROM w WHERE grp = 'b' ORDER BY seq"""
    ).rows
    assert rows == [(1, 11), (2, 11), (3, 1)]


def test_whole_partition_without_order(w):
    rows = w.execute(
        """SELECT grp, AVG(val) OVER (PARTITION BY grp) FROM w
           ORDER BY grp, seq"""
    ).rows
    assert rows[0] == ("a", 20.0)
    assert rows[3] == ("b", pytest.approx(11 / 3))


def test_rows_frame_moving_window(w):
    rows = w.execute(
        """SELECT seq, SUM(val) OVER (PARTITION BY grp ORDER BY seq
             ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 30), (2, 60), (3, 50)]


def test_rows_frame_preceding_only(w):
    rows = w.execute(
        """SELECT seq, COUNT(*) OVER (PARTITION BY grp ORDER BY seq
             ROWS 2 PRECEDING)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 1), (2, 2), (3, 3)]


def test_count_star_window(w):
    rows = w.execute(
        "SELECT grp, COUNT(*) OVER (PARTITION BY grp) FROM w ORDER BY grp, seq"
    ).rows
    assert all(r[1] == 3 for r in rows)


def test_min_max_window(w):
    row = w.execute(
        """SELECT MIN(val) OVER (PARTITION BY grp),
                  MAX(val) OVER (PARTITION BY grp)
           FROM w WHERE grp = 'b' LIMIT 1"""
    ).rows[0]
    assert row == (1, 5)


def test_window_over_aggregate_output(w):
    rows = w.execute(
        """SELECT grp, SUM(val) AS total,
                  RANK() OVER (ORDER BY SUM(val) DESC) AS rnk
           FROM w GROUP BY grp ORDER BY grp"""
    ).rows
    assert rows == [("a", 60, 1), ("b", 11, 2)]


def test_window_in_where_rejected(w):
    with pytest.raises(BindError):
        w.execute("SELECT 1 FROM w WHERE ROW_NUMBER() OVER (ORDER BY seq) = 1")


def test_ranking_without_over_rejected(w):
    with pytest.raises(BindError):
        w.execute("SELECT ROW_NUMBER() FROM w")


def test_multiple_windows_in_one_query(w):
    rows = w.execute(
        """SELECT seq,
                  SUM(val) OVER (PARTITION BY grp),
                  ROW_NUMBER() OVER (ORDER BY val DESC, seq)
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert rows == [(1, 60, 3), (2, 60, 2), (3, 60, 1)]


def test_window_expression_arithmetic(w):
    rows = w.execute(
        """SELECT seq, val - AVG(val) OVER (PARTITION BY grp) AS delta
           FROM w WHERE grp = 'a' ORDER BY seq"""
    ).rows
    assert [r[1] for r in rows] == [-10.0, 0.0, 10.0]


@pytest.mark.parametrize(
    "call, clause",
    [
        ("SUM(val) FILTER (WHERE val > 10) OVER (PARTITION BY grp)", "FILTER"),
        ("SUM(val) WITHIN DISTINCT (seq) OVER (PARTITION BY grp)", "WITHIN DISTINCT"),
        ("ARRAY_AGG(val ORDER BY seq) OVER (PARTITION BY grp)", "ORDER BY inside the call"),
    ],
)
def test_a_clause_the_window_operator_does_not_run_is_refused(w, call, clause):
    """Each used to be dropped in silence: ``SUM(x) FILTER (WHERE x > 1)
    OVER (...)`` summed every row."""
    with pytest.raises(BindError, match=clause) as raised:
        w.execute(f"SELECT seq,\n  {call}\nFROM w")
    assert "line 2" in str(raised.value)  # the clause's own position
