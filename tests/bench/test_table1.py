"""Tests for the Table 1 experiment driver."""

from repro.bench import (
    PAPER_MD_MS,
    PAPER_MONA_MS,
    md_linearity,
    render_md_linearity,
    render_table1,
    run_table1,
)


class TestDriver:
    def test_paper_columns_well_formed(self):
        assert len(PAPER_MD_MS) == len(PAPER_MONA_MS) == 11
        # the paper's MONA column has measurements only for the first 3 rows
        assert all(v is None for v in PAPER_MONA_MS[3:])

    def test_small_run_shape(self):
        rows = run_table1(max_rows=2, repeat=1, include_datalog=False,
                          mona_budget_steps=50_000)
        assert len(rows) == 2
        first = rows[0]
        assert first.num_attributes == 3 and first.num_fds == 1
        assert first.md_ms > 0
        assert first.paper_md_ms == 0.1

    def test_mona_budget_exhaustion_yields_dash(self):
        rows = run_table1(max_rows=2, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        assert all(row.mona_ms is None for row in rows)

    def test_render_contains_all_columns(self):
        rows = run_table1(max_rows=1, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        text = render_table1(rows)
        for token in ("tw", "#Att", "#FD", "#tn", "MD (ms)", "paper MONA"):
            assert token in text
        assert "-" in text  # the dash for the exhausted MONA stand-in

    def test_linearity_fit_runs(self):
        rows = run_table1(max_rows=3, repeat=1, include_datalog=False,
                          mona_budget_steps=10)
        fit = md_linearity(rows)
        assert fit.slope == fit.slope  # not NaN
        assert fit.exponent == fit.exponent
        assert "log-log exponent" in render_md_linearity(rows)
