"""Regenerate Table 1 (Section 6) and print it next to the paper's.

Every row of the paper's experiment: PRIMALITY at treewidth 3 with
#Att = 3 ... 93.  The MD column is the Figure 6 dynamic program, the
MD-datalog column the interpreted program, and the MONA stand-in is
budgeted naive MSO evaluation (see :mod:`repro.mso.eval`) whose '-' entries mirror
the paper's out-of-memory dashes.

Run:  python examples/table1_reproduction.py [--fast]
"""

import sys

from repro.bench import render_md_linearity, render_table1, run_table1


def main() -> None:
    fast = "--fast" in sys.argv
    rows = run_table1(
        max_rows=5 if fast else None,
        repeat=1 if fast else 3,
        include_datalog=not fast,
        mona_budget_steps=300_000 if fast else 3_000_000,
    )
    print(render_table1(rows))
    print()
    print(render_md_linearity(rows))
    print(
        "Paper's claim: 'an essentially linear increase of the processing "
        "time with the size of the input' -- and no big hidden constant."
    )


if __name__ == "__main__":
    main()
