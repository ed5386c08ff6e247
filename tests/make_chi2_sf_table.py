"""Write ``chi2_sf_table.py``: chi-square upper tails to 40 significant digits.

Run ``python tests/make_chi2_sf_table.py`` (it needs mpmath) to rewrite the
table beside it. Each row is ``(df, x, q)`` with q = P(X > x) for X
chi-square with df degrees of freedom, the regularized upper incomplete gamma
function Q(df/2, x/2) evaluated by mpmath at 60 digits on the exact double x.
The x values span 1e-12 to 1600: a log grid, fixed points up to and past the
statistic where the tail leaves the doubles, and df / 2, df and 2 df.
"""

from pathlib import Path

import mpmath

DFS = range(1, 61)
LOG_GRID = [10.0**e for e in range(-12, 3, 2)] + [0.37, 3.3, 17.5, 41.9]
HIGH = [200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1416.5, 1450.0, 1500.0, 1600.0]

HEADER = '''"""Chi-square upper tails to 40 significant digits, from mpmath.

Rows ``(df, x, q)``, q = P(X > x) for X chi-square with df degrees of
freedom, evaluated at 60 digits on the exact double x. Written by
``make_chi2_sf_table.py``; the tests read these literals and need no mpmath.
"""

CHI2_SF_TABLE = (
'''


def rows():
    mpmath.mp.dps = 60
    for df in DFS:
        for x in sorted(set(LOG_GRID + HIGH + [df / 2, float(df), 2.0 * df])):
            q = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
            yield df, x, mpmath.nstr(q, 40, min_fixed=1, max_fixed=0)


def main():
    lines = [f"    ({df}, {x!r}, {q!r}),\n" for df, x, q in rows()]
    target = Path(__file__).with_name("chi2_sf_table.py")
    target.write_text(HEADER + "".join(lines) + ")\n")


if __name__ == "__main__":
    main()
