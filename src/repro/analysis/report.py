"""Plain-text rendering of tables, curves and series.

The benchmark harness regenerates the paper's tables and figures as text:
tables print as aligned columns, curves as (k, RE) rows plus a sparkline,
stacked breakdowns as per-component shares.  Keeping rendering in one
module keeps the experiment modules about *data*.
"""

from __future__ import annotations

import numpy as np

#: Characters for one-line sparklines of series data.
SPARK_LEVELS = " .:-=+*#%@"


def format_table(headers, rows, title: str | None = None) -> str:
    """Render an aligned ASCII table."""
    headers = [str(h) for h in headers]
    text_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) < 0.001 or abs(cell) >= 100000):
            return f"{cell:.2e}"
        return f"{cell:.4f}".rstrip("0").rstrip(".")
    return str(cell)


def sparkline(values, lo: float | None = None,
              hi: float | None = None) -> str:
    """One-line rendering of a series."""
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return ""
    lo = float(finite.min()) if lo is None else lo
    hi = float(finite.max()) if hi is None else hi
    span = hi - lo
    chars = []
    for value in values:
        if not np.isfinite(value):
            chars.append(" ")
            continue
        if span <= 0:
            level = 0
        else:
            level = int((value - lo) / span * (len(SPARK_LEVELS) - 1))
        chars.append(SPARK_LEVELS[min(max(level, 0),
                                      len(SPARK_LEVELS) - 1)])
    return "".join(chars)


def format_curve(k_values, re_values, title: str,
                 mark_k: int | None = None, step: int = 5) -> str:
    """Render an RE-vs-k curve: sparkline plus selected rows."""
    k_values = list(k_values)
    re_values = list(re_values)
    last = k_values[-1]
    lines = [title,
             f"  k=1..{last}: |{sparkline(re_values)}|  "
             f"(min={min(re_values):.3f}, max={max(re_values):.3f})"]
    picks = sorted(k for k in {1, 2, 3, *range(step, last + 1, step), last}
                   if k <= last)
    if mark_k is not None:
        picks = sorted(set(picks) | {mark_k})
    for k in picks:
        marker = "  <- k_opt" if k == mark_k else ""
        lines.append(f"  k={k:>3}  RE={re_values[k - 1]:.4f}{marker}")
    return "\n".join(lines)


def format_breakdown(series, label: str) -> str:
    """Render a CPI-breakdown series as overall shares plus sparklines."""
    lines = [f"CPI breakdown for {label} "
             f"(dominant: {series.dominant_component().upper()})"]
    for name, values in series.component_cpis.items():
        share = series.component_share(name)
        lines.append(f"  {name.upper():>6} {share:6.1%}  "
                     f"|{sparkline(values, lo=0.0)}|")
    lines.append(f"  {'TOTAL':>6}         "
                 f"|{sparkline(series.total_cpi, lo=0.0)}|  "
                 f"mean CPI={float(np.mean(series.total_cpi)):.2f}")
    return "\n".join(lines)
