"""Result formatting.

Small helpers to turn experiment results into aligned ASCII tables, CSV
files and simple text plots, so the benchmark harness can print the same
rows/series the paper reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render ``rows`` as a fixed-width ASCII table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialised:
        lines.append(format_row(row))
    return "\n".join(lines)


def dict_rows_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows, inferring the columns when omitted."""
    if not rows:
        return title or "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    return ascii_table(columns, [[row.get(col, "") for col in columns] for row in rows], title)


def write_csv(rows: Sequence[Mapping[str, object]], path: str) -> None:
    """Dump dict rows to a CSV file (columns from the first row)."""
    import csv  # only a ``--csv`` run needs it, not every CLI start

    if not rows:
        with open(path, "w", newline="") as handle:
            handle.write("")
        return
    columns = list(rows[0].keys())
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def text_plot(
    series: Dict[str, Sequence[float]],
    x_values: Sequence[object],
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """A crude horizontal-bar plot: one block of bars per x value.

    Useful to eyeball the Fig. 5 shape directly in a terminal without any
    plotting dependency.
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    maximum = max((max(values) for values in series.values() if len(values)), default=0.0)
    if maximum <= 0:
        maximum = 1.0
    label_width = max(len(name) for name in series) if series else 0
    for index, x_value in enumerate(x_values):
        lines.append(f"x={x_value}")
        for name, values in series.items():
            if index >= len(values):
                continue
            value = values[index]
            bar = "#" * max(1, int(round(width * value / maximum))) if value > 0 else ""
            lines.append(f"  {name.ljust(label_width)} {value:>10.4f} {bar}")
    return "\n".join(lines)


def format_gain(reference: float, improved: float) -> str:
    """Format a wall-clock improvement the way the paper does (percent gain)."""
    if reference <= 0:
        return "n/a"
    gain = 100.0 * (reference - improved) / reference
    return f"{reference:.2f}s -> {improved:.2f}s (gain {gain:.1f}%)"
