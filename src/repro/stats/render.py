"""ASCII rendering of the paper's stacked-bar figures.

The paper presents normalized execution times as stacked bars with CPU,
read, write, synchronization and instruction segments.  This module draws
the same bars in plain text so a terminal run of the benchmark harness
(or the CLI) shows the figures, not just numbers.

Example output::

    inorder-1w  1.00 |CCCCCCCCRRRRRRRRRRRRRRRRRRRRRRIIIIIIIIIIII|
    ooo-4w      0.76 |CCCCCRRRRRRRRRRRRRRRRRRIIIIIIII|
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

#: (summary-row key, fill character) in drawing order.
SEGMENTS: Tuple[Tuple[str, str], ...] = (
    ("cpu", "C"),
    ("read", "R"),
    ("write", "W"),
    ("sync", "S"),
    ("instr", "I"),
)

LEGEND = "C=CPU R=read W=write S=sync I=instruction"


def render_bar(components: Dict[str, float], width: int = 60) -> str:
    """One stacked bar; ``components`` are absolute segment heights
    (their sum is the bar length relative to 1.0 == ``width`` chars)."""
    cells: List[str] = []
    carry = 0.0
    for key, char in SEGMENTS:
        value = components.get(key, 0.0) * width + carry
        count = int(round(value))
        carry = value - count
        cells.append(char * max(0, count))
    return "".join(cells)


def render_figure(rows: Iterable[Tuple[str, float, Dict[str, float]]],
                  width: int = 60, label_width: int = 22) -> str:
    """Render (label, normalized_time, summary_row) tuples as bars.

    ``summary_row`` holds component *shares* of that bar's own time; bars
    are scaled by ``normalized_time`` so their lengths compare.
    """
    lines = []
    for label, normalized, shares in rows:
        components = {k: v * normalized for k, v in shares.items()}
        bar = render_bar(components, width)
        lines.append(f"{label:<{label_width}s} {normalized:5.2f} |{bar}|")
    lines.append(f"{'':<{label_width}s}       {LEGEND}")
    return "\n".join(lines)


def render_distribution(dist: Dict[int, float], width: int = 40,
                        title: str = "") -> str:
    """Render an MSHR occupancy distribution as a histogram."""
    lines = [title] if title else []
    for n in sorted(dist):
        bar = "#" * int(round(dist[n] * width))
        lines.append(f"  >={n}: {dist[n]:5.2f} |{bar:<{width}s}|")
    return "\n".join(lines)
