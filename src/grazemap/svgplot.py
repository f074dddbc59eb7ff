"""Hand-emitted SVG for traced curves: polylines, axes, labels.

No rendering dependency; path data carries 6 significant digits, so output
is byte-stable and diffable in golden-file tests.
"""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f6fb4", "#c23b22", "#2e8b57", "#8860b0")
SIZE = 480   # width and height of the square canvas, in pixels
MARGIN = 40  # blank border between the plot window and the canvas edge


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    def __init__(self, window: float):
        self.window = float(window)
        self.body: list[str] = []

    def _map(self, x: float, y: float) -> tuple[float, float]:
        span = SIZE - 2 * MARGIN
        w = self.window if self.window > 0 else 1.0
        px = MARGIN + (x + w) / (2 * w) * span
        py = MARGIN + (w - y) / (2 * w) * span
        return px, py

    def polyline(self, points: np.ndarray, color: str, width: float = 1.5) -> None:
        if len(points) == 0:
            return
        coords = " ".join("{},{}".format(_fmt(px), _fmt(py))
                          for px, py in (self._map(x, y) for x, y in points))
        self.body.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="{_fmt(width)}" points="{coords}"/>')

    def axes(self, xlabel: str, ylabel: str) -> None:
        x0, y0 = self._map(-self.window, 0.0)
        x1, y1 = self._map(self.window, 0.0)
        self.body.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                         f'y2="{_fmt(y1)}" stroke="#999" stroke-width="0.8"/>')
        x0, y0 = self._map(0.0, -self.window)
        x1, y1 = self._map(0.0, self.window)
        self.body.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                         f'y2="{_fmt(y1)}" stroke="#999" stroke-width="0.8"/>')
        px, py = self._map(self.window, 0.0)
        self.body.append(f'<text x="{_fmt(px - 16)}" y="{_fmt(py - 6)}" '
                         f'font-size="12">{xlabel}</text>')
        px, py = self._map(0.0, self.window)
        self.body.append(f'<text x="{_fmt(px + 6)}" y="{_fmt(py + 12)}" '
                         f'font-size="12">{ylabel}</text>')
        lab = _fmt(self.window)
        self.body.append(f'<text x="{_fmt(MARGIN)}" y="{_fmt(SIZE - 8)}" '
                         f'font-size="10">window = {lab}</text>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
                f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">')
        bg = f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>'
        return "\n".join([head, bg, *self.body, "</svg>"]) + "\n"


def curve_svg(curve, sheet: np.ndarray | None = None) -> str:
    """Render traced branches (and optionally a shadow-boundary sheet projection)."""
    canvas = SvgCanvas(window=curve.window)
    canvas.axes("x2", "x3")
    if sheet is not None:
        for ray in sheet:
            canvas.polyline(ray[:, 1:3], color="#cccccc", width=0.6)
    for k, branch in enumerate(curve.branches):
        canvas.polyline(branch.vertices, color=_COLORS[k % len(_COLORS)])
    return canvas.render()
