"""Minimal deterministic SVG output (no timestamps, fixed float formatting).

Byte-identical reruns are part of the package contract, so figures are
written by hand rather than through a plotting library.
"""

from __future__ import annotations

import numpy as np


_SIZE = 640     # canvas side, pixels
_MARGIN = 40    # blank border around the data rectangle, pixels


def _fmt(x):
    return f"{float(x):.6g}"


class SvgCanvas:
    """Fixed-size canvas mapping a data rectangle to pixel coordinates."""

    def __init__(self, data_box):
        x0, x1, y0, y1 = data_box
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.elements = []

    def _px(self, x):
        u = (x - self.x0) / (self.x1 - self.x0)
        return _MARGIN + u * (_SIZE - 2 * _MARGIN)

    def _py(self, y):
        v = (y - self.y0) / (self.y1 - self.y0)
        return _SIZE - _MARGIN - v * (_SIZE - 2 * _MARGIN)

    def rect(self, x, y, w, h, fill="none", stroke="black", width=0.5):
        px = self._px(x)
        py = self._py(y + h)
        pw = self._px(x + w) - px
        ph = self._py(y) - py
        self.elements.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
            f'height="{_fmt(ph)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')

    def line(self, x0, y0, x1, y1, stroke="black", width=1.0):
        self.elements.append(
            f'<line x1="{_fmt(self._px(x0))}" y1="{_fmt(self._py(y0))}" '
            f'x2="{_fmt(self._px(x1))}" y2="{_fmt(self._py(y1))}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def circle(self, x, y, r_data, fill="none", stroke="black", width=1.0):
        pr = abs(self._px(x + r_data) - self._px(x))
        self.elements.append(
            f'<circle cx="{_fmt(self._px(x))}" cy="{_fmt(self._py(y))}" '
            f'r="{_fmt(pr)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')

    def dot(self, x, y, fill="black"):
        self.elements.append(
            f'<circle cx="{_fmt(self._px(x))}" cy="{_fmt(self._py(y))}" '
            f'r="2.5" fill="{fill}"/>')

    def text(self, x, y, s, anchor="middle"):
        self.elements.append(
            f'<text x="{_fmt(self._px(x))}" y="{_fmt(self._py(y))}" '
            f'font-size="12" text-anchor="{anchor}" '
            f'font-family="sans-serif">{s}</text>')

    def axes(self, xlabel="", ylabel=""):
        self.line(self.x0, self.y0, self.x1, self.y0)
        self.line(self.x0, self.y0, self.x0, self.y1)
        if xlabel:
            self.text(0.5 * (self.x0 + self.x1),
                      self.y0 - 0.08 * (self.y1 - self.y0), xlabel)
        if ylabel:
            self.text(self.x0, self.y1 + 0.02 * (self.y1 - self.y0), ylabel,
                      anchor="start")

    def save(self, path):
        body = "\n".join(self.elements)
        doc = (f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_SIZE}" height="{_SIZE}" '
               f'viewBox="0 0 {_SIZE} {_SIZE}">\n{body}\n</svg>\n')
        with open(path, "w", encoding="ascii") as f:
            f.write(doc)


def nodal_svg(nodal_set, path, singular=(), title=""):
    s = nodal_set.segments
    if nodal_set.domain == "torus" or not len(s):
        domain_box = (0.0, 1.0, 0.0, 1.0)
    else:
        domain_box = (s[:, 0].min(), s[:, 2].max(), s[:, 1].min(), s[:, 3].max())
    cv = SvgCanvas(domain_box)
    cv.axes()
    if title:
        cv.text(0.5 * (cv.x0 + cv.x1), cv.y1, title)
    for x0, y0, x1, y1 in np.asarray(nodal_set.segments):
        cv.line(x0, y0, x1, y1, stroke="#1f4e9c", width=0.8)
    for x, y in singular:
        cv.dot(x, y, fill="#c22")
    cv.save(path)


def tiling_svg(state, path, nodal_set=None):
    half = 1.0 / 60.0
    cv = SvgCanvas((-half * 1.1, half * 1.1, -half * 1.1, half * 1.1))
    for k in sorted(state.slow_by_level):
        for sq in state.slow_by_level[k]:
            ox, oy = sq.origin(state.delta0)
            s = float(sq.side(state.delta0))
            cv.rect(float(ox), float(oy), s, s, fill="#dbe8d8",
                    stroke="#777", width=0.4)
    for sq in state.rapid:
        ox, oy = sq.origin(state.delta0)
        s = float(sq.side(state.delta0))
        cv.rect(float(ox), float(oy), s, s, fill="#e8c9c9",
                stroke="#a33", width=0.4)
    cv.circle(0.0, 0.0, half, stroke="#333", width=0.8)
    if nodal_set is not None:
        for x0, y0, x1, y1 in np.asarray(nodal_set.segments):
            cv.line(x0, y0, x1, y1, stroke="#1f4e9c", width=0.7)
    cv.save(path)


def scatter_svg(xs, ys, path):
    """A(lambda) against lambda, one dot per eigenfunction."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        box = (0.0, 1.0, 0.0, 1.0)
    else:
        pad_x = 0.05 * (xs.max() - xs.min() + 1e-9)
        pad_y = 0.05 * (ys.max() - ys.min() + 1e-9)
        box = (xs.min() - pad_x, xs.max() + pad_x,
               min(ys.min() - pad_y, 0.0), ys.max() + pad_y)
    cv = SvgCanvas(box)
    cv.axes(xlabel="lambda", ylabel="A")
    for x, y in zip(xs, ys):
        cv.dot(x, y, fill="#1f4e9c")
    cv.save(path)


def disk_config_svg(rows, path, delta):
    """Probe-disk layout in the core: rapid disks filled, slow disks open,
    each with the grey band 0.8 delta .. delta (whose outer circle retraces
    the disk's own)."""
    half = 1.0 / 60.0
    cv = SvgCanvas((-half * 1.1, half * 1.1, -half * 1.1, half * 1.1))
    cv.circle(0.0, 0.0, half, stroke="#333", width=0.8)
    for row in rows:
        x, y = row["z"]
        color = "#c22" if row["is_rapid"] else "#1f4e9c"
        fill = "#e8c9c9" if row["is_rapid"] else "none"
        cv.circle(x, y, delta, fill=fill, stroke=color, width=0.8)
        cv.circle(x, y, 0.8 * delta, stroke="#999", width=0.4)
        cv.circle(x, y, delta, stroke="#999", width=0.4)
    cv.save(path)
