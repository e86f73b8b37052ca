"""Minimal SVG 1.1 line plots: axes, ticks, polylines, labels.

Diagnostic figures only; deterministic output for identical inputs.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 480  # every figure's size in px


def _fmt(v):
    return f"{v:.2f}"


def line_plot(series, title="", xlabel="", ylabel="") -> str:
    """series: iterable of (x array, y array, label). Returns an SVG document.

    The title, labels and axis labels are text, escaped for XML.
    """
    series = [(np.asarray(x, float), np.asarray(y, float), escape(str(label)))
              for x, y, label in series]
    title, xlabel, ylabel = escape(title), escape(xlabel), escape(ylabel)
    if not series:
        raise ValueError("line_plot needs at least one series")
    m_left, m_right, m_top, m_bottom = 64, 16, 28, 44
    pw = WIDTH - m_left - m_right
    ph = HEIGHT - m_top - m_bottom
    xlo = min(float(np.min(x)) for x, _, _ in series)
    xhi = max(float(np.max(x)) for x, _, _ in series)
    ylo = min(float(np.min(y)) for _, y, _ in series)
    yhi = max(float(np.max(y)) for _, y, _ in series)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def px(v):
        return m_left + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return m_top + (yhi - v) / (yhi - ylo) * ph

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{m_left}" y="{m_top}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for tx in np.linspace(xlo, xhi, 5):
        X = px(tx)
        out.append(f'<line x1="{_fmt(X)}" y1="{m_top + ph}" x2="{_fmt(X)}" '
                   f'y2="{m_top + ph + 5}" stroke="#333333"/>')
        out.append(f'<text x="{_fmt(X)}" y="{m_top + ph + 18}" '
                   f'font-size="11" text-anchor="middle" '
                   f'font-family="sans-serif">{tx:.3g}</text>')
    for ty in np.linspace(ylo, yhi, 5):
        Y = py(ty)
        out.append(f'<line x1="{m_left - 5}" y1="{_fmt(Y)}" x2="{m_left}" '
                   f'y2="{_fmt(Y)}" stroke="#333333"/>')
        out.append(f'<text x="{m_left - 8}" y="{_fmt(Y + 4)}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{ty:.3g}</text>')
    for k, (x, y, label) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        if label:
            ly = m_top + 14 + 14 * k
            out.append(f'<line x1="{m_left + pw - 120}" y1="{ly - 4}" '
                       f'x2="{m_left + pw - 100}" y2="{ly - 4}" '
                       f'stroke="{color}" stroke-width="1.5"/>')
            out.append(f'<text x="{m_left + pw - 95}" y="{ly}" font-size="11" '
                       f'font-family="sans-serif">{label}</text>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="18" font-size="13" '
                   f'text-anchor="middle" font-family="sans-serif">{title}</text>')
    if xlabel:
        out.append(f'<text x="{m_left + pw / 2:.1f}" y="{HEIGHT - 10}" '
                   f'font-size="12" text-anchor="middle" '
                   f'font-family="sans-serif">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="16" y="{m_top + ph / 2:.1f}" font-size="12" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'transform="rotate(-90 16 {m_top + ph / 2:.1f})">{ylabel}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
