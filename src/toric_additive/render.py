"""Deterministic SVG rendering of a fan and its Demazure roots.

Pure string assembly; same input, same bytes.  The left panel draws the
rays with their cyclic labels, the right panel plots every root as a point
in the character lattice, marking semisimple ones and, when a positive
system was chosen, the positive ones.
"""

from __future__ import annotations

from .fan import Fan2
from .roots import RootSystem

_W = 360
_PAD = 24


def _scale(extent: int) -> float:
    usable = (_W - 2 * _PAD) / 2
    return usable / max(extent, 1)


def _panel_transform(cx: float, cy: float, s: float, v: tuple[int, int]
                     ) -> tuple[float, float]:
    return (cx + s * v[0], cy - s * v[1])


def fan_svg(fan: Fan2, roots: RootSystem | None = None,
            title: str | None = None) -> str:
    """Two side-by-side panels: rays of the fan, then its roots."""
    parts: list[str] = []
    width = 2 * _W
    height = _W
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    parts.append(
        '<style>text{font-family:monospace;font-size:12px}'
        '.ray-arrow{stroke:#1f4e79;stroke-width:2}'
        '.axis{stroke:#cccccc;stroke-width:1}'
        '.root-point{fill:#333333}'
        '.root-semisimple{fill:#b22222}'
        '.root-positive{stroke:#2e8b22;stroke-width:2;fill:none}'
        '</style>')
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        # imported here: xml.sax.saxutils loads urllib.request, which would
        # add about 45 ms and 7 MB to every import of the package (Python
        # 3.11 on Linux)
        from xml.sax.saxutils import escape
        parts.append(f'<text x="{_PAD}" y="16">{escape(title)}</text>')

    # left panel: rays
    cx, cy = _W / 2, _W / 2
    extent = max(max(abs(r[0]), abs(r[1])) for r in fan.rays)
    s = _scale(extent + 1)
    parts.append(f'<line class="axis" x1="{_PAD}" y1="{cy}" '
                 f'x2="{_W - _PAD}" y2="{cy}"/>')
    parts.append(f'<line class="axis" x1="{cx}" y1="{_PAD}" '
                 f'x2="{cx}" y2="{_W - _PAD}"/>')
    for i, r in enumerate(fan.rays):
        x, y = _panel_transform(cx, cy, s, r)
        parts.append(f'<line class="ray-arrow" x1="{cx}" y1="{cy}" '
                     f'x2="{x:.1f}" y2="{y:.1f}"/>')
        lx, ly = _panel_transform(cx, cy, s * 1.15, r)
        parts.append(f'<text x="{lx:.1f}" y="{ly:.1f}">p{i + 1}</text>')
    parts.append(f'<text x="{_PAD}" y="{_W - 8}">rays</text>')

    # right panel: roots
    cx2 = _W + _W / 2
    if roots is not None:
        all_e = [r.e for rs in roots.per_ray for r in rs]
        extent2 = max((max(abs(e[0]), abs(e[1])) for e in all_e), default=1)
        s2 = _scale(extent2 + 1)
        parts.append(f'<line class="axis" x1="{_W + _PAD}" y1="{cy}" '
                     f'x2="{2 * _W - _PAD}" y2="{cy}"/>')
        parts.append(f'<line class="axis" x1="{cx2}" y1="{_PAD}" '
                     f'x2="{cx2}" y2="{_W - _PAD}"/>')
        semis = set(roots.semisimple)
        pos = set(roots.positive or ())
        for rs in roots.per_ray:
            for root in rs:
                x, y = _panel_transform(cx2, cy, s2, root.e)
                cls = ("root-semisimple" if root.e in semis else "root-point")
                parts.append(f'<circle class="{cls}" cx="{x:.1f}" '
                             f'cy="{y:.1f}" r="4"/>')
                if root.e in pos:
                    parts.append(f'<circle class="root-positive" cx="{x:.1f}" '
                                 f'cy="{y:.1f}" r="7"/>')
                parts.append(f'<text x="{x + 8:.1f}" y="{y - 6:.1f}">'
                             f'({root.e[0]},{root.e[1]})</text>')
        if roots.regular_vector is not None:
            u = roots.regular_vector
            parts.append(f'<text x="{_W + _PAD}" y="{_W - 24}">'
                         f'u = ({u[0]},{u[1]})</text>')
        parts.append(f'<text x="{_W + _PAD}" y="{_W - 8}">roots '
                     '(red: semisimple, ring: positive)</text>')
    else:
        parts.append(f'<text x="{_W + _PAD}" y="{cy}">no root data</text>')
    parts.append('</svg>')
    return "\n".join(parts)
