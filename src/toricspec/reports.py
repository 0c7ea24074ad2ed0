"""Deterministic CSV, JSON and SVG emitters for sweep reports.

Re-running on identical inputs must produce byte-identical files, so floats
are formatted with repr, JSON keys are sorted, and the SVG writer is a small
hand-rolled line plotter with no timestamps or generated ids.
"""

from __future__ import annotations

import json


def format_float(v):
    return repr(float(v))


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(
                ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


def write_json(path, obj):
    with open(path, "w", encoding="ascii") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def svg_line_plot(path, title, series, hlines):
    """Minimal deterministic 640 x 420 SVG plot of dbar eigenvalues against s.

    series: non-empty list of (label, xs, ys), at least one point in all;
    hlines: horizontal reference values.
    """
    W, H = 640, 420
    ml, mr, mt, mb = 64, 16, 36, 48
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys] + list(hlines)
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0) if y1 > y0 else 1.0
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (W - ml - mr)

    def py(y):
        return H - mb - (y - y0) / (y1 - y0) * (H - mt - mb)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    )
    out.append(f'<rect width="{W}" height="{H}" fill="white"/>')
    out.append(
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="monospace">{title}</text>'
    )
    # axes
    out.append(
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>'
    )
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>')
    for t in range(5):
        xv = x0 + t * (x1 - x0) / 4
        yv = y0 + t * (y1 - y0) / 4
        out.append(
            f'<text x="{px(xv):.1f}" y="{H - mb + 16}" text-anchor="middle" '
            f'font-size="10" font-family="monospace">{xv:.3g}</text>'
        )
        out.append(
            f'<text x="{ml - 6}" y="{py(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10" font-family="monospace">{yv:.3g}</text>'
        )
    out.append(
        f'<text x="{(ml + W - mr) // 2}" y="{H - 10}" text-anchor="middle" '
        'font-size="11" font-family="monospace">s</text>'
    )
    out.append(
        f'<text x="14" y="{(mt + H - mb) // 2}" text-anchor="middle" font-size="11" '
        f'font-family="monospace" transform="rotate(-90 14 {(mt + H - mb) // 2})">dbar eigenvalue</text>'
    )
    for h in hlines:
        out.append(
            f'<line x1="{ml}" y1="{py(h):.2f}" x2="{W - mr}" y2="{py(h):.2f}" '
            f'stroke="#999999" stroke-dasharray="5,4"/>'
        )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in zip(xs, ys):
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        out.append(
            f'<text x="{W - mr - 4}" y="{mt + 14 * (idx + 1)}" text-anchor="end" '
            f'font-size="10" font-family="monospace" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(out) + "\n")
