#!/usr/bin/env python3
"""EXPERIMENTS.md's figure tables, generated from bench_baseline.json.

Each generated table sits between two marker lines:

  <!-- generated from bench_baseline.json: NAME -->
  ...
  <!-- end generated -->

  experiments_tables.py check    exit 1 unless every table equals what the baseline gives
  experiments_tables.py update   rewrite every table from the baseline

bench_baseline.json holds the simulated cycles CI gates bit for bit, so
the speedups the docs quote come from the same numbers the gate holds.
The paper's columns and the per-kernel notes are kept here.
"""
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(ROOT, "EXPERIMENTS.md")
BASELINE = os.path.join(ROOT, "bench_baseline.json")
BLOCK = re.compile(
    r"(<!-- generated from bench_baseline\.json: (\w+) -->\n)(.*?)(<!-- end generated -->)",
    re.S,
)

# Figure 4: kernel, name in the doc, paper's ispc, paper's Parsimony
PAPER_FIG4 = [
    ("aobench", "aobench", "~7", "~7"),
    ("binomial_options", "binomial options", "~9", "~6.5 (0.71× ispc)"),
    ("black_scholes", "black-scholes", "~8", "~8"),
    ("mandelbrot", "mandelbrot", "~5", "~5"),
    ("noise", "noise", "~5", "~5"),
    ("stencil", "stencil", "~4", "~4"),
    ("volume", "volume", "~4", "~4"),
]
PAPER_FIG4_GEOMEAN = ("6.0", "5.9")

# Figure 5 geomeans in the paper: autovec, Parsimony, hand-written
PAPER_FIG5 = {"autovec": "3.46×", "parsimony": "7.70×", "hand": "7.91×"}
PAPER_FIG5_RATIOS = {"parsimony/hand": "0.97", "parsimony/autovec": "2.23"}

# the straight-line kernels SLP packs, and what it packs in each
SLP_KERNELS = [
    ("stretch_gray_2x2", "2 store packs (splat columns)"),
    ("bgr_to_bgra", "1 load + 1 store pack"),
    ("gray_to_bgra", "1 store pack (the maximal 4-wide run fails the schedule gate; a narrower window survives)"),
    ("bgra_to_bgr", "1 load + 1 store pack (saving absorbed by the bandwidth floor)"),
]


def table(header, right, rows):
    """A markdown table padded to its widest cell; [right] flags the
    right-aligned columns."""
    widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
    def line(cells):
        return "| " + " | ".join(
            cell.rjust(w) if right[c] else cell.ljust(w)
            for c, (cell, w) in enumerate(zip(cells, widths))) + " |\n"
    rule = "|" + "|".join(
        "-" * (w + 1) + ":" if right[c] else "-" * (w + 2)
        for c, w in enumerate(widths)) + "|\n"
    return line(header) + rule + "".join(line(r) for r in rows)


def x(v, digits=2):
    return f"{v:.{digits}f}×"


def figure4(b):
    rows = {r["name"]: r["series"] for r in b["figure4"]["rows"]}
    geo = b["figure4"]["geomeans"]
    out = []
    for kernel, name, paper_ispc, paper_par in PAPER_FIG4:
        ispc, par = rows[kernel]["ispc"], rows[kernel]["parsimony"]
        ours = f"{par:.1f}" if par == ispc else f"{par:.1f} ({par / ispc:.2f}× ispc)"
        out.append([name, paper_ispc, f"{ispc:.1f}", paper_par, ours])
    out.append(["**geomean**", f"**{PAPER_FIG4_GEOMEAN[0]}**", f"**{geo['ispc']:.1f}**",
                f"**{PAPER_FIG4_GEOMEAN[1]}**", f"**{geo['parsimony']:.1f}**"])
    return table(["benchmark", "ispc (paper ~)", "ispc (ours)", "Parsimony (paper ~)",
                  "Parsimony (ours)"], [False, True, True, True, True], out)


def figure5(b):
    g = b["figure5"]["geomeans"]
    rows = [
        ["auto-vectorization", PAPER_FIG5["autovec"], x(g["autovec"])],
        ["Parsimony", PAPER_FIG5["parsimony"], x(g["parsimony"])],
        ["hand-written AVX-512", PAPER_FIG5["hand"], x(g["hand"])],
        ["Parsimony / hand", PAPER_FIG5_RATIOS["parsimony/hand"],
         f"{g['parsimony'] / g['hand']:.2f}"],
        ["Parsimony / autovec", PAPER_FIG5_RATIOS["parsimony/autovec"],
         f"{g['parsimony'] / g['autovec']:.2f}"],
    ]
    return table(["series", "paper geomean", "ours"], [False, True, True], rows)


def slp(b):
    g = b["figure5"]["geomeans"]
    rows = [
        ["slp (straight-line)", x(g["slp"])],
        ["auto-vectorization", x(g["autovec"])],
        ["Parsimony", x(g["parsimony"])],
    ]
    return table(["series", "geomean (72 kernels)"], [False, True], rows)


def slp_kernels(b):
    rows = {r["name"]: r["series"] for r in b["figure5"]["rows"]}
    out = []
    for kernel, note in SLP_KERNELS:
        s = rows[kernel]["slp"]
        # a gain too small for three digits still shows it is a gain
        shown = x(s, 3) + ("+" if f"{s:.3f}" == "1.000" and s > 1.0 else "")
        out.append([kernel, x(rows[kernel]["autovec"]), shown, note])
    return table(["kernel", "autovec", "slp", "what packed"], [False, True, True, False], out)


TABLES = {"figure4": figure4, "figure5": figure5, "slp": slp, "slp_kernels": slp_kernels}


def render(doc, baseline):
    seen = []

    def sub(m):
        seen.append(m.group(2))
        return m.group(1) + TABLES[m.group(2)](baseline) + m.group(4)

    out = BLOCK.sub(sub, doc)
    missing = sorted(set(TABLES) - set(seen))
    if missing:
        sys.exit(f"EXPERIMENTS.md has no generated block for: {', '.join(missing)}")
    return out


def main(argv):
    if len(argv) != 2 or argv[1] not in ("check", "update"):
        sys.exit(__doc__)
    with open(DOC) as f:
        doc = f.read()
    with open(BASELINE) as f:
        baseline = json.load(f)
    fresh = render(doc, baseline)
    if argv[1] == "update":
        with open(DOC, "w") as f:
            f.write(fresh)
        print(f"rewrote {len(TABLES)} tables in EXPERIMENTS.md")
        return 0
    if fresh != doc:
        print("EXPERIMENTS.md tables are stale against bench_baseline.json; "
              "run python3 test/experiments_tables.py update")
        return 1
    print(f"EXPERIMENTS.md: all {len(TABLES)} tables match bench_baseline.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
