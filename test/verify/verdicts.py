#!/usr/bin/env python3
"""Golden per-function verdicts of `psimc verify-kernel`.

suite_verdicts.json holds, for each run below, one entry per verified
function: kernel, func, verdict, cases and detail (timings are left out).

  suite  psimc verify-kernel --suite --json FILE
  slp    psimc verify-kernel --suite --strategy slp --json FILE

  verdicts.py check RUN FILE    exit 1 unless FILE's verdicts equal the golden ones
  verdicts.py update RUN FILE   replace RUN's golden verdicts with FILE's

A change that is meant to keep verification behaviour (a refactor, a
speed-up) must pass `check` unchanged; one that is meant to change a
verdict updates the file and shows the new verdicts in its diff.
"""
import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite_verdicts.json")
RUNS = ("suite", "slp")
FIELDS = ("kernel", "func", "verdict", "cases", "detail")


def entries(report_path):
    with open(report_path) as f:
        report = json.load(f)
    return [
        {"kernel": kernel, "func": r["func"], "verdict": r["verdict"],
         "cases": r["cases"], "detail": r["detail"]}
        for kernel, results in report["kernels"].items()
        for r in results
    ]


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


def write_golden(golden):
    # one entry per line, so a verdict change is a one-line diff
    with open(GOLDEN, "w") as f:
        f.write("{\n")
        for i, run in enumerate(RUNS):
            f.write(f'  "{run}": [\n')
            rows = golden.get(run, [])
            for j, e in enumerate(rows):
                sep = "," if j + 1 < len(rows) else ""
                f.write("    " + json.dumps({k: e[k] for k in FIELDS}) + sep + "\n")
            f.write("  ]" + ("," if i + 1 < len(RUNS) else "") + "\n")
        f.write("}\n")


def key(e):
    return (e["kernel"], e["func"])


def check(run, report_path):
    want = {key(e): e for e in load_golden()[run]}
    got = {key(e): e for e in entries(report_path)}
    bad = 0
    for k in sorted(want.keys() | got.keys()):
        w, g = want.get(k), got.get(k)
        if w == g:
            continue
        bad += 1
        print(f"{run}: {k[0]} {k[1]}")
        print(f"  golden: {json.dumps(w)}")
        print(f"  fresh:  {json.dumps(g)}")
    if bad:
        print(f"{run}: {bad} function(s) differ from the {len(want)} golden verdicts")
        return 1
    print(f"{run}: all {len(want)} verdicts equal the golden file")
    return 0


def main(argv):
    if len(argv) != 4 or argv[1] not in ("check", "update") or argv[2] not in RUNS:
        print(__doc__, file=sys.stderr)
        return 2
    cmd, run, report_path = argv[1:]
    if cmd == "check":
        return check(run, report_path)
    golden = load_golden() if os.path.exists(GOLDEN) else {}
    golden[run] = entries(report_path)
    write_golden(golden)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
