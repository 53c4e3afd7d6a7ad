"""How far two sets of jacksonlab reports are apart, report by report.

    python3 tools/compare_reports.py A B

A and B are directories of reports written by ``jacksonlab run`` (or trees
of them, such as ``tools/report_digests.py --keep``); a report is matched
by its path relative to A and B.  For every report it prints one line:

    <report>  verdict <same | A -> B>  constant <rel>  rows <rel>  csv <same | changed>
        params <same | changed: k1, k2>

(on one line), where a relative move is |a - b| / max(|a|, |b|), 0 for
equal values and inf where one side is not finite or a table cell or row is
missing.  The row move is the largest over all cells of the report's table,
and the params column names the top-level params whose JSON differs.  Exit
status 1 when a verdict changes, a report is on one side only, or a
constant moves by more than 1e-12 relative (the ROADMAP's rule); else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

CONSTANT_RTOL = 1e-12


def relative_move(a, b):
    """|a - b| / max(|a|, |b|): 0 for equal values (NaN included), inf off the finite numbers."""
    if a == b or (a != a and b != b):
        return 0.0
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (a, b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def row_move(rows_a, rows_b):
    """The largest relative move over the cells of two tables (inf when their shapes differ)."""
    if len(rows_a) != len(rows_b):
        return math.inf
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return math.inf
        worst = max([worst, *(relative_move(a, b) for a, b in zip(ra, rb))])
    return worst


def changed_params(params_a, params_b):
    """"same", or "changed: " and the sorted top-level params whose JSON differs."""
    changed = sorted(k for k in params_a.keys() | params_b.keys()
                     if json.dumps(params_a.get(k), sort_keys=True)
                     != json.dumps(params_b.get(k), sort_keys=True))
    return "changed: " + ", ".join(changed) if changed else "same"


def reports(root):
    """{path relative to root without suffix: report JSON path} for every report under root."""
    return {str(p.relative_to(root).with_suffix("")): p for p in sorted(root.rglob("*.json"))}


def compare(a_root, b_root):
    """Print one line per report of either side; returns the exit status."""
    a_reports, b_reports = reports(a_root), reports(b_root)
    status = 0
    for name in sorted(a_reports.keys() | b_reports.keys()):
        if name not in a_reports or name not in b_reports:
            print(f"{name}  only in {'B' if name in b_reports else 'A'}")
            status = 1
            continue
        a, b = (json.loads(p.read_text()) for p in (a_reports[name], b_reports[name]))
        csv_a, csv_b = (p.with_suffix(".csv") for p in (a_reports[name], b_reports[name]))
        same_csv = (csv_a.exists() and csv_b.exists()
                    and csv_a.read_bytes() == csv_b.read_bytes())
        constant = relative_move(a["constant"], b["constant"])
        verdict = "same" if a["verdict"] == b["verdict"] else f"{a['verdict']} -> {b['verdict']}"
        print(f"{name}  verdict {verdict}  constant {constant:.3g}  "
              f"rows {row_move(a['table'], b['table']):.3g}  "
              f"csv {'same' if same_csv else 'changed'}  "
              f"params {changed_params(a.get('params', {}), b.get('params', {}))}")
        if verdict != "same" or constant > CONSTANT_RTOL:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="directory of the reference reports")
    parser.add_argument("b", type=Path, help="directory of the reports to compare")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
