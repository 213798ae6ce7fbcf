#!/usr/bin/env python3
"""Holds EXPERIMENTS.md's measured cells to the paper benches' CSVs.

Usage: check_experiments.py <EXPERIMENTS.md> <dir holding the bench CSVs>

Each guarded table's measured columns are parsed from the markdown and
compared with the CSV the bench wrote, at the precision the document
prints: a cell "90.9" must equal the CSV value formatted with one
decimal.  Exits 1 naming the table, row and column of every mismatch.
"""

import csv
import os
import re
import sys

# (heading, CSV file, CSV key column, {markdown column: CSV columns}).
# A markdown cell holding "a/b/c/d" maps onto four CSV columns.
TABLES = [
    ("Table II", "table2_exec_time.csv", "n", {
        "CPUs (s)": ["cpus_s"],
        "GTX680 (s)": ["gtx680_s"],
        "Hybrid-FPM (s)": ["hybrid_fpm_s"],
    }),
    ("Table III", "table3_partitions.csv", "n", {
        "CPM G1/G2/S5/S6": ["cpm_g1", "cpm_g2", "cpm_s5", "cpm_s6"],
        "FPM G1/G2/S5/S6": ["fpm_g1", "fpm_g2", "fpm_s5", "fpm_s6"],
    }),
    ("Fig. 7", "fig7_exec_vs_size.csv", "n", {
        "Homogeneous": ["homogeneous_s"],
        "CPM": ["cpm_s"],
        "FPM": ["fpm_s"],
    }),
    ("A1", "ablation_blocking.csv", "b", {
        "n": ["n"],
        "exec (s)": ["exec_s"],
        "imbalance %": ["imbalance"],
    }),
]


def cells(line):
    return [cell.strip().strip("*").strip() for cell in line.strip().strip("|").split("|")]


def markdown_table(text, heading):
    """Header and rows of the first table under the heading `heading`."""
    match = re.search(r"^#+ " + re.escape(heading) + r"(?![\w.])", text, re.M)
    if not match:
        return None, []
    lines = text[match.end():].splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("|")), None)
    if start is None:
        return None, []
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append(cells(line))
    return table[0], table[2:]


def printed(value, cell):
    """`value` formatted with as many decimals as `cell` shows."""
    decimals = len(cell.split(".")[1]) if "." in cell else 0
    return f"{float(value):.{decimals}f}"


def check(experiments, csv_dir):
    with open(experiments, encoding="utf-8") as f:
        text = f.read()
    errors = []
    for heading, csv_name, key, columns in TABLES:
        header, rows = markdown_table(text, heading)
        if header is None or not rows:
            errors.append(f"{heading}: no table found in {experiments}")
            continue
        missing = [column for column in columns if column not in header]
        if missing:
            errors.append(f"{heading}: no column {', '.join(missing)}")
            continue
        with open(os.path.join(csv_dir, csv_name), encoding="utf-8") as f:
            by_key = {int(float(r[key])): r for r in csv.DictReader(f)}
        for row in rows:
            label = row[0]
            number = re.match(r"\d+", label)
            measured = by_key.get(int(number.group())) if number else None
            if measured is None:
                errors.append(f"{heading}, row {label}: no such row in {csv_name}")
                continue
            for column, csv_columns in columns.items():
                cell = row[header.index(column)]
                parts = cell.split("/")
                if len(parts) != len(csv_columns):
                    errors.append(f"{heading}, row {label}, column {column}: "
                                  f"'{cell}' is not {len(csv_columns)} values")
                    continue
                want = "/".join(printed(measured[c], part)
                                for c, part in zip(csv_columns, parts))
                if want != cell:
                    errors.append(f"{heading}, row {label}, column {column}: "
                                  f"EXPERIMENTS.md says {cell}, {csv_name} "
                                  f"gives {want}")
    return errors


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    errors = check(sys.argv[1], sys.argv[2])
    for error in errors:
        print("MISMATCH " + error)
    if not errors:
        print(f"EXPERIMENTS.md matches the bench CSVs "
              f"({', '.join(t[0] for t in TABLES)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
