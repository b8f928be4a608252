#!/usr/bin/env python3
"""Rank agreement between two sets of figure CSVs.

usage: rank_agreement.py OLD_DIR NEW_DIR [fig7 fig8 ...]

For every CSV both directories hold (restricted to the given name
prefixes, default fig7 fig8 fig9 fig10), every row, and every pair of
series columns whose OLD values differ by more than 2 % of the larger,
checks that NEW orders the pair the same way. Prints one line per
disagreement, then the agreement rate as a markdown table row per file.
Exit status 1 if the overall rate is below 90 %.
"""
import csv
import itertools
import os
import sys


def rows(path):
    with open(path, newline="") as f:
        table = list(csv.reader(f))
    return table[0], {r[0]: r[1:] for r in table[1:]}


def main():
    old_dir, new_dir = sys.argv[1], sys.argv[2]
    prefixes = tuple(sys.argv[3:]) or ("fig7", "fig8", "fig9", "fig10")
    total = agree = 0
    summary = []
    for name in sorted(os.listdir(old_dir)):
        if not (name.endswith(".csv") and name.startswith(prefixes)):
            continue
        new_path = os.path.join(new_dir, name)
        if not os.path.exists(new_path):
            continue
        header, old = rows(os.path.join(old_dir, name))
        _, new = rows(new_path)
        pairs = same = 0
        for x, old_cells in old.items():
            new_cells = new.get(x)
            if new_cells is None:
                continue
            for i, j in itertools.combinations(range(len(old_cells)), 2):
                cells = (old_cells[i], old_cells[j], new_cells[i], new_cells[j])
                if "" in cells:
                    continue
                oa, ob, na, nb = map(float, cells)
                if abs(oa - ob) <= 0.02 * max(oa, ob):
                    continue
                pairs += 1
                if (oa < ob) == (na < nb) and na != nb:
                    same += 1
                else:
                    print(
                        f"{name} {header[0]}={x}: {header[i + 1]} vs {header[j + 1]}: "
                        f"old {oa:.3f} / {ob:.3f}, new {na:.3f} / {nb:.3f}"
                    )
        total += pairs
        agree += same
        summary.append((name, pairs, same))
    print()
    print("| file | pairs compared | same order |")
    print("|---|---:|---:|")
    for name, pairs, same in summary:
        print(f"| `{name}` | {pairs} | {same} |")
    rate = agree / total if total else 1.0
    print(f"| **all** | {total} | {agree} ({rate:.1%}) |")
    return 0 if rate >= 0.9 else 1


if __name__ == "__main__":
    sys.exit(main())
