#!/usr/bin/env python3
"""Fail if a smoke-grid study artifact holds a row its committed twin lacks.

Usage: smoke_rows_match.py COMMITTED_DIR [ARTIFACT_DIR]

`repro --smoke all` rewrites every gated study's BENCH_<id>.json in
ARTIFACT_DIR (default: the current directory). A smoke cell re-runs its
full-grid twin with the same seed, so every row of every row array in a
rewritten file must appear verbatim (same keys, same order, same number
literals) in the same array of the committed file saved in COMMITTED_DIR
before the run. A missing row means a prediction or a measurement moved,
or the committed artifact is stale.
"""

import json
import pathlib
import sys


def row_arrays(path):
    """The file's row arrays, each row a tuple of (key, literal) pairs."""
    doc = json.loads(
        path.read_text(),
        parse_float=str,
        parse_int=str,
        object_pairs_hook=tuple,
    )
    return {key: value for key, value in doc if isinstance(value, list)}


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    committed_dir = pathlib.Path(argv[1])
    artifact_dir = pathlib.Path(argv[2] if len(argv) == 3 else ".")
    missing = 0
    checked = 0
    for smoke in sorted(artifact_dir.glob("BENCH_*.json")):
        twin = committed_dir / smoke.name
        if not twin.exists():
            print(f"{smoke.name}: no committed twin in {committed_dir}")
            missing += 1
            continue
        full = row_arrays(twin)
        for array, rows in row_arrays(smoke).items():
            known = set(full.get(array, []))
            for row in rows:
                checked += 1
                if row not in known:
                    missing += 1
                    print(f"{smoke.name} {array}: {json.dumps(dict(row))}")
    print(f"{missing} of {checked} smoke rows missing from the committed artifacts")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
