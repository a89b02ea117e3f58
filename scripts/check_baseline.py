#!/usr/bin/env python3
"""Virtual-time golden gate: diff a reduced-scale bench sweep against
bench/baseline.jsonl, exactly.

Every bench below is a deterministic simulation, so every field of every
--json row except "wall_ms" (host wall-clock cost) is reproducible byte for
byte on any host and build type.  That includes "events_executed", the
scheduler event count.  Two extra rows pin the sha256 of the fig_speedup
Chrome trace and obs document.  sim_overhead and micro measure host time
only and stay out.

    python3 scripts/check_baseline.py                 # check (exit 1 on diff)
    python3 scripts/check_baseline.py --update        # rewrite the baseline
    python3 scripts/check_baseline.py --build-dir build-release

A change that moves any value must regenerate the baseline with --update and
explain each moved row in CHANGES.md.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "bench", "baseline.jsonl")

# (bench binary, extra flags).  fig_speedup also writes the trace and obs
# document hashed below.
BENCHES = [
    ("table2_basic_ops", []),
    ("fig_speedup", ["--records=512", "--max-p=16"]),
    ("table3_copy", ["--records=512", "--max-p=16"]),
    ("table4_sort", ["--records=512", "--max-p=16"]),
    ("ablation_prefetch", ["--records=48", "--max-p=8"]),
    ("ablation_recovery", ["--records=96"]),
    ("ablation_server_bottleneck", ["--records=128"]),
]

WALL_MS_RE = re.compile(r',"wall_ms":[^,}]*')


def sha256_of(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def collect(build_dir: str) -> list[str]:
    """Run every bench and return the baseline lines, in order."""
    rows: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bridge-baseline-") as tmp:
        for bench, flags in BENCHES:
            binary = os.path.join(build_dir, "bench", bench)
            json_path = os.path.join(tmp, bench + ".jsonl")
            cmd = [binary, *flags, "--json=" + json_path]
            if bench == "fig_speedup":
                cmd += ["--trace=" + os.path.join(tmp, "trace.json"),
                        "--obs=" + os.path.join(tmp, "obs.json")]
            # A bench whose shape check fails still wrote its rows; the diff
            # below is the verdict, so its exit status is only reported.
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(f"check_baseline: {bench} exited {proc.returncode}",
                      file=sys.stderr)
            with open(json_path, encoding="utf-8") as f:
                for line in f:
                    row = WALL_MS_RE.sub("", line.rstrip("\n"), count=1)
                    if "wall_ms" in json.loads(row):
                        raise SystemExit(f"wall_ms left in a {bench} row")
                    rows.append(row)
            if bench == "fig_speedup":
                for name in ("trace", "obs"):
                    digest = sha256_of(os.path.join(tmp, name + ".json"))
                    rows.append(json.dumps(
                        {"bench": f"fig_speedup_{name}", "sha256": digest},
                        separators=(",", ":")))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO, "build"))
    parser.add_argument("--update", action="store_true",
                        help="rewrite bench/baseline.jsonl instead of checking")
    args = parser.parse_args()

    rows = collect(args.build_dir)
    if args.update:
        with open(BASELINE, "w", encoding="utf-8") as f:
            f.write("".join(row + "\n" for row in rows))
        print(f"check_baseline: wrote {len(rows)} rows to {BASELINE}")
        return 0

    with open(BASELINE, encoding="utf-8") as f:
        expected = f.read().splitlines()
    if rows == expected:
        print(f"check_baseline: OK ({len(rows)} rows match)")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        [r + "\n" for r in expected], [r + "\n" for r in rows],
        "bench/baseline.jsonl", "this build"))
    print("check_baseline: virtual time moved; if intended, rerun with "
          "--update and explain each moved row in CHANGES.md",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
