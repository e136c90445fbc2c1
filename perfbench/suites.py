"""One-shot suite table: every verification suite timed cold, each in its
own process, then ``bierlab verify --suite all`` once.  Not a workload and
never gated; it refreshes the per-suite baseline by measurement.

    python3 perfbench/suites.py

Writes ``perfbench/results/suites.json`` beside the benchmark's results and
prints the table.  Takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import run

CHILD = r"""
import json, os, sys, time
sys.path.insert(0, sys.argv[2])
from bierlab import census, cli
name, scratch = sys.argv[1], sys.argv[3]
start = time.perf_counter()
if name == "all":
    rc = cli.run(["verify", "--suite", "all", "--out", os.path.join(scratch, "all.json")])
    row = {"exit_code": rc}
else:
    report = census.verify(name)
    row = {"instances": report.instance_count, "passed": report.pass_count, "ok": report.ok}
row["seconds"] = time.perf_counter() - start
print(json.dumps(row))
"""


def time_suite(name: str, scratch: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, name, str(run.SRC), scratch],
        capture_output=True, text=True, check=True, timeout=1800,
    )
    return {"suite": name, **json.loads(done.stdout.splitlines()[-1])}


def main() -> int:
    if not (run.SRC / "bierlab" / "__init__.py").is_file():
        print(f"error: no bierlab sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from bierlab import census

    work_root = run.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory(prefix="suites-", dir=work_root) as scratch:
        for name in sorted(census.SUITES) + ["all"]:
            rows.append(time_suite(name, scratch))
            row = rows[-1]
            detail = (f"exit code {row['exit_code']}" if name == "all"
                      else f"{row['passed']}/{row['instances']} passed")
            print(f"{name}: {row['seconds']:.1f} s, {detail}", flush=True)
    out = run.HERE / "results"
    out.mkdir(exist_ok=True)
    with open(out / "suites.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": run.machine_facts(), "suites": rows}, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
