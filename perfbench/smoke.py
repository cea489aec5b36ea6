"""Smoke test of the benchmark itself, at a tiny size (8x8 mesh, 2 steps).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It checks that every workload prints every metric of BENCHMARK.json with
its unit, untraced and traced; that a corrupted reference value is caught
as a failed run; and that without the program's sources the benchmark exits
with an error and prints no result.  Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
TINY = ["--seed", "0", "--seconds", "1", "--nx", "8", "--steps", "2"]


def bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, (label, sorted(got))
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (label, m["name"], value)
        assert isinstance(value["value"], (int, float)), (label, m["name"], value)


def main() -> int:
    from run import WORKLOADS  # every workload, also those BENCHMARK.json leaves out

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = sorted(WORKLOADS)
    for name in workloads:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result = last_json(bench(ROOT, "--workload", name, "--trace", trace, *TINY))
            check_metrics(result, wanted, f"{name} trace={trace}")
            print(f"ok   {name} trace={trace}: {len(wanted)} metrics with units")

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        reference = json.loads((HERE / "reference.json").read_text())
        for key in reference["runs"]:
            if key.endswith("@8x8/2"):
                reference["runs"][key]["entropy"] *= 1.001
        corrupted = Path(tmp) / "reference.json"
        corrupted.write_text(json.dumps(reference))
        name = workloads[-1]
        result = last_json(bench(ROOT, "--workload", name, "--trace", "0",
                                 "--reference", str(corrupted), *TINY))
        written = json.loads((OUT_DIR / f"{name}-seed0-trace0.json").read_text())
        assert not result["correct"] and result["failed"] > 0, result
        assert written["metrics"]["failed_share"] > 0.0, written["metrics"]
        print(f"ok   {name}: corrupted reference gives failed_share "
              f"{written['metrics']['failed_share']:g}")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", name, "--trace", "0", *TINY)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok   without the sources: exit code "
              f"{proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
