"""Smoke self-test of the benchmark.

Runs every workload at its tiny sizes, untraced and traced, and checks
that the result line lists every metric of BENCHMARK.json by name with its
unit and that every job matched its recorded outcome.  Also checks the
self-time arithmetic on a hand-made span tree, and that the benchmark
refuses to run where there is no source tree.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def test_self_times() -> None:
    # a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,6]
    spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0],
             ["d", 0, 5.0, 6.0]]
    check(self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self times of a nest")
    try:
        self_times([["a", -1, 0.0, 1.0], ["b", 0, 0.5, 2.0]])
    except ValueError:
        pass
    else:
        check(False, "a child outside its parent was accepted")
    tracer = Tracer()
    tracer.spans = [["v", -1, 0.0, 4.0], ["v", 0, 1.0, 2.0], ["m", 1, 1.5, 2.0]]
    spans = tracer.summary()["spans"]
    check(spans["v"] == {"calls": 2, "s": 4.0, "self_s": 3.5},
          f"nested spans of one name counted once: {spans['v']}")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)


def test_workloads(bench: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for workload in bench["workloads"]:
            name = workload["name"]
            proc = run([str(RUN), "--workload", name, "--seed", "7",
                        "--seconds", "0", "--trace", str(trace), "--tiny"])
            check(proc.returncode == 0,
                  f"{name} trace {trace} exited {proc.returncode}: "
                  f"{proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace {trace}: {proc.stderr[-800:]}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == want, f"{name} trace {trace}: metrics {got} "
                               f"differ from BENCHMARK.json {want}")
            print(f"ok {name} trace {trace}: {len(got)} metrics")


def test_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([str(bare / HERE.name / RUN.name), "--workload",
                    "cli-jumps", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"ran without a source tree: {proc.returncode} {proc.stdout}")
    print("ok refuses to run without src/")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_self_times()
    print("ok self times")
    test_refuses_without_source()
    test_workloads(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
