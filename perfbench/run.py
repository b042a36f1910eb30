"""Benchmark runner for the satspread CLI.

    python3 perfbench/run.py --workload {sat2d,speed1d,stiff2d,wave2d}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Load shape: a closed loop with one
client.  Each invocation is one ``satspread <subcommand>`` in a fresh Python
process (``perfbench/launch.py``) with ``--threads 1`` and BLAS/OpenMP
threads pinned to 1; the next starts when the previous one has exited.
Invocations repeat until the next one would end after ``--seconds``.

Every invocation's ``--out`` directory is hashed.  The first one is checked
(correctness gate and deviation from the seed-commit references); any later
one whose bytes differ from the first is a failed operation, so determinism is
checked on every repeat.

Host load on a shared machine changes execution speed by tens of percent for
minutes at a time, which no amount of repetition inside one run averages out.
So every second invocation is preceded by a calibration: a fresh process that
imports numpy and scipy.ndimage and runs a fixed interpreter loop, none of it
satspread code.  ``wall_s`` and ``setup_s`` are reported in reference seconds:
the median measured time times ``REFERENCE_CALIBRATION_S`` over the run's
median calibration time.  The measured medians and the scale are printed on
the report lines.

``--trace 0`` reports the end-to-end metrics as medians over invocations.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics (medians over the traced ones), ``trace.overhead_s`` and
``trace.unattributed_s``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import layer_metrics, self_times
from workloads import DEFAULT_SEED, RESULT_TOL, WORKLOADS, deviation, digest, draw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
REFERENCES = HERE / "references.npz"
DIGESTS = HERE / "references.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CALIBRATION = "import numpy, scipy.ndimage\ns = 0\nfor i in range(200000): s += i % 7\n"
#: Calibration time that defines one reference second: its median on the
#: 2-core Xeon development machine in a quiet period.
REFERENCE_CALIBRATION_S = 0.6
PER_LAYER_UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p90_us": "us",
    "macs": "count", "macs_per_s": "1/s", "nonzero_frac": "ratio", "steps": "count",
    "cell_steps": "count", "active_band_frac": "ratio",
    "new_saturated_per_step": "cells/step", "snapshot_bytes": "B",
    "rk4_steps": "count", "shots": "count", "bracket_width": "speed",
    "samples": "count", "bytes": "B", "bytes_per_s": "B/s", "import_s": "s",
    "overhead_s": "s", "unattributed_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def invoke(work: Path, command: str, config: Path, tag: str, trace: bool) -> dict:
    """One CLI invocation in a fresh process; times are perf_counter readings."""
    out, marks = work / f"out-{tag}", work / f"marks-{tag}.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(marks), "1" if trace else "0",
            command, "--config", str(config), "--out", str(out), "--threads", "1"]
    with open(work / f"stdout-{tag}.txt", "wb") as so, \
            open(work / f"stderr-{tag}.txt", "wb") as se:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=so, stderr=se)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        end = time.perf_counter()
    info = {"code": code, "wall_s": end - spawn, "spawn": spawn, "out": out,
            "stderr": (work / f"stderr-{tag}.txt").read_text(
                encoding="utf-8", errors="replace")}
    if code == 0:
        info["marks"] = json.loads(marks.read_text(encoding="utf-8"))
    return info


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "threads": {"cli --threads": 1, **{v: 1 for v in THREAD_VARS}}}


def percentile_line(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q} {float(np.percentile(values, q)):.4f}, n={n}"
    return f"n={n}, too few samples for a percentile with 10 beyond it"


class Session:
    """Invocations of one workload and seed, with their checks."""

    def __init__(self, work: Path, name: str, seed: int):
        self.work, self.wl, self.params = work, WORKLOADS[name], draw(name, seed)
        self.config = work / "config.ini"
        self.config.write_text(self.wl.config(self.params), encoding="utf-8")
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.calibrations: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: str | None = None
        self.checked: dict[str, bool] = {}
        self.result_dev = float("nan")
        self.matches_reference: bool | None = None

    def calibrate(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CALIBRATION], cwd=self.work,
                       env=child_env(), check=True, capture_output=True,
                       timeout=CHILD_TIMEOUT_S)
        self.calibrations.append(time.perf_counter() - start)

    def run_one(self, trace: bool) -> dict:
        tag = str(len(self.plain) + len(self.traced))
        inv = invoke(self.work, self.wl.command, self.config, tag, trace)
        ok = inv["code"] == 0
        if not ok:
            self.problems.append(f"invocation {tag} exited {inv['code']}: "
                                 + inv["stderr"].strip()[-400:])
        else:
            ok = self._check_outputs(inv, tag)
            if trace:
                ok = self._check_spans(inv, tag) and ok
        shutil.rmtree(inv["out"], ignore_errors=True)
        if not ok:
            self.failed += 1
        (self.traced if trace else self.plain).append(inv)
        return inv

    def _check_outputs(self, inv: dict, tag: str) -> bool:
        d = digest(inv["out"])
        if self.first_digest is None:
            self.first_digest = d
        if d not in self.checked:
            problems, values = self.wl.check(inv["out"], ROOT)
            prefix = f"{self.wl.name}.{self.params['variant']}"
            with np.load(REFERENCES) as refs:
                self.result_dev = deviation(values, refs, prefix)
            if not self.result_dev <= RESULT_TOL:
                problems.append(f"result_dev {self.result_dev:.3e} > {RESULT_TOL:g}")
            refs_digest = json.loads(DIGESTS.read_text(encoding="utf-8"))
            self.matches_reference = refs_digest.get(prefix) == d
            self.problems += [f"invocation {tag}: {p}" for p in problems]
            self.checked[d] = not problems
        if d != self.first_digest:
            self.problems.append(f"invocation {tag}: --out bytes differ from invocation 0")
            return False
        return self.checked[d]

    def _check_spans(self, inv: dict, tag: str) -> bool:
        counts: dict[str, int] = {}
        for span in inv["marks"]["spans"]:
            counts[span[0]] = counts.get(span[0], 0) + 1
        missing = [name for name in self.wl.spans if not counts.get(name)]
        if missing:
            self.problems.append(f"invocation {tag}: no calls recorded for {missing}")
        metrics = self.layer(inv)
        if metrics["dynamics.run.cell_steps"] != self.wl.cell_steps:
            self.problems.append(
                f"invocation {tag}: traced cell_steps {metrics['dynamics.run.cell_steps']}"
                f" != configured {self.wl.cell_steps}")
            return False
        return not missing

    @staticmethod
    def layer(inv: dict) -> dict[str, float]:
        marks = inv["marks"]
        return layer_metrics(marks["spans"], marks["main_end"], inv["spawn"])


def measure(session: Session, seconds: float, trace: bool) -> None:
    minimum = 4 if trace else 3
    deadline = time.perf_counter() + seconds
    while True:
        if len(session.plain + session.traced) % 2 == 0:
            session.calibrate()
        session.run_one(trace=trace and len(session.plain) > len(session.traced))
        done = session.plain + session.traced
        typical = statistics.median(i["wall_s"] for i in done)
        if len(done) >= minimum and time.perf_counter() + typical > deadline:
            return


def report(session: Session, trace: bool) -> dict:
    wl, p = session.wl, session.params
    ok_plain = [i for i in session.plain if i["code"] == 0]
    walls = [i["wall_s"] for i in ok_plain]
    print(f"workload {wl.name}: satspread {wl.command}, variant {p['variant']} "
          f"(radius {p['radius']}, ramp {p['ramp']}, height {p['height']}"
          + (f", capacity {p['capacity']})" if wl.name == "wave2d" else ")"))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("note: macs and bytes are computed from array sizes, not measured; the "
          "largest field (301^2 doubles, 0.7 MB) is cache-resident against the L3, "
          "so no bandwidth or roofline figure is reported")
    metrics: dict[str, float] = {}
    if walls:
        wall = statistics.median(walls)
        setup = statistics.median(i["marks"]["first_solve"] - i["spawn"] for i in ok_plain)
        calibration = statistics.median(session.calibrations)
        scale = REFERENCE_CALIBRATION_S / calibration
        metrics["wall_s"] = wall * scale
        metrics["setup_s"] = setup * scale
        metrics["peak_rss_mb"] = statistics.median(
            i["marks"]["peak_rss_kb"] / 1024.0 for i in ok_plain)
        print(f"  calibration       {calibration:.4f} s measured (median of "
              f"{len(session.calibrations)}); scale to reference seconds {scale:.4f}")
        print(f"  wall_s            {metrics['wall_s']:.4f} s  (reference; measured "
              f"median {wall:.4f} s, {percentile_line(walls)})")
        print(f"  setup_s           {metrics['setup_s']:.4f} s  (reference; measured "
              f"median {setup:.4f} s)")
        if wl.cell_steps:
            print(f"  cell_steps_per_s  {wl.cell_steps / wall:.4e} 1/s  measured "
                  f"({wl.cell_steps} cell updates)")
        print(f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB  (median)")
    attempted = len(session.plain) + len(session.traced)
    print(f"  result_dev        {session.result_dev:.3e}  (tolerance {RESULT_TOL:g}; "
          f"bytes identical to seed-commit reference: {session.matches_reference})")
    print(f"  failed_frac       {session.failed / attempted:.4f}  "
          f"({session.failed} of {attempted} invocations)")
    if not trace:
        return {k: metrics[k] for k in END_TO_END if k in metrics}

    ok_traced = [i for i in session.traced if i["code"] == 0]
    if not ok_traced or not walls:
        return {}
    per = [Session.layer(i) for i in ok_traced]
    layer = {k: statistics.median(m[k] for m in per) for k in per[0]}
    layer["trace.overhead_s"] = (statistics.median(i["wall_s"] for i in ok_traced)
                                 - wall)
    for k in sorted(layer):
        print(f"  {k:44s} {layer[k]:.6g} {unit(k)}")
    mid = ok_traced[len(ok_traced) // 2]
    by_name: dict[str, float] = {}
    for span, own in zip(mid["marks"]["spans"], self_times(mid["marks"]["spans"])):
        by_name[span[0]] = by_name.get(span[0], 0.0) + own
    largest = sorted(by_name.items(), key=lambda kv: -kv[1])[:4]
    print("  largest self times: " + ", ".join(
        f"{k} {v:.3f} s ({v / mid['wall_s']:.0%})" for k, v in largest))
    if wl.cell_steps:
        dyn = layer["dynamics.run.self_s"] + layer["dynamics.model_rhs.self_s"]
        print(f"  (dynamics.run.self_s + dynamics.model_rhs.self_s) / measured wall = "
              f"{dyn / wall:.2f}")
    return layer


def unit(metric: str) -> str:
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "satspread" / "cli.py").is_file():
        print(f"error: no satspread source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        warm = subprocess.run([sys.executable, "-c", "import satspread.cli"], cwd=work,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if warm.returncode != 0:
            print("error: satspread.cli does not import:\n" + warm.stderr,
                  file=sys.stderr)
            return 2
        session = Session(work, args.workload, args.seed)
        measure(session, args.seconds, bool(args.trace))
        values = report(session, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in session.problems:
        print(f"problem: {problem}", file=sys.stderr)
    units = END_TO_END if not args.trace else {k: unit(k) for k in values}
    result = {"correct": session.failed == 0 and bool(values),
              "attempted": len(session.plain) + len(session.traced),
              "failed": session.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in values}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
