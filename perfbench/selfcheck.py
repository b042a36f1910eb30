"""Show that the correctness gate catches deliberately perturbed outputs.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  For each workload it makes one clean
invocation (default seed), confirms the gate passes it, then applies small
perturbations to copies of the output directory and confirms that each one is
reported, either as a failed check or as a ``result_dev`` above the
tolerance.  Exits 0 only when every perturbation is caught.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import REFERENCES, ROOT, invoke
from workloads import DEFAULT_SEED, RESULT_TOL, WORKLOADS, deviation, draw


def _edit_json(key_path: tuple, change):
    def apply(out: Path, name: str):
        path = out / name
        body = json.loads(path.read_text(encoding="utf-8"))
        node = body
        for key in key_path[:-1]:
            node = node[key]
        node[key_path[-1]] = change(node[key_path[-1]])
        path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
    return apply


def _nudge_band_cell(out: Path, name: str):
    """Add 1e-6 to one cell strictly inside (0, 1) of the final snapshot."""
    path = sorted(out.glob("snapshot_*.csv"))[-1]
    lines = path.read_text(encoding="utf-8").split("\n")
    for i, line in enumerate(lines):
        if line and not line.startswith("#") and "," not in line:
            try:
                value = float(line)
            except ValueError:
                continue
            if 0.0 < value < 0.5:
                lines[i] = f"{value + 1e-6:.16e}"
                break
    path.write_text("\n".join(lines), encoding="utf-8")


PERTURBATIONS = {
    "sat2d": [
        ("final field cell +1e-6", _nudge_band_cell, ""),
        ("monitor min_u = -1e-3", _edit_json(("monitors", "min_u"), lambda v: -1e-3),
         "summary.json"),
        ("one mask violation", _edit_json(("monitors", "mask_monotonicity_violations"),
                                          lambda v: 1.0), "summary.json"),
    ],
    "speed1d": [
        ("c* x 1.001", _edit_json(("reference_c_star",), lambda v: v * 1.001),
         "speed_report.json"),
        ("fitted speed +1e-6", _edit_json(("fitted_speed",), lambda v: v + 1e-6),
         "speed_report.json"),
        ("speed ratio 1.05", _edit_json(("speed_ratio",), lambda v: 1.05),
         "speed_report.json"),
    ],
    "stiff2d": [
        ("distances reordered", _edit_json(("distances",), lambda v: v[::-1]),
         "converge_report.json"),
        ("last distance +1e-8", _edit_json(("distances",), lambda v: v[:-1] + [v[-1] + 1e-8]),
         "converge_report.json"),
    ],
    "wave2d": [
        ("bracket certificate sign", _edit_json(("phi_ell_lo",), lambda v: abs(v)),
         "minimal_speed.json"),
        ("c* above analytic bound", _edit_json(("c_star",), lambda v: 10.0),
         "minimal_speed.json"),
        ("c* +1e-8", _edit_json(("c_star",), lambda v: v + 1e-8), "minimal_speed.json"),
    ],
}


def verdict(wl, out: Path, prefix: str) -> list[str]:
    problems, values = wl.check(out, ROOT)
    with np.load(REFERENCES) as refs:
        dev = deviation(values, refs, prefix)
    if not dev <= RESULT_TOL:
        problems.append(f"result_dev {dev:.3e}")
    return problems


def main() -> int:
    work = ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    missed = 0
    try:
        for wl in WORKLOADS.values():
            params = draw(wl.name, DEFAULT_SEED)
            config = work / "config.ini"
            config.write_text(wl.config(params), encoding="utf-8")
            inv = invoke(work, wl.command, config, wl.name, trace=False)
            if inv["code"] != 0:
                print(f"{wl.name}: clean invocation failed\n{inv['stderr']}")
                return 1
            prefix = f"{wl.name}.{params['variant']}"
            clean = verdict(wl, inv["out"], prefix)
            print(f"{wl.name}: clean run {'passes' if not clean else clean}")
            missed += bool(clean)
            for label, perturb, name in PERTURBATIONS[wl.name]:
                copy = work / "perturbed"
                shutil.copytree(inv["out"], copy)
                perturb(copy, name)
                found = verdict(wl, copy, prefix)
                print(f"  {label:28s} -> {'caught: ' + '; '.join(found) if found else 'MISSED'}")
                missed += not found
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("all perturbations caught" if not missed else f"{missed} not caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
