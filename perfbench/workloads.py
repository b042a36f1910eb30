"""The four benchmark workloads: seeded configs, expected spans, output checks.

Each workload is one ``satspread`` subcommand on a config generated here.
``--seed`` picks one of ``VARIANTS`` parameter sets per workload; each set is
drawn from the ranges in ``RANGES`` by a generator seeded with the workload
name and the variant number, so a seed always gives the same config and the
references recorded at the seed commit (``references.npz``) cover every seed.
The program receives only the generated config file; the CLI's own
``--seed`` is not used.
"""
from __future__ import annotations

import ast
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 8
DEFAULT_SEED = 0
#: Parameter ranges the seed draws from.  Plateau: the initial datum is
#: ``height`` on a ball of ``radius`` with a linear ramp of width ``ramp``.
RANGES = {"radius": (1.0, 2.0), "ramp": (0.3, 0.7), "height": (0.9, 1.0),
          "capacity": (2.0, 4.0)}
#: Largest absolute deviation of a key output from its seed-commit reference
#: that still counts as the same result.  It admits reordered floating-point
#: sums (an FFT or incremental convolution) but not a changed saturation event.
RESULT_TOL = 1e-9


def draw(workload: str, seed: int) -> dict:
    variant = seed % VARIANTS
    rng = random.Random(f"{workload}:{variant}")
    params = {"variant": variant}
    for key, (lo, hi) in RANGES.items():
        params[key] = round(rng.uniform(lo, hi), 4)
    return params


def _steps(t_end: float, dt: float) -> int:
    # The step-count rule of satspread.dynamics.run: whole steps plus a
    # shorter last step when t_end is not a multiple of dt.
    n_full = int(math.floor(t_end / dt + 1e-12))
    return n_full + (1 if t_end - n_full * dt >= 1e-12 * dt else 0)


def _cells(box: float, dx: float, dim: int) -> int:
    return (2 * int(round(box / dx)) + 1) ** dim


def _domain(p: dict, box: float) -> str:
    return (f"[domain]\nbox_radius = {box}\ninitial = ball_plateau\n"
            f"height = {p['height']}\nradius = {p['radius']}\nramp = {p['ramp']}\n")


def _kernel(dim: int, dx: float) -> str:
    return f"[kernel]\nkind = indicator_ball\nell = 1.0\ndim = {dim}\ndx = {dx}\n"


def _model(dt: float, t_end: float) -> str:
    return f"[model]\nkind = singular\ndt = {dt}\nt_end = {t_end}\n"


LINEAR = "[growth]\nkind = linear\nrate = 1.0\n"

# sat2d: 301^2 grid, 21x21 stencil (317 taps), 40 steps, 3 snapshots.
SAT2D = dict(dt=0.05, t_end=2.0, dx=0.1, box=15.0)
# speed1d: acceptance criterion 03's refined grid (dx = ell/80, dt = 0.00625)
# on a shorter horizon (6400 steps) that leaves 21 snapshots in the fit window.
SPEED1D = dict(dt=0.00625, t_end=40.0, dx=0.0125, box=22.0)
# stiff2d: 65^2 grid, 17x17 stencil, gamma in {8, 32, 128}.
STIFF2D = dict(gammas=(8.0, 32.0, 128.0), horizon=0.2, dx=0.125, box=4.0)


def _sat2d_config(p):
    c = SAT2D
    return (_model(c["dt"], c["t_end"]) + _kernel(2, c["dx"]) + LINEAR
            + _domain(p, c["box"]) + "[output]\nsnapshot_interval = 1.0\n")


def _speed1d_config(p):
    c = SPEED1D
    return (_model(c["dt"], c["t_end"]) + _kernel(1, c["dx"]) + LINEAR
            + _domain(p, c["box"]) + "[output]\nsnapshot_interval = 1.0\n"
            + "[study]\ntolerance = 0.02\n")


def _stiff2d_config(p):
    c = STIFF2D
    gammas = ", ".join(str(g) for g in c["gammas"])
    return (_model(0.05, c["horizon"]) + _kernel(2, c["dx"]) + LINEAR
            + _domain(p, c["box"]) + f"[study]\ngamma_list = {gammas}\n")


def _wave2d_config(p):
    return (_model(0.05, 1.0) + _kernel(2, 0.125)
            + f"[growth]\nkind = logistic\nrate = 1.0\ncapacity = {p['capacity']}\n"
            + _domain(p, 4.0))


def _stiff2d_cell_steps():
    c = STIFF2D
    # Each gamma runs at its stability cap 0.1/(gamma L) with L = 1 for the
    # unit linear law; the saturated reference reuses the finest step.
    steps = [_steps(c["horizon"], 0.1 / g) for g in c["gammas"]]
    return (sum(steps) + max(steps)) * _cells(c["box"], c["dx"], 2)


# ---------------------------------------------------------------- outputs


def _read_csv(path: Path) -> np.ndarray:
    """Numeric rows of a satspread CSV artifact as a 2-d float array."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _floats(body: dict, *keys) -> dict[str, np.ndarray]:
    return {k: np.atleast_1d(np.asarray(body[k], dtype=float)) for k in keys}


def _c_star_oracle(root: Path) -> float:
    """C_STAR_LINEAR_1D from tests/oracles.py, read without importing it."""
    tree = ast.parse((root / "tests" / "oracles.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "C_STAR_LINEAR_1D"):
            return float(ast.literal_eval(node.value))
    raise LookupError("C_STAR_LINEAR_1D not found in tests/oracles.py")


def _sat2d_check(out: Path, root: Path):
    problems = []
    mon = _read_json(out / "summary.json")["monitors"]
    if not mon["min_u"] >= 0.0:
        problems.append(f"min_u = {mon['min_u']} < 0")
    if not mon["max_u"] <= 1.0:
        problems.append(f"max_u = {mon['max_u']} > 1")
    if mon["time_monotonicity_gap"] != 0.0:
        problems.append(f"time monotonicity gap {mon['time_monotonicity_gap']}")
    if mon["mask_monotonicity_violations"] != 0.0:
        problems.append(f"{mon['mask_monotonicity_violations']} mask violations")
    final = _read_csv(sorted(out.glob("snapshot_*.csv"))[-1])[:, 0]
    sat = _read_csv(out / "saturation_time.csv")[:, 0]
    if not np.all((final >= 0.0) & (final <= 1.0)):
        problems.append("final field leaves [0, 1]")
    finite = sat[np.isfinite(sat)]
    if finite.size == 0 or not np.all((finite >= 0.0) & (finite <= SAT2D["t_end"] + 1e-9)):
        problems.append("saturation times missing or outside [0, t_end]")
    if np.any(np.isfinite(sat) != (final == 1.0)):
        problems.append("saturated set differs from the cells at 1 in the final field")
    return problems, {"final_field": final, "saturation_time": sat}


def _speed1d_check(out: Path, root: Path):
    problems = []
    rep = _read_json(out / "speed_report.json")
    oracle = _c_star_oracle(root)
    rel = abs(rep["reference_c_star"] - oracle) / oracle
    if not rel <= 1e-4:
        problems.append(f"reference c* off the oracle by {rel:.2e} > 1e-4")
    if not abs(rep["speed_ratio"] - 1.0) <= rep["tolerance"]:
        problems.append(f"speed ratio {rep['speed_ratio']} outside 1 +- {rep['tolerance']}")
    if not rep["passed"] or rep["degenerate"] or rep["confinement_violations"]:
        problems.append("speed report not passed, degenerate or support not confined")
    return problems, _floats(rep, "reference_c_star", "fitted_speed")


def _stiff2d_check(out: Path, root: Path):
    problems = []
    rep = _read_json(out / "converge_report.json")
    d = rep["distances"]
    if not all(b < a for a, b in zip(d, d[1:])):
        problems.append(f"gamma distances not strictly decreasing: {d}")
    if not rep["passed"]:
        problems.append("convergence study not passed")
    return problems, _floats(rep, "distances")


def _wave2d_check(out: Path, root: Path):
    problems = []
    ms = _read_json(out / "minimal_speed.json")
    if not ms["phi_ell_lo"] < 0.0 < ms["phi_ell_hi"]:
        problems.append(f"bracket certificate fails: phi(ell) = {ms['phi_ell_lo']}, "
                        f"{ms['phi_ell_hi']}")
    lo, hi = ms["analytic_bounds"]
    if not lo < ms["c_star"] < hi:
        problems.append(f"c* = {ms['c_star']} outside analytic bounds ({lo}, {hi})")
    if not ms["bracket"][0] <= ms["c_star"] <= ms["bracket"][1]:
        problems.append("c* outside its certified bracket")
    return problems, _floats(ms, "c_star")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    config: Callable[[dict], str]
    cell_steps: int
    #: Spans that must record at least one call in a traced run.
    spans: tuple[str, ...]
    check: Callable[[Path, Path], tuple[list[str], dict[str, np.ndarray]]]


_SETUP = ("config.load_config", "kernels.build_kernel")
_STEPPING = ("config.build_initial_field", "dynamics.run", "dynamics.model_rhs",
             "kernels.convolve_field")
_WAVES = ("kernels.front_profile", "waves.find_c_star", "waves.shoot_profile")
_WRITE = ("output.write_csv", "output.write_json")

WORKLOADS = {w.name: w for w in (
    Workload("sat2d", "simulate",
             "saturated-mask convolution dominates and the active band is a thin "
             "annulus; carries the large artifact writes",
             _sat2d_config,
             _steps(SAT2D["t_end"], SAT2D["dt"]) * _cells(SAT2D["box"], SAT2D["dx"], 2),
             _SETUP + _STEPPING + _WRITE + ("output.write_field_csv",),
             _sat2d_check),
    Workload("speed1d", "speed",
             "headline experiment: per-step Python overhead and 1-d np.convolve "
             "decide the time, plus one c* search",
             _speed1d_config,
             _steps(SPEED1D["t_end"], SPEED1D["dt"])
             * _cells(SPEED1D["box"], SPEED1D["dx"], 1),
             _SETUP + _STEPPING + _WAVES + _WRITE
             + ("analysis.track_fronts", "analysis.estimate_speed",
                "analysis.support_confinement_check"),
             _speed1d_check),
    Workload("stiff2d", "converge",
             "same convolution layer on dense pressure fields u^gamma, where a "
             "saturated-set shortcut cannot help",
             _stiff2d_config, _stiff2d_cell_steps(),
             _SETUP + _STEPPING + _WRITE + ("analysis.gamma_convergence_study",),
             _stiff2d_check),
    Workload("wave2d", "wave",
             "no time stepping: isolates shooting, bisection and 2-d front-profile "
             "quadrature; bypasses every stepping optimisation",
             _wave2d_config, 0, _SETUP + _WAVES + _WRITE, _wave2d_check),
)}


def digest(out: Path) -> str:
    """SHA-256 over every file of an output directory, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def deviation(values: dict[str, np.ndarray], refs, prefix: str) -> float:
    """Largest absolute deviation of key outputs from their references.

    Infinite entries (never-saturated cells) must match exactly in position;
    a differing shape or set of infinite entries counts as an infinite deviation.
    """
    worst = 0.0
    for key, got in values.items():
        ref = refs[f"{prefix}.{key}"]
        if got.shape != ref.shape or np.any(np.isfinite(got) != np.isfinite(ref)):
            return math.inf
        fin = np.isfinite(ref)
        if fin.any():
            worst = max(worst, float(np.max(np.abs(got[fin] - ref[fin]))))
        if np.any(got[~fin] != ref[~fin]):
            return math.inf
    return worst
