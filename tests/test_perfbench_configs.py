"""The program against its benchmark, perfbench: its configs and its step counts."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import satspread as ss

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py``, loaded by path: ``perfbench`` is no package.
    It is in ``sys.modules`` while it runs, where its dataclass looks it up."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_workload_config_loads_for_its_subcommand(tmp_path):
    wl = load_workloads()
    for workload in wl.WORKLOADS.values():
        for seed in range(wl.VARIANTS):
            path = tmp_path / f"{workload.name}{seed}.ini"
            path.write_text(workload.config(wl.draw(workload.name, seed)), encoding="utf-8")
            cfg = ss.load_config(path, workload.command)
            assert cfg.raw["model"]["kind"] == "singular"


def test_workload_step_counts_match_the_program():
    """The benchmark's mirror of the step-count rule, which sizes its traced
    ``cell_steps`` gate, agrees with ``_step_count`` on every stepped run:
    ``sat2d``, ``speed1d``, and ``stiff2d``'s gamma runs at their stability
    caps with the singular reference at the finest of them."""
    wl = load_workloads()
    stiff = wl.STIFF2D
    caps = [ss.stability_cap("gamma", ss.linear_growth(1.0), g) for g in stiff["gammas"]]
    assert caps == [0.1 / g for g in stiff["gammas"]]
    runs = [(wl.SAT2D["t_end"], wl.SAT2D["dt"]), (wl.SPEED1D["t_end"], wl.SPEED1D["dt"])]
    runs += [(stiff["horizon"], dt) for dt in caps + [min(caps)]]
    for t_end, dt in runs:
        params = ss.ModelParams(model="singular", dt=dt, t_end=t_end)
        assert wl._steps(t_end, dt) == ss.dynamics._step_count(params)[0], (t_end, dt)
    assert [wl._steps(stiff["horizon"], dt) for dt in caps] == [16, 64, 256]
