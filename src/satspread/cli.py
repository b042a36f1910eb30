"""Command-line front end: simulate | wave | speed | converge | compare."""
import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (_check_fit_window, comparison_harness, estimate_speed,
                       gamma_convergence_study, support_confinement_check,
                       track_fronts)
from .config import ConfigError, RunConfig, build_initial_field, load_config
from .dynamics import GridField, run
from .errors import ScientificError
from .kernels import FrontKernelProfile, front_profile
from .output import write_csv, write_field_csv, write_json
# Only wave and speed shoot, but perfbench's tracer looks up every layer
# module in sys.modules right after this module is imported.
from .waves import find_c_star, sample_wave, shoot_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SCIENCE = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="satspread",
        description="Nonlocal growth-with-congestion simulator and analysis tool")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "time-integrate one model run"),
                      ("wave", "compute wave profiles and the minimal speed"),
                      ("speed", "measure the spreading speed of a compact seed"),
                      ("converge", "stiff-pressure convergence study"),
                      ("compare", "ordered-pair comparison run")):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the run config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted and ignored; every run is serial")
    args = parser.parse_args(argv)

    handler = {"simulate": _cmd_simulate, "wave": _cmd_wave,
               "speed": _cmd_speed, "converge": _cmd_converge,
               "compare": _cmd_compare}[args.command]
    try:
        cfg = load_config(args.config, args.command)
        for note in cfg.warnings:
            print(f"warning: {note}", file=sys.stderr)
        out_dir = Path(args.out) if args.out else Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScientificError as exc:
        print(f"scientific failure: {exc}", file=sys.stderr)
        return EXIT_SCIENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _study(cfg: RunConfig, **keys: str) -> dict:
    """Keyword arguments from the ``[study]`` values the config sets: each
    parameter in ``keys`` takes the value of the key it names.  An unset key
    leaves the parameter to its library default."""
    return {param: cfg.study[key] for param, key in keys.items() if key in cfg.study}


def _verdict(*criteria: tuple[bool, str]) -> int:
    """``EXIT_OK``, or ``ScientificError`` (exit 4) naming each failed criterion."""
    failures = "; ".join(reason for failed, reason in criteria if failed)
    if failures:
        raise ScientificError(failures)
    return EXIT_OK


def _minimal_front(cfg: RunConfig) -> tuple[FrontKernelProfile, float]:
    """The kernel's front profile and the minimal speed c* on it."""
    profile = front_profile(cfg.kernel)
    return profile, find_c_star(cfg.growth, profile).c_star


def _run_once(cfg: RunConfig, record_lipschitz: bool = False):
    u0 = build_initial_field(cfg)
    return run(u0, cfg.model, cfg.stencil, cfg.growth,
               snapshot_interval=cfg.snapshot_interval,
               record_lipschitz=record_lipschitz)


def _cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    # summary.json is the only artifact with monitors.
    result = _run_once(cfg, record_lipschitz=True)
    grid = result.final
    for idx, (t, snap) in enumerate(zip(result.times, result.snapshots)):
        field = GridField(snap, grid.spacing, grid.origin, t)
        write_field_csv(out_dir / f"snapshot_{idx:04d}.csv", field,
                        config=cfg.raw)
    sat = result.saturation_time
    if grid.dim == 1:
        write_csv(out_dir / "saturation_time.csv", ["x", "t_saturated"],
                  [grid.axis_coords(0), sat], config=cfg.raw)
    else:
        write_csv(out_dir / "saturation_time.csv", ["t_saturated"],
                  [sat.ravel(order="C")], config=cfg.raw)
    write_json(out_dir / "summary.json",
               {"final_time": result.final.time,
                "clamped_total": result.clamped_total,
                "monitors": result.monitors,
                "snapshot_times": list(result.times),
                "warnings": cfg.warnings},
               config=cfg.raw)
    return _verdict((result.monitors["time_monotonicity_gap"] > 0.0,
                     "monotonicity violated during the run"))


def _cmd_wave(cfg: RunConfig, out_dir: Path) -> int:
    ode_step = cfg.study.get("ode_step")
    s_max = cfg.study.get("s_max")
    factors = (("cstar", 1.0), ("1p5cstar", 1.5), ("2cstar", 2.0))
    try:
        # shoot_profile checks s_max too, but only after the whole c* search
        if s_max is not None and not s_max >= cfg.kernel.radius:
            raise ValueError("s_max must reach at least ell")
        profile = front_profile(cfg.kernel,
                                sample_spacing=cfg.study.get("sample_spacing"))
        result = find_c_star(cfg.growth, profile, ode_step=ode_step,
                             **_study(cfg, tol="wave_tol"))
        shots = [shoot_profile(factor * result.c_star, cfg.growth, profile,
                               s_max=s_max, ode_step=ode_step) for _, factor in factors]
    except ValueError as exc:
        raise ConfigError(f"[study] {exc}") from exc
    write_json(out_dir / "minimal_speed.json", result._asdict(), config=cfg.raw)
    write_csv(out_dir / "front_profile.csv", ["s", "h"],
              [profile.s, profile.samples], config=cfg.raw)
    for (tag, factor), wave in zip(factors, shots):
        phi = wave.phi
        if factor == 1.0:
            # The bisected speed leaves a +-tol tail past ell; export the
            # semi-compact minimal wave those values approximate.
            phi = sample_wave(wave, wave.s, minimal=True)
        write_csv(out_dir / f"profile_{tag}.csv", ["s", "phi"],
                  [wave.s, phi], config=cfg.raw)
    # scan of the bisection signal across the analytic speed bracket
    lo, hi = result.analytic_bounds
    c_scan = np.linspace(lo, hi, 21)
    phi_ell = np.array([shoot_profile(c, cfg.growth, profile,
                                      s_max=cfg.kernel.radius, ode_step=ode_step)
                        .phi_at_ell for c in c_scan])
    write_csv(out_dir / "speed_scan.csv", ["c", "phi_at_ell"],
              [c_scan, phi_ell], config=cfg.raw)
    return EXIT_OK


def _cmd_speed(cfg: RunConfig, out_dir: Path) -> int:
    tolerance = cfg.study.get("tolerance", 0.05)
    if not tolerance > 0:
        raise ConfigError("[study] tolerance must be positive")
    window = _study(cfg, window_fraction="window_fraction")
    try:
        # the check estimate_speed makes after the c* search and the run
        _check_fit_window(cfg.model, cfg.snapshot_interval, **window)
    except ValueError as exc:
        raise ConfigError(f"[study] {exc}") from exc
    _, reference = _minimal_front(cfg)
    result = _run_once(cfg)
    track = track_fronts(result)
    estimate = estimate_speed(track, **window)
    confinement = support_confinement_check(result, cfg.stencil)
    ratio = estimate.fitted_speed / reference
    criteria = ((estimate.degenerate, "degenerate estimate"),
                (not estimate.degenerate and not abs(ratio - 1.0) <= tolerance,
                 f"speed ratio {ratio:.4g} outside 1 ± {tolerance:g}"),
                (confinement.total_violations > 0,
                 f"{confinement.total_violations} support confinement violations"))
    write_csv(out_dir / "front_track.csv",
              ["t", "radius_saturated", "radius_support"],
              [track.times, track.radius_saturated, track.radius_support],
              config=cfg.raw)
    write_json(out_dir / "speed_report.json",
               {"fitted_speed": estimate.fitted_speed,
                "reference_c_star": reference, "speed_ratio": ratio,
                "tolerance": tolerance, "residual": estimate.residual,
                "fit_window": list(estimate.fit_window),
                "degenerate": estimate.degenerate,
                "confinement_violations": confinement.total_violations,
                "passed": not any(failed for failed, _ in criteria)},
               config=cfg.raw)
    return _verdict(*criteria)


def _cmd_converge(cfg: RunConfig, out_dir: Path) -> int:
    u0 = build_initial_field(cfg)
    gammas = cfg.study.get("gamma_list", [8.0, 32.0, 128.0, 512.0])
    try:
        study = gamma_convergence_study(u0, gammas, cfg.stencil, cfg.growth,
                                        horizon=cfg.t_end,
                                        **_study(cfg, threshold="threshold"))
    except ValueError as exc:
        raise ConfigError(f"[study] {exc}") from exc
    write_csv(out_dir / "gamma_distances.csv", ["gamma", "dt", "sup_distance"],
              [np.asarray(study.gammas), np.asarray(study.dts),
               np.asarray(study.distances)], config=cfg.raw)
    report = study._asdict()
    del report["dts"]  # written to gamma_distances.csv
    write_json(out_dir / "converge_report.json", report, config=cfg.raw)
    return _verdict((not study.strictly_decreasing, "gamma distances not strictly decreasing"),
                    (not study.distances[-1] < study.threshold,
                     f"gamma distance {study.distances[-1]:.3g} at gamma"
                     f" {study.gammas[-1]:g} not below {study.threshold:g}"))


def _cmd_compare(cfg: RunConfig, out_dir: Path) -> int:
    kinds = (cfg.initial_spec["kind"], cfg.initial_high_spec["kind"])
    front = _minimal_front(cfg) if "wave_envelope" in kinds else None
    low = build_initial_field(cfg, front=front)
    high = build_initial_field(cfg, spec=cfg.initial_high_spec, front=front)
    try:
        report = comparison_harness(low, high, cfg.model, cfg.stencil, cfg.growth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_json(out_dir / "compare_report.json", report._asdict(), config=cfg.raw)
    return _verdict((not report.passed, f"ordering violation"
                     f" {report.max_violation:.3g} > {report.tolerance:g}"))


if __name__ == "__main__":
    sys.exit(main())
