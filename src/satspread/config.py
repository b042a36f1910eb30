"""Run configuration: INI-style files with strict key validation."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, growth as growth_mod, kernels
from .dynamics import GridField, ModelParams, grid_field, stability_cap
from .growth import GrowthLaw
from .kernels import ConvolutionStencil, Kernel


class ConfigError(ValueError):
    """Configuration file is invalid; the message names the offending key."""


_SECTION_KEYS = {
    "model": {"kind", "gamma", "dt", "t_end", "saturation_eps"},
    "kernel": {"kind", "ell", "dim", "dx"},
    "growth": {"kind", "rate", "capacity", "gain_kind", "gain_value"},
    "domain": {"box_radius", "initial", "height", "radius", "ramp", "sigma",
               "cutoff", "value", "speed_factor", "offset"},
    "domain_high": {"initial", "height", "radius", "ramp", "sigma", "cutoff",
                    "value", "speed_factor", "offset"},
    "output": {"directory", "snapshot_interval"},
    "study": {"window_fraction", "tolerance", "gamma_list", "threshold",
              "wave_tol", "ode_step", "sample_spacing", "s_max"},
}
_REQUIRED_SECTIONS = ("model", "kernel", "growth", "domain")
_INITIAL_KINDS = ("ball_plateau", "gaussian_bump", "wave_envelope", "constant")


@dataclass
class RunConfig:
    """Validated configuration with resolved model objects."""

    model: ModelParams
    kernel: Kernel
    stencil: ConvolutionStencil
    growth: GrowthLaw
    box_radius: float
    initial_spec: dict
    initial_high_spec: dict | None
    output_dir: str
    snapshot_interval: float | None
    study: dict
    raw: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def _typed(section: str, key: str, raw: str, kind: str):
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw.strip()
        if kind == "float_list":
            return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        pass
    raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind}")


def _parse_sections(path: Path, command: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    allowed_sections = set(_SECTION_KEYS)
    if command != "compare":
        allowed_sections.discard("domain_high")
    found = {}
    for section in parser.sections():
        if section not in allowed_sections:
            raise ConfigError(f"unknown section [{section}]")
        keys = dict(parser.items(section))
        for key in keys:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        found[section] = keys
    for section in _REQUIRED_SECTIONS:
        if section not in found:
            raise ConfigError(f"missing required section [{section}]")
    if command == "compare" and "domain_high" not in found:
        raise ConfigError("compare needs a [domain_high] section")
    return found


def _build_growth(items: dict[str, str]) -> GrowthLaw:
    kind = _typed("growth", "kind", items.get("kind", ""), "str")
    rate = _typed("growth", "rate", items.get("rate", "1.0"), "float")
    if kind == "linear":
        law = growth_mod.linear_growth(rate)
    elif kind == "logistic":
        if "capacity" not in items:
            raise ConfigError("[growth] capacity is required for logistic kind")
        capacity = _typed("growth", "capacity", items["capacity"], "float")
        law = growth_mod.logistic_growth(rate, capacity)
    else:
        raise ConfigError(f"[growth] kind = {kind!r} is not supported")
    gain_kind = items.get("gain_kind")
    if gain_kind is not None:
        if gain_kind.strip() != "constant":
            raise ConfigError("[growth] gain_kind must be 'constant'")
        if "gain_value" not in items:
            raise ConfigError("[growth] gain_value is required with gain_kind")
        value = _typed("growth", "gain_value", items["gain_value"], "float")
        law = law.with_gain(growth_mod.constant_gain(value))
    return law


def _initial_spec(section: str, items: dict[str, str]) -> dict:
    kind = _typed(section, "initial", items.get("initial", ""), "str")
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"[{section}] initial = {kind!r} is not one of {_INITIAL_KINDS}")
    spec = {"kind": kind}
    floats = {"height", "radius", "ramp", "sigma", "cutoff", "value",
              "speed_factor", "offset"}
    for key, raw in items.items():
        if key in ("initial", "box_radius"):
            continue
        if key in floats:
            spec[key] = _typed(section, key, raw, "float")
    required = {"ball_plateau": ("height", "radius", "ramp"),
                "gaussian_bump": ("height", "sigma", "cutoff"),
                "wave_envelope": ("speed_factor", "offset"),
                "constant": ("value",)}[kind]
    for key in required:
        if key not in spec:
            raise ConfigError(f"[{section}] {key} is required for initial = {kind}")
    return spec


def load_config(path: str | Path, command: str = "simulate") -> RunConfig:
    """Parse, validate and resolve a run configuration for one subcommand."""
    path = Path(path)
    sections = _parse_sections(path, command)

    model_items = sections["model"]
    model_kind = _typed("model", "kind", model_items.get("kind", ""), "str")
    if model_kind not in dynamics.MODEL_KINDS:
        raise ConfigError(f"[model] kind = {model_kind!r} is not one of {dynamics.MODEL_KINDS}")
    dt = _typed("model", "dt", model_items.get("dt", "0.05"), "float")
    t_end = _typed("model", "t_end", model_items.get("t_end", "1.0"), "float")
    sat_eps = _typed("model", "saturation_eps",
                     model_items.get("saturation_eps", "0.0"), "float")
    gamma = None
    if "gamma" in model_items:
        gamma = _typed("model", "gamma", model_items["gamma"], "float")
    try:
        params = ModelParams(model=model_kind, dt=dt, t_end=t_end, gamma=gamma,
                             saturation_eps=sat_eps)
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    kern_items = sections["kernel"]
    kern_kind = _typed("kernel", "kind", kern_items.get("kind", ""), "str")
    ell = _typed("kernel", "ell", kern_items.get("ell", "1.0"), "float")
    dim = _typed("kernel", "dim", kern_items.get("dim", "1"), "int")
    dx = _typed("kernel", "dx", kern_items.get("dx", ""), "float")
    try:
        kernel, stencil = kernels.build_kernel(kern_kind, ell, dim, dx)
    except kernels.KernelError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc

    try:
        growth = _build_growth(sections["growth"])
    except growth_mod.GrowthError as exc:
        raise ConfigError(f"[growth] {exc}") from exc
    if params.model == "generalized_singular" and growth.gain is None:
        raise ConfigError("[growth] gain_kind is required for the generalized model")

    cap = stability_cap(params.model, growth, params.gamma)
    if params.dt > cap * (1 + 1e-12):
        raise ConfigError(
            f"[model] dt = {params.dt} exceeds the stability cap {cap:.6g}")

    domain_items = sections["domain"]
    if "box_radius" not in domain_items:
        raise ConfigError("[domain] box_radius is required")
    box_radius = _typed("domain", "box_radius", domain_items["box_radius"], "float")
    if box_radius <= 0:
        raise ConfigError("[domain] box_radius must be positive")
    initial_spec = _initial_spec("domain", domain_items)
    high_spec = None
    if command == "compare":
        high_spec = _initial_spec("domain_high", sections["domain_high"])

    out_items = sections.get("output", {})
    out_dir = out_items.get("directory", "out").strip()
    snap = None
    if "snapshot_interval" in out_items:
        snap = _typed("output", "snapshot_interval", out_items["snapshot_interval"],
                      "float")
        if snap <= 0:
            raise ConfigError("[output] snapshot_interval must be positive")

    study_items = sections.get("study", {})
    study = {}
    for key, kind in (("window_fraction", "float"), ("tolerance", "float"),
                      ("threshold", "float"), ("wave_tol", "float"),
                      ("ode_step", "float"), ("sample_spacing", "float"),
                      ("s_max", "float"), ("gamma_list", "float_list")):
        if key in study_items:
            study[key] = _typed("study", key, study_items[key], "float")\
                if kind == "float" else _typed("study", key, study_items[key], kind)

    warnings = []
    support_radius = _support_radius(initial_spec, ell)
    needed = support_radius + ell + ell * growth.sup * params.t_end
    if box_radius < needed:
        warnings.append(
            f"box_radius {box_radius} may truncate the run: support can reach "
            f"{needed:.6g} by t_end (initial {support_radius:.6g} + ell + "
            "upper speed bound * t_end)")

    raw = {name: dict(items) for name, items in sections.items()}
    return RunConfig(model=params, kernel=kernel, stencil=stencil, growth=growth,
                     box_radius=box_radius, initial_spec=initial_spec,
                     initial_high_spec=high_spec, output_dir=out_dir,
                     snapshot_interval=snap, study=study, raw=raw,
                     warnings=warnings)


def _support_radius(spec: dict, ell: float) -> float:
    if spec["kind"] == "ball_plateau":
        return spec["radius"] + spec["ramp"]
    if spec["kind"] == "gaussian_bump":
        return spec["cutoff"]
    if spec["kind"] == "constant":
        return math.inf if spec["value"] > 0 else 0.0
    return math.inf  # wave envelope is semi-infinite


def build_initial_field(cfg: RunConfig, spec: dict | None = None,
                        wave_sampler=None) -> GridField:
    """Realize an initial-data preset on the configured grid."""
    spec = cfg.initial_spec if spec is None else spec
    kind = spec["kind"]
    if kind == "ball_plateau":
        height, radius, ramp = spec["height"], spec["radius"], spec["ramp"]
        if ramp <= 0:
            raise ConfigError("[domain] ramp must be positive for a Lipschitz plateau")
        fn = lambda r: height * np.clip((radius + ramp - r) / ramp, 0.0, 1.0)
        return grid_field(cfg.box_radius, cfg.stencil.grid_spacing,
                          cfg.kernel.dim, fn)
    if kind == "gaussian_bump":
        height, sigma, cutoff = spec["height"], spec["sigma"], spec["cutoff"]
        tail = math.exp(-cutoff ** 2 / (2 * sigma ** 2))
        fn = lambda r: height * np.clip(np.exp(-r ** 2 / (2 * sigma ** 2)) - tail,
                                        0.0, None)
        return grid_field(cfg.box_radius, cfg.stencil.grid_spacing,
                          cfg.kernel.dim, fn)
    if kind == "constant":
        fn = lambda r: np.full_like(r, spec["value"])
        return grid_field(cfg.box_radius, cfg.stencil.grid_spacing,
                          cfg.kernel.dim, fn)
    if kind == "wave_envelope":
        if wave_sampler is None:
            raise ConfigError("wave_envelope initial data needs a wave sampler")
        grid = grid_field(cfg.box_radius, cfg.stencil.grid_spacing, cfg.kernel.dim)
        return GridField(np.clip(np.asarray(wave_sampler(grid.coords()), dtype=float),
                                 0.0, 1.0), grid.spacing, grid.origin)
    raise ConfigError(f"unknown initial kind {kind!r}")
