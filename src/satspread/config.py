"""Run configuration: INI-style files with strict key validation."""
import configparser
import math
from pathlib import Path

import numpy as np

from . import dynamics, growth as growth_mod, kernels, waves
from .dynamics import GridField, ModelParams, grid_field, stability_cap
from .growth import GrowthLaw
from .kernels import ConvolutionStencil, Kernel


class ConfigError(ValueError):
    """Configuration file is invalid; the message names the offending key."""


_INITIAL_KEYS = {"initial": "str", "height": "float", "radius": "float",
                 "ramp": "float", "sigma": "float", "cutoff": "float",
                 "value": "float", "speed_factor": "float", "offset": "float"}
#: Every key each section accepts and the type of its value.  Floats, and
#: each entry of a float list, must be finite.
_KEYS = {
    "model": {"kind": "str", "gamma": "float", "dt": "float", "t_end": "float"},
    "kernel": {"kind": "str", "ell": "float", "dim": "int", "dx": "float"},
    "growth": {"kind": "str", "rate": "float", "capacity": "float",
               "gain_kind": "str", "gain_value": "float"},
    "domain": {"box_radius": "float", **_INITIAL_KEYS},
    "output": {"directory": "str", "snapshot_interval": "float"},
}
#: The sections each subcommand reads beyond ``_KEYS``, with its own ``[study]`` keys.
_COMMAND_KEYS = {
    "simulate": {"study": {}},
    "compare": {"domain_high": _INITIAL_KEYS, "study": {}},
    "wave": {"study": {"wave_tol": "float", "ode_step": "float",
                       "sample_spacing": "float", "s_max": "float"}},
    "speed": {"study": {"window_fraction": "float", "tolerance": "float"}},
    "converge": {"study": {"gamma_list": "float_list", "threshold": "float"}},
}
_REQUIRED_SECTIONS = ("model", "kernel", "growth", "domain")
_INITIAL_KINDS = ("ball_plateau", "gaussian_bump", "wave_envelope", "constant")


class RunConfig:
    """Validated configuration with resolved model objects."""

    def __init__(self, model: ModelParams, kernel: Kernel,
                 stencil: ConvolutionStencil, growth: GrowthLaw, box_radius: float,
                 initial_spec: dict, initial_high_spec: dict | None,
                 output_dir: str, snapshot_interval: float | None, study: dict,
                 raw: dict | None = None, warnings: list[str] | None = None):
        self.model = model
        self.kernel = kernel
        self.stencil = stencil
        self.growth = growth
        self.box_radius = box_radius
        self.initial_spec = initial_spec
        self.initial_high_spec = initial_high_spec
        self.output_dir = output_dir
        self.snapshot_interval = snapshot_interval
        self.study = study
        self.raw = {} if raw is None else raw
        self.warnings = [] if warnings is None else warnings


def _typed(section: str, key: str, raw: str, kind: str):
    if kind == "str":
        return raw.strip()
    try:
        if kind == "int":
            return int(raw)
        values = ([float(tok) for tok in raw.split(",") if tok.strip()]
                  if kind == "float_list" else [float(raw)])
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return values if kind == "float_list" else values[0]


def _parse_sections(path: Path, command: str
                    ) -> tuple[dict[str, dict], dict[str, dict[str, str]]]:
    """Read the file; return its sections with typed values and as raw strings."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    keys = {**_KEYS, **_COMMAND_KEYS[command]}
    raw = {}
    for section in parser.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}]")
        raw[section] = dict(parser.items(section))
        for key in raw[section]:
            if key not in keys[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if section not in raw:
            raise ConfigError(f"missing required section [{section}]")
    if command == "compare" and "domain_high" not in raw:
        raise ConfigError("compare needs a [domain_high] section")
    typed = {section: {key: _typed(section, key, value, keys[section][key])
                       for key, value in items.items()}
             for section, items in raw.items()}
    return typed, raw


def _build_growth(items: dict) -> GrowthLaw:
    kind = items.get("kind", "")
    rate = items.get("rate", 1.0)
    if kind == "linear":
        law = growth_mod.linear_growth(rate)
    elif kind == "logistic":
        if "capacity" not in items:
            raise ConfigError("[growth] capacity is required for logistic kind")
        law = growth_mod.logistic_growth(rate, items["capacity"])
    else:
        raise ConfigError(f"[growth] kind = {kind!r} is not supported")
    gain_kind = items.get("gain_kind")
    if gain_kind is not None:
        if gain_kind != "constant":
            raise ConfigError("[growth] gain_kind must be 'constant'")
        if "gain_value" not in items:
            raise ConfigError("[growth] gain_value is required with gain_kind")
        law = law.with_gain(growth_mod.constant_gain(items["gain_value"]))
    return law


def _initial_spec(section: str, items: dict) -> dict:
    kind = items.get("initial", "")
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"[{section}] initial = {kind!r} is not one of {_INITIAL_KINDS}")
    spec = {"kind": kind, **{key: value for key, value in items.items()
                             if key not in ("initial", "box_radius")}}
    required = {"ball_plateau": ("height", "radius", "ramp"),
                "gaussian_bump": ("height", "sigma", "cutoff"),
                "wave_envelope": ("speed_factor", "offset"),
                "constant": ("value",)}[kind]
    for key in required:
        if key not in spec:
            raise ConfigError(f"[{section}] {key} is required for initial = {kind}")
    if kind == "gaussian_bump" and spec["sigma"] <= 0:
        raise ConfigError(f"[{section}] sigma must be positive")
    if kind == "wave_envelope" and spec["speed_factor"] <= 0:
        raise ConfigError(f"[{section}] speed_factor must be positive")
    return spec


def load_config(path: str | Path, command: str = "simulate") -> RunConfig:
    """Parse, validate and resolve a run configuration for one subcommand."""
    sections, raw = _parse_sections(Path(path), command)

    model = sections["model"]
    model_kind = model.get("kind", "")
    if model_kind not in dynamics.MODEL_KINDS:
        raise ConfigError(f"[model] kind = {model_kind!r} is not one of {dynamics.MODEL_KINDS}")
    try:
        params = ModelParams(model=model_kind, dt=model.get("dt", 0.05),
                             t_end=model.get("t_end", 1.0), gamma=model.get("gamma"))
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from exc

    kern = sections["kernel"]
    if "dx" not in kern:
        raise ConfigError("[kernel] dx is required")
    ell = kern.get("ell", 1.0)
    try:
        kernel, stencil = kernels.build_kernel(kern.get("kind", ""), ell,
                                               kern.get("dim", 1), kern["dx"])
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

    domain = sections["domain"]
    if "box_radius" not in domain:
        raise ConfigError("[domain] box_radius is required")
    box_radius = domain["box_radius"]
    if int(round(box_radius / stencil.grid_spacing)) < 1:
        raise ConfigError(f"[domain] box_radius = {box_radius} holds no cell per"
                          f" side at dx = {stencil.grid_spacing}")
    initial_spec = _initial_spec("domain", domain)
    high_spec = None
    if command == "compare":
        high_spec = _initial_spec("domain_high", sections["domain_high"])

    output = sections.get("output", {})
    snap = output.get("snapshot_interval")
    if snap is not None and snap < params.dt:
        raise ConfigError(f"[output] snapshot_interval = {snap} is below"
                          f" dt = {params.dt}")

    warnings = []
    support_radius = _support_radius(initial_spec, ell)
    needed = support_radius + ell + ell * growth.sup * params.t_end
    if box_radius < needed:
        warnings.append(
            f"box_radius {box_radius} may truncate the run: support can reach "
            f"{needed:.6g} by t_end (initial {support_radius:.6g} + ell + "
            "upper speed bound * t_end)")

    return RunConfig(model=params, kernel=kernel, stencil=stencil, growth=growth,
                     box_radius=box_radius, initial_spec=initial_spec,
                     initial_high_spec=high_spec,
                     output_dir=output.get("directory", "out"),
                     snapshot_interval=snap, study=sections.get("study", {}),
                     raw=raw, warnings=warnings)


def _support_radius(spec: dict, ell: float) -> float:
    if spec["kind"] == "ball_plateau":
        return spec["radius"] + spec["ramp"]
    if spec["kind"] == "gaussian_bump":
        return spec["cutoff"]
    if spec["kind"] == "constant":
        return math.inf if spec["value"] > 0 else 0.0
    return math.inf  # wave envelope is semi-infinite


def build_initial_field(cfg: RunConfig, spec: dict | None = None) -> GridField:
    """Realize an initial-data preset on the configured grid.

    ``wave_envelope`` places the wave of speed ``speed_factor * c*`` along the
    first axis, saturated behind ``offset``; it finds ``c*`` first.
    """
    spec = cfg.initial_spec if spec is None else spec
    kind = spec["kind"]
    if kind == "wave_envelope":
        if not cfg.growth.monotone_cap:
            raise ConfigError("[growth] wave_envelope initial data requires monotone_cap")
        profile = kernels.front_profile(cfg.kernel)
        c_star = waves.find_c_star(cfg.growth, profile).c_star
        wave = waves.shoot_profile(spec["speed_factor"] * c_star, cfg.growth, profile)
        direction = np.zeros(cfg.kernel.dim)
        direction[0] = 1.0
        sampler = waves.export_wave(wave, direction, spec["offset"],
                                    minimal=spec["speed_factor"] <= 1.0)
        grid = grid_field(cfg.box_radius, cfg.stencil.grid_spacing, cfg.kernel.dim)
        return GridField(sampler(grid.coords()), grid.spacing, grid.origin)
    if kind == "ball_plateau":
        height, radius, ramp = spec["height"], spec["radius"], spec["ramp"]
        if ramp <= 0:
            raise ConfigError("[domain] ramp must be positive for a Lipschitz plateau")
        fn = lambda r: height * np.clip((radius + ramp - r) / ramp, 0.0, 1.0)
    elif kind == "gaussian_bump":
        height, sigma, cutoff = spec["height"], spec["sigma"], spec["cutoff"]
        tail = math.exp(-cutoff ** 2 / (2 * sigma ** 2))
        fn = lambda r: height * np.clip(np.exp(-r ** 2 / (2 * sigma ** 2)) - tail,
                                        0.0, None)
    elif kind == "constant":
        fn = lambda r: np.full_like(r, spec["value"])
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")
    return grid_field(cfg.box_radius, cfg.stencil.grid_spacing, cfg.kernel.dim, fn)
