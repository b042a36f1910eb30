"""Run configuration: INI-style files with strict key validation."""
import configparser
import math
from pathlib import Path

import numpy as np

from . import dynamics, growth as growth_mod, kernels, waves
from .dynamics import GridField, ModelParams, grid_field
from .growth import GrowthLaw
from .kernels import ConvolutionStencil, FrontKernelProfile, Kernel


class ConfigError(ValueError):
    """Configuration file is invalid; the message names the offending key."""


#: The keys of each kind of initial datum.
_INITIAL_KEYS = {"ball_plateau": ("height", "radius", "ramp"),
                 "gaussian_bump": ("height", "sigma", "cutoff"),
                 "wave_envelope": ("speed_factor", "offset"), "constant": ("value",)}
#: The keys a run reads, all of them required: per section, the keys every
#: run reads, then per selector ``(section, key)`` the keys that each of its
#: values adds.  A selector of the section itself lists every value it may take.
_READS = {
    "model": (("kind", "dt", "t_end"),
              {("model", "kind"): {**dict.fromkeys(dynamics.MODEL_KINDS, ()),
                                   "gamma": ("gamma",)}}),
    "kernel": (("kind", "ell", "dim", "dx"), {}),
    "growth": (("kind", "rate"),
               {("growth", "kind"): {"linear": (), "logistic": ("capacity",)},
                ("model", "kind"): {"generalized_singular": ("gain_value",)}}),
    "domain": (("box_radius", "initial"), {("domain", "initial"): _INITIAL_KEYS}),
    "domain_high": (("initial",), {("domain_high", "initial"): _INITIAL_KEYS}),
}
#: The optional keys each subcommand accepts besides ``[output] directory``:
#: the ``[output]`` and ``[study]`` keys it reads, and the ``[model]`` keys of
#: ``_READS`` that ``wave`` and ``converge`` do not read but accept, because
#: perfbench's configs set them.  A selector among those adds no key.
_COMMAND_KEYS = {
    "simulate": {"output": ("snapshot_interval",)},
    "speed": {"output": ("snapshot_interval",), "study": ("window_fraction", "tolerance")},
    "compare": {},
    "converge": {"model": ("kind", "dt"), "study": ("gamma_list", "threshold")},
    "wave": {"model": ("kind", "dt", "t_end"),
             "study": ("wave_tol", "ode_step", "sample_spacing", "s_max")},
}
#: The type of each key that holds no float; every float must be finite.
_TYPES = {"kind": "str", "initial": "str", "directory": "str", "dim": "int",
          "gamma_list": "float_list"}


class RunConfig:
    """Validated configuration with resolved model objects, None where unread."""

    def __init__(self, model: ModelParams | None, t_end: float | None, kernel: Kernel,
                 stencil: ConvolutionStencil, growth: GrowthLaw, box_radius: float,
                 initial_spec: dict, initial_high_spec: dict | None,
                 output_dir: str, snapshot_interval: float | None, study: dict,
                 raw: dict | None = None, warnings: list[str] | None = None):
        self.model = model
        self.t_end = t_end
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
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    _check_keys(raw, command)
    typed = {section: {key: _typed(section, key, value, _TYPES.get(key, "float"))
                       for key, value in items.items()}
             for section, items in raw.items()}
    return typed, raw


def _check_keys(raw: dict[str, dict[str, str]], command: str) -> None:
    """Hold the sections to ``_READS`` and ``_COMMAND_KEYS``: a section or key
    that the run would not read is an error, and so is every missing key of
    the chosen kinds."""
    accepted = {"output": {"directory"}, "study": set()}
    for section, keys in _COMMAND_KEYS[command].items():
        accepted.setdefault(section, set()).update(keys)
    sections = [name for name in _READS if name != "domain_high" or command == "compare"]
    for section in raw:
        if section not in sections and section not in accepted:
            raise ConfigError(f"unknown section [{section}]")
    missing, reads = [], {}
    for section in sections:
        always, selectors = _READS[section]
        reads[section] = set(always) - accepted.setdefault(section, set())
        if reads[section] and section not in raw:
            raise ConfigError(f"missing required section [{section}]")
        items = raw.get(section, {})
        missing += [f"[{section}] {key} is required" for key in always
                    if key in reads[section] and key not in items]
        for (where, key), kinds in selectors.items():
            value = raw[where].get(key) if key in reads[where] else None
            if where == section and value is not None and value not in kinds:
                raise ConfigError(f"[{section}] {key} = {value!r} is not one of"
                                  f" {tuple(kinds)}")
            reads[section].update(kinds.get(value, ()))
            label = key if where == section else f"[{where}] {key}"
            missing += [f"[{section}] {name} is required for {label} = {value}"
                        for name in kinds.get(value, ()) if name not in items]
        accepted[section] |= reads[section]
    unread = [_unread(section, key, command) for section, items in raw.items()
              for key in items if key not in accepted[section]]
    if unread or missing:
        raise ConfigError("; ".join(unread + missing))


def _unread(section: str, key: str, command: str) -> str:
    """Why the run rejects ``key``: the kinds or subcommands that read it."""
    for (where, selector), kinds in _READS.get(section, ((), {}))[1].items():
        values = [value for value, keys in kinds.items() if key in keys]
        if values:
            label = selector if where == section else f"[{where}] {selector}"
            idle = selector in _COMMAND_KEYS[command].get(where, ())
            return (f"[{section}] {key} is read only with {label} = {' or '.join(values)}"
                    + (f", which {command} does not read" if idle else ""))
    commands = [c for c, keys in _COMMAND_KEYS.items() if key in keys.get(section, ())]
    if commands:
        return f"[{section}] {key} is read only by {' or '.join(commands)}, not {command}"
    return f"unknown key {key!r} in section [{section}]"


def _initial_spec(section: str, items: dict) -> dict:
    spec = {"kind": items["initial"], **{key: value for key, value in items.items()
                                         if key not in ("initial", "box_radius")}}
    for key in ("sigma", "cutoff", "speed_factor", "ramp"):  # each where its kind reads it
        if spec.get(key, 1.0) <= 0:
            raise ConfigError(f"[{section}] {key} must be positive")
    for key in ("height", "value"):  # a density; NaN fails the test
        if not 0.0 <= spec.get(key, 0.0) <= 1.0:
            raise ConfigError(f"[{section}] {key} must lie in [0, 1]")
    return spec


def load_config(path: str | Path, command: str = "simulate") -> RunConfig:
    """Parse, validate and resolve a run configuration for one subcommand,
    with the checks that need no search or run made here: among them the
    step cap and the growth cap ``g(u) <= g(1)`` that shooting for ``c*`` needs."""
    sections, raw = _parse_sections(Path(path), command)

    model, idle = sections.get("model", {}), _COMMAND_KEYS[command].get("model", ())
    t_end = None if "t_end" in idle else model["t_end"]
    if t_end is not None and t_end < 0:
        raise ConfigError("[model] t_end must be nonnegative")

    kern = sections["kernel"]
    ell = kern["ell"]
    try:
        kernel, stencil = kernels.build_kernel(kern["kind"], ell, kern["dim"], kern["dx"])
    except kernels.KernelError as exc:
        raise ConfigError(f"[kernel] {exc}") from exc

    grow = sections["growth"]
    try:
        growth = (growth_mod.linear_growth(grow["rate"]) if grow["kind"] == "linear"
                  else growth_mod.logistic_growth(grow["rate"], grow["capacity"]))
        if "gain_value" in grow:
            growth = growth.with_gain(grow["gain_value"])
    except growth_mod.GrowthError as exc:
        raise ConfigError(f"[growth] {exc}") from exc

    params = None
    if "kind" not in idle:
        try:
            params = ModelParams(model=model["kind"], dt=model["dt"], t_end=t_end,
                                 gamma=model.get("gamma"))
            dynamics._check_step_cap(params, growth)
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from exc

    domain = sections["domain"]
    box_radius = domain["box_radius"]
    if int(round(box_radius / stencil.grid_spacing)) < 1:
        raise ConfigError(f"[domain] box_radius = {box_radius} holds no cell per"
                          f" side at dx = {stencil.grid_spacing}")
    initial_spec = _initial_spec("domain", domain)
    high_spec = (_initial_spec("domain_high", sections["domain_high"])
                 if command == "compare" else None)
    if command == "speed" and initial_spec["kind"] == "wave_envelope":
        raise ConfigError("[domain] speed cannot fit initial = wave_envelope: its saturated"
                          " half-line reaches the box edge, so the fitted radius never moves")
    # Shooting for c* needs g(u) <= g(1), and so does the ordering compare tests.
    reader = (command if command in ("wave", "speed", "compare")
              else "initial = wave_envelope" if initial_spec["kind"] == "wave_envelope"
              else None)
    if reader and not growth.monotone_cap:
        raise ConfigError(f"[growth] {reader} requires monotone_cap growth, g(u) <= g(1)")

    output = sections.get("output", {})
    snap = output.get("snapshot_interval")
    if snap is not None and snap < params.dt:
        raise ConfigError(f"[output] snapshot_interval = {snap} is below"
                          f" dt = {params.dt}")

    support_radius = _support_radius(initial_spec, ell)
    needed = support_radius + ell + ell * growth.sup * (t_end or 0.0)
    warnings = [] if t_end is None or box_radius >= needed else [
        f"box_radius {box_radius} may truncate the run: support can reach "
        f"{needed:.6g} by t_end (initial {support_radius:.6g} + ell + "
        "upper speed bound * t_end)"]

    return RunConfig(model=params, t_end=t_end, kernel=kernel, stencil=stencil,
                     growth=growth, box_radius=box_radius, initial_spec=initial_spec,
                     initial_high_spec=high_spec, output_dir=output.get("directory", "out"),
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


def build_initial_field(cfg: RunConfig, spec: dict | None = None,
                        front: tuple[FrontKernelProfile, float] | None = None,
                        ) -> GridField:
    """Realize an initial-data preset on the configured grid.

    ``wave_envelope`` places the wave of speed ``speed_factor * c*`` along the
    first axis, saturated behind ``offset`` and constant along the others.  It
    shoots on ``front``, the kernel's ``front_profile`` and ``c*`` on it, which
    the caller finds (``ValueError`` if it is missing), under the growth cap
    that ``load_config`` checks.
    """
    spec = cfg.initial_spec if spec is None else spec
    kind = spec["kind"]
    if kind == "wave_envelope":
        if front is None:
            raise ValueError("initial = wave_envelope needs front, the front profile and c*")
        profile, c_star = front
        wave = waves.shoot_profile(spec["speed_factor"] * c_star, cfg.growth, profile)
        grid = grid_field(cfg.box_radius, cfg.stencil.grid_spacing, cfg.kernel.dim)
        return GridField(waves.sample_wave(wave, grid.coords()[..., 0] - spec["offset"],
                                           minimal=spec["speed_factor"] <= 1.0),
                         grid.spacing, grid.origin)
    if kind == "ball_plateau":
        height, radius, ramp = spec["height"], spec["radius"], spec["ramp"]
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
