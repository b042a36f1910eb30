"""Config parsing, validation errors, CLI exit codes and artifact determinism."""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satspread as ss
from satspread import cli, config
from satspread.cli import main

from conftest import sagging_growth
from oracles import write_csv_one_template

#: A run of the singular model, with no ``[output]`` key: every subcommand
#: loads it (``compare`` with a ``[domain_high]`` section).
CORE = """
[model]
kind = singular
dt = 0.05
t_end = 1.0

[kernel]
kind = indicator_ball
ell = 1.0
dim = 1
dx = 0.05

[growth]
kind = linear
rate = 1.0

[domain]
box_radius = 4.0
initial = ball_plateau
height = 1.0
radius = 1.0
ramp = 0.5
"""
#: ``CORE`` with the snapshot interval that ``simulate`` and ``speed`` read.
BASE = CORE + """
[output]
snapshot_interval = 0.5
"""


#: The optional ``[output]`` and ``[study]`` keys each subcommand reads; it
#: rejects every other one.
COMMAND_KEYS = {
    "simulate": {"snapshot_interval"},
    "compare": set(),
    "wave": {"wave_tol", "ode_step", "sample_spacing", "s_max"},
    "speed": {"snapshot_interval", "window_fraction", "tolerance"},
    "converge": {"gamma_list", "threshold"},
}
DOMAIN_HIGH = "\n[domain_high]\ninitial = constant\nvalue = 1.0\n"
README = Path(__file__).resolve().parents[1] / "README.md"


#: The keys of each JSON report, the schema version and the config included.
REPORT_KEYS = {
    "minimal_speed": {"analytic_bounds", "bracket", "c_star", "interior_min",
                      "ode_step", "phi_ell_hi", "phi_ell_lo", "tol"},
    "speed_report": {"confinement_violations", "degenerate", "fit_window",
                     "fitted_speed", "passed", "reference_c_star", "residual",
                     "speed_ratio", "tolerance"},
    "converge_report": {"distances", "gammas", "horizon", "passed", "reference_dt",
                        "strictly_decreasing", "threshold"},
    "compare_report": {"max_violation", "n_steps", "passed", "tolerance"},
}


def read_report(out: Path, name: str) -> dict:
    """A JSON report, after checking that it holds exactly its pinned keys."""
    payload = json.loads((out / f"{name}.json").read_text())
    assert set(payload) == REPORT_KEYS[name] | {"schema_version", "config"}
    return payload


def readme_block() -> str:
    """The README's ``ini`` config reference, as written."""
    return README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]


def readme_rows() -> list[tuple]:
    """Each key line of the README's config reference, commented out or not,
    as ``(section, key, commented, condition)``: ``condition`` is the text
    before ``:`` of the last ``; with ...`` or ``; by ...`` note above it in
    its paragraph, and None if another note, or none, came last."""
    rows, section, condition = [], None, None
    for line in readme_block().splitlines():
        entry = line.removeprefix(";").strip()
        key, eq, _ = entry.partition(" = ")
        if line.startswith("["):
            section, condition = line.strip("[] "), None
        elif not entry:
            condition = None
        elif eq and key.isidentifier():
            rows.append((section, key, line.startswith(";"), condition))
        else:
            head = entry.partition(": ")[0]
            condition = head if head.startswith(("with ", "by ")) else None
    return rows


def table_notes() -> set[tuple]:
    """``(section, key, condition)`` for each key ``load_config`` accepts, with
    the condition a README note must give it: the kind that selects it, the
    subcommands that read it (and those that accept it unread), or None for a
    key every run reads.  ``[domain_high]``, which takes the keys of
    ``[domain]``, is described in prose."""
    optional = config._COMMAND_KEYS
    taking = lambda section, key: [c for c in optional if key in optional[c].get(section, ())]
    notes = {("output", "directory", None)}
    for section, (always, selectors) in config._READS.items():
        if section == "domain_high":
            continue
        for key in always:
            idle = taking(section, key)
            readers = " or ".join(c for c in optional if c not in idle)
            notes.add((section, key, idle and f"by {readers} ({' and '.join(idle)}"
                       f" accept{'s' * (len(idle) == 1)} it unread)" or None))
        for (where, selector), kinds in selectors.items():
            label = selector if where == section else f"[{where}] {selector}"
            notes |= {(section, key, f"with {label} = {value}")
                      for value, keys in kinds.items() for key in keys}
    notes |= {(section, key, "by " + " or ".join(taking(section, key)))
              for keys in optional.values() for section in ("output", "study")
              for key in keys.get(section, ())}
    return notes


def write_config(tmp_path: Path, text: str, name: str = "run.ini") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = ss.load_config(write_config(tmp_path, BASE))
        assert cfg.model.model == "singular"
        assert cfg.model.dt == 0.05
        assert cfg.t_end == cfg.model.t_end == 1.0
        assert cfg.kernel.radius == 1.0
        assert cfg.growth.kind == "linear"
        assert cfg.box_radius == 4.0
        assert cfg.initial_spec["kind"] == "ball_plateau"
        assert cfg.snapshot_interval == 0.5
        assert cfg.warnings == []

    def test_unknown_key_named(self, tmp_path):
        bad = BASE.replace("rate = 1.0", "rate = 1.0\nrtae = 2.0")
        with pytest.raises(ss.ConfigError, match="rtae"):
            ss.load_config(write_config(tmp_path, bad))

    def test_output_formats_key_rejected(self, tmp_path):
        bad = BASE.replace("snapshot_interval = 0.5",
                           "snapshot_interval = 0.5\nformats = csv")
        with pytest.raises(ss.ConfigError, match="unknown key 'formats'"):
            ss.load_config(write_config(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ss.ConfigError, match="extras"):
            ss.load_config(write_config(tmp_path, BASE + "\n[extras]\nfoo = 1\n"))

    def test_missing_section_rejected(self, tmp_path):
        bad = BASE.replace("[growth]\nkind = linear\nrate = 1.0\n", "")
        with pytest.raises(ss.ConfigError, match="growth"):
            ss.load_config(write_config(tmp_path, bad))

    def test_bad_float_names_key(self, tmp_path):
        bad = BASE.replace("dt = 0.05", "dt = fast")
        with pytest.raises(ss.ConfigError, match="dt"):
            ss.load_config(write_config(tmp_path, bad))

    def test_duplicate_key_rejected(self, tmp_path):
        bad = BASE.replace("dt = 0.05", "dt = 0.05\ndt = 0.01")
        with pytest.raises(ss.ConfigError, match="parse"):
            ss.load_config(write_config(tmp_path, bad))

    def test_dt_above_stability_cap_names_dt(self, tmp_path):
        bad = BASE.replace("kind = singular", "kind = gamma\ngamma = 64")
        with pytest.raises(ss.ConfigError, match="dt"):
            ss.load_config(write_config(tmp_path, bad))

    def test_load_config_and_run_reject_dt_with_one_message(self, tmp_path):
        """The step cap is one check: the loader puts its section before the
        message ``run`` raises for the same step."""
        bad = BASE.replace("kind = singular", "kind = gamma\ngamma = 64")
        with pytest.raises(ss.ConfigError) as loaded:
            ss.load_config(write_config(tmp_path, bad))
        _, stencil = ss.build_kernel("indicator_ball", 1.0, 1, 0.05)
        with pytest.raises(ValueError) as ran:
            ss.run(ss.grid_field(4.0, 0.05, 1), ss.ModelParams("gamma", 0.05, 1.0, 64.0),
                   stencil, ss.linear_growth(1.0))
        assert str(ran.value) == "dt = 0.05 exceeds the stability cap 0.0015625"
        assert str(loaded.value) == f"[model] {ran.value}"

    def test_truncation_warning_for_small_box(self, tmp_path):
        bad = BASE.replace("t_end = 1.0", "t_end = 10.0")
        cfg = ss.load_config(write_config(tmp_path, bad))
        assert any("truncate" in w for w in cfg.warnings)

    def test_domain_high_only_for_compare(self, tmp_path):
        extra = CORE + "\n[domain_high]\ninitial = constant\nvalue = 0.8\n"
        with pytest.raises(ss.ConfigError, match="domain_high"):
            ss.load_config(write_config(tmp_path, extra), "simulate")
        cfg = ss.load_config(write_config(tmp_path, extra), "compare")
        assert cfg.initial_high_spec == {"kind": "constant", "value": 0.8}
        with pytest.raises(ss.ConfigError, match="missing required section .domain_high"):
            ss.load_config(write_config(tmp_path, CORE), "compare")

    def test_initial_presets_resolve(self, tmp_path):
        gauss = BASE.replace(
            "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
            "initial = gaussian_bump\nheight = 0.8\nsigma = 0.5\ncutoff = 2.0")
        cfg = ss.load_config(write_config(tmp_path, gauss))
        u0 = ss.build_initial_field(cfg)
        assert u0.values.max() <= 0.8
        assert u0.values[0] == 0.0  # compactly supported

    def test_wave_envelope_preset_matches_the_first_snapshot(self, tmp_path):
        text = BASE.replace(
            "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
            "initial = wave_envelope\nspeed_factor = 1.5\noffset = -1.0").replace(
            "t_end = 1.0", "t_end = 0.1")
        cfg_path = write_config(tmp_path, text)
        cfg = ss.load_config(cfg_path)
        profile = ss.front_profile(cfg.kernel)
        u0 = ss.build_initial_field(
            cfg, front=(profile, ss.find_c_star(cfg.growth, profile).c_star))
        out = tmp_path / "env"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "snapshot_0000.csv")
        assert np.array_equal(u0.values, cols["u"])
        uncapped = text.replace("kind = linear\nrate = 1.0",
                                "kind = logistic\nrate = 1.0\ncapacity = 1.2")
        with pytest.raises(ss.ConfigError, match="initial = wave_envelope requires"
                                                 " monotone_cap growth"):
            ss.load_config(write_config(tmp_path, uncapped, "uncapped.ini"))

    def test_wave_envelope_datum_in_two_dimensions(self, tmp_path):
        """The 2-d datum lies along the first axis: constant along axis 1,
        each column the wave sampled at ``x - offset``, bit for bit.  The
        caller finds c*: without ``front`` the datum is refused."""
        offset = -0.5
        text = CORE.replace("dim = 1", "dim = 2").replace("dx = 0.05", "dx = 0.125").replace(
            "box_radius = 4.0", "box_radius = 2.0").replace(
            "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
            f"initial = wave_envelope\nspeed_factor = 1.0\noffset = {offset}")
        cfg = ss.load_config(write_config(tmp_path, text))
        profile = ss.front_profile(cfg.kernel)
        c_star = ss.find_c_star(cfg.growth, profile).c_star
        u0 = ss.build_initial_field(cfg, front=(profile, c_star))
        wave = ss.shoot_profile(c_star, cfg.growth, profile)
        column = ss.sample_wave(wave, u0.axis_coords(0) - offset, minimal=True)
        assert np.any((column > 0.0) & (column < 1.0))
        assert np.all(u0.values == u0.values[:, :1])
        assert u0.values[:, 0].tobytes() == column.tobytes()
        with pytest.raises(ValueError, match="front"):
            ss.build_initial_field(cfg)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section,key,line", [
        ("model", "t_end", "t_end = 1.0"),
        ("growth", "rate", "rate = 1.0"),
        ("domain", "box_radius", "box_radius = 4.0"),
        ("output", "snapshot_interval", "snapshot_interval = 0.5"),
        ("study", "wave_tol", None),
        ("study", "gamma_list", None),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, value, section,
                                       key, line):
        text = (BASE.replace(line, f"{key} = {value}") if line
                else CORE + f"\n[study]\n{key} = {value}\n")
        command = {"wave_tol": "wave", "gamma_list": "converge"}.get(key, "simulate")
        cfg_path = write_config(tmp_path, text)
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config error: [{section}] {key} = '{value}' is not finite" in err

    @pytest.mark.parametrize("key", sorted(set().union(*COMMAND_KEYS.values())))
    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_command_key_accepted_only_by_the_subcommand_that_reads_it(
            self, tmp_path, capsys, command, key):
        """A subcommand that would ignore an ``[output]`` or ``[study]`` key
        rejects it, naming the subcommands that read it: for one, ``speed``
        shoots its reference c* with the library's defaults whatever the wave
        keys say, and ``converge`` keeps no snapshot."""
        section = "output" if key == "snapshot_interval" else "study"
        value = {"gamma_list": "4, 16", "snapshot_interval": "0.5"}.get(key, "0.01")
        text = (CORE + (DOMAIN_HIGH if command == "compare" else "")
                + f"\n[{section}]\n{key} = {value}\n")
        path = write_config(tmp_path, text)
        if key in COMMAND_KEYS[command]:
            assert key in ss.load_config(path, command).raw[section]
        else:
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            readers = " or ".join(c for c, keys in COMMAND_KEYS.items() if key in keys)
            assert (f"config error: [{section}] {key} is read only by {readers},"
                    f" not {command}\n") in capsys.readouterr().err

    def test_readme_config_block_loads_as_written(self, tmp_path):
        """The README's ``ini`` block loads as written for the subcommands that
        read its ``[output]`` keys, and ``simulate`` reads each key it sets."""
        path = write_config(tmp_path, readme_block())
        assert ss.load_config(path, "speed").snapshot_interval == 1.0
        raw = ss.load_config(path, "simulate").raw
        assert {(section, key) for section, items in raw.items() for key in items} == {
            (section, key) for section, key, commented, _ in readme_rows() if not commented}

    def test_readme_notes_match_the_table_of_keys(self):
        """The README lists every key the parser accepts, and no other, each
        under a note that names the kinds or subcommands that read it."""
        assert {(section, key, condition)
                for section, key, _, condition in readme_rows()} == table_notes()

    def test_wave_and_converge_accept_model_keys_they_do_not_read(self, tmp_path):
        """``wave`` reads no ``[model]`` key and ``converge`` only ``t_end``:
        they accept the others without requiring them, and their ``[model]
        kind`` selects no key, so the generalized model needs no gain there."""
        no_model = CORE.replace("[model]\nkind = singular\ndt = 0.05\nt_end = 1.0\n", "")
        cfg = ss.load_config(write_config(tmp_path, no_model), "wave")
        assert (cfg.model, cfg.t_end, cfg.warnings) == (None, None, [])
        t_end_only = CORE.replace("kind = singular\ndt = 0.05\n", "")
        cfg = ss.load_config(write_config(tmp_path, t_end_only), "converge")
        assert (cfg.model, cfg.t_end) == (None, 1.0)
        with pytest.raises(ss.ConfigError) as exc:
            ss.load_config(write_config(tmp_path, t_end_only), "simulate")
        assert str(exc.value) == "[model] kind is required; [model] dt is required"
        generalized = CORE.replace("kind = singular", "kind = generalized_singular")
        for command in ("wave", "converge"):
            cfg = ss.load_config(write_config(tmp_path, generalized), command)
            assert cfg.raw["model"]["kind"] == "generalized_singular"
            assert cfg.growth.gain is None

    def test_generalized_model_needs_gain(self, tmp_path):
        bad = BASE.replace("kind = singular", "kind = generalized_singular")
        with pytest.raises(ss.ConfigError, match="gain"):
            ss.load_config(write_config(tmp_path, bad))
        good = bad.replace("rate = 1.0", "rate = 1.0\ngain_value = 0.5")
        cfg = ss.load_config(write_config(tmp_path, good))
        assert cfg.growth.gain == 0.5


#: One config edit per guard of ``load_config``, ``build_initial_field`` and
#: the subcommands' growth checks: (edits, subcommand, message fragment).
GUARDS = {
    "logistic-without-capacity": ({"kind = linear": "kind = logistic"}, "simulate",
                                  "[growth] capacity is required for kind = logistic"),
    "growth-kind": ({"kind = linear": "kind = cubic"}, "simulate",
                    "[growth] kind = 'cubic' is not one of ('linear', 'logistic')"),
    "gain-without-value": ({"kind = singular": "kind = generalized_singular"}, "simulate",
                           "[growth] gain_value is required for [model] kind ="
                           " generalized_singular"),
    # keys that the chosen kind or subcommand would ignore
    "gamma-unread": ({"kind = singular": "kind = singular\ngamma = 128"}, "simulate",
                     "[model] gamma is read only with kind = gamma\n"),
    "gamma-missing": ({"kind = singular": "kind = gamma"}, "simulate",
                      "[model] gamma is required for kind = gamma"),
    "gamma-idle": ({"kind = singular": "kind = gamma\ngamma = 8"}, "converge",
                   "[model] gamma is read only with kind = gamma, which converge does"
                   " not read"),
    "capacity-unread": ({"rate = 1.0": "rate = 1.0\ncapacity = 3.0"}, "converge",
                        "[growth] capacity is read only with kind = logistic; [output]"
                        " snapshot_interval is read only by simulate or speed, not"
                        " converge\n"),
    "gain-unread": ({"rate = 1.0": "rate = 1.0\ngain_value = 0.5"}, "simulate",
                    "[growth] gain_value is read only with [model] kind ="
                    " generalized_singular\n"),
    "initial-keys-unread": ({"ramp = 0.5": "ramp = 0.5\nsigma = 0.5\nvalue = 1.0"},
                            "simulate", "[domain] sigma is read only with initial ="
                            " gaussian_bump; [domain] value is read only with initial ="
                            " constant\n"),
    "snapshot-unread": ({}, "converge", "[output] snapshot_interval is read only by"
                        " simulate or speed, not converge"),
    "growth-rate": ({"rate = 1.0": "rate = -1.0"}, "simulate",
                    "[growth] linear rate must be positive"),
    "initial-kind": ({"initial = ball_plateau": "initial = square"}, "simulate",
                     "[domain] initial = 'square' is not one of"),
    "initial-key-missing": ({"\nramp = 0.5": ""}, "simulate",
                            "[domain] ramp is required for initial = ball_plateau"),
    "initial-keys-missing": ({"\nradius = 1.0\nramp = 0.5": "\nsigma = 0.5"}, "simulate",
                             "[domain] sigma is read only with initial = gaussian_bump;"
                             " [domain] radius is required for initial = ball_plateau;"
                             " [domain] ramp is required for initial = ball_plateau\n"),
    "ramp-zero": ({"ramp = 0.5": "ramp = 0"}, "simulate",
                  "[domain] ramp must be positive"),
    "box-missing": ({"box_radius = 4.0\n": ""}, "simulate",
                    "[domain] box_radius is required"),
    "model-kind": ({"kind = singular": "kind = porous"}, "simulate",
                   "[model] kind = 'porous' is not one of"),
    "t-end-negative": ({"t_end = 1.0": "t_end = -1.0"}, "simulate",
                       "[model] t_end must be nonnegative"),
    "dx-missing": ({"dx = 0.05\n": ""}, "simulate", "[kernel] dx is required"),
    "kernel-kind": ({"kind = indicator_ball": "kind = square"}, "simulate",
                    "[kernel] unknown kernel kind 'square'"),
    "speed-uncapped": ({"kind = linear\nrate = 1.0":
                        "kind = logistic\nrate = 1.0\ncapacity = 1.2"}, "speed",
                       "[growth] speed requires monotone_cap growth, g(u) <= g(1)"),
    "cutoff-negative": ({"initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5":
                         "initial = gaussian_bump\nheight = 1.0\nsigma = 0.5\ncutoff = -2"},
                        "simulate", "[domain] cutoff must be positive"),
    "height-above-one": ({"height = 1.0": "height = 7.5"}, "simulate",
                         "[domain] height must lie in [0, 1]"),
    "value-negative": ({"initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5":
                        "initial = constant\nvalue = -0.25"},
                       "simulate", "[domain] value must lie in [0, 1]"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_config_guard_exits_2(tmp_path, capsys, case):
    edits, command, message = GUARDS[case]
    text = BASE
    for old, new in edits.items():
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    assert main([command, "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "converge", "wave", "compare"])
def test_every_ignored_setting_is_named(tmp_path, capsys, command):
    """Settings of other kinds, which a run of the singular model with linear
    growth from a plateau would ignore, fail every subcommand, each named with
    the kind or subcommands that read it; ``snapshot_interval`` fails those
    that keep no snapshot."""
    text = BASE.replace("kind = singular", "kind = singular\ngamma = 128").replace(
        "rate = 1.0", "rate = 1.0\ncapacity = 3.0\ngain_value = 0.5"
    ).replace("ramp = 0.5", "ramp = 0.5\nsigma = 0.5\nvalue = 1.0")
    path = write_config(tmp_path, text + (DOMAIN_HIGH if command == "compare" else ""))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for named in ("gamma is read only with kind = gamma",
                  "capacity is read only with kind = logistic",
                  "gain_value is read only with [model] kind = generalized_singular",
                  "sigma is read only with initial = gaussian_bump",
                  "value is read only with initial = constant"):
        assert named in err
    assert ("snapshot_interval is read only by simulate or speed" in err) == (
        command != "simulate")


class TestSimulateCommand:
    def test_constant_one_is_stationary(self, tmp_path):
        text = BASE.replace(
            "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
            "initial = constant\nvalue = 1.0")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        first = read_csv_columns(out / "snapshot_0000.csv")
        last = sorted(out.glob("snapshot_*.csv"))[-1]
        final = read_csv_columns(last)
        assert np.array_equal(first["u"], final["u"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["monitors"]["time_monotonicity_gap"] == 0.0
        assert "config" in summary

    def test_falling_density_exits_4(self, tmp_path, monkeypatch, capsys):
        # no config kind has g < 0, so the law is swapped in after loading
        load = cli.load_config

        def sagging(path, command):
            cfg = load(path, command)
            cfg.growth = sagging_growth()
            return cfg

        monkeypatch.setattr(cli, "load_config", sagging)
        cfg_path = write_config(tmp_path, BASE.replace("height = 1.0", "height = 0.8"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert ("scientific failure: monotonicity violated during the run"
                in capsys.readouterr().err)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["monitors"]["time_monotonicity_gap"] > 0.0

    def test_dt_above_cap_exits_2(self, tmp_path, capsys):
        bad = BASE.replace("kind = singular", "kind = gamma\ngamma = 64")
        cfg_path = write_config(tmp_path, bad)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("edits,message", [
        # 0.4 cells per side: the grid would have none
        ({"box_radius = 4.0": "box_radius = 0.02"}, "[domain] box_radius"),
        ({"box_radius = 4.0": "box_radius = -1"}, "[domain] box_radius"),
        ({"initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5":
          "initial = gaussian_bump\nheight = 1.0\nsigma = 0\ncutoff = 1.0"},
         "[domain] sigma"),
        # far below dt = 0.05, it would be absorbed in the next snapshot time;
        # t_end = 0 so that a run that took it ends at once instead of hanging
        ({"snapshot_interval = 0.5": "snapshot_interval = 1e-15",
          "t_end = 1.0": "t_end = 0.0"}, "[output] snapshot_interval"),
        ({"snapshot_interval = 0.5": "snapshot_interval = 0.01"},
         "[output] snapshot_interval"),
        ({"initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5":
          "initial = wave_envelope\nspeed_factor = 0\noffset = -1.0"},
         "[domain] speed_factor"),
        ({"initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5":
          "initial = wave_envelope\nspeed_factor = -1\noffset = -1.0"},
         "[domain] speed_factor"),
    ], ids=["box-below-one-cell", "box-negative", "sigma-zero", "snapshot-absorbed",
            "snapshot-below-dt", "wave-speed-zero", "wave-speed-negative"])
    def test_bad_domain_or_output_value_exits_2(self, tmp_path, capsys, edits,
                                                message):
        text = BASE
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg_path = write_config(tmp_path, text)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_artifacts_are_byte_identical_across_runs(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_two_dimensional_snapshots_have_sidecars(self, tmp_path):
        text = BASE.replace("dim = 1", "dim = 2").replace(
            "box_radius = 4.0", "box_radius = 2.0").replace(
            "dx = 0.05", "dx = 0.125").replace("t_end = 1.0", "t_end = 0.2")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "out2d"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        sidecar = json.loads((out / "snapshot_0000.csv.json").read_text())
        assert sidecar["shape"] == [33, 33]
        assert sidecar["order"] == "row-major"


#: Bit patterns the float columns draw often: +-0.0, +-inf, subnormals,
#: 3-digit exponents, and NaN payloads of either sign, quiet and signalling.
SPECIAL_BITS = (*np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                           2.225073858507201e-308, 1e-100, -1e300,
                           1.7976931348623157e308]).view(np.uint64).tolist(),
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                0x7FF0000000000001, 0xFFF4000000000000)


#: Pairs of doubles that compare equal (or are both NaN) but differ in bits.
TWIN_BITS = ((0x0000000000000000, 0x8000000000000000),
             (0x7FF8000000000000, 0x7FF8000000000001),
             (0x7FF8000000000000, 0xFFF8000000000000))


@st.composite
def csv_columns(draw):
    """1 to 3 columns of 0 to 40 rows, each column drawn from a pool of 1 to 8
    values, so values repeat heavily: float64 bit patterns, a pair of twin
    doubles, equal but for their bits, int64 values (above 2**53 too) or
    bools.  The rows may then be repeated in runs, one of which can span the
    whole table, and drawn cells of a twin column swapped for the other twin,
    which breaks a run in that column only."""
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 40)))
    pools, picks, kinds = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["float", "twins", "int", "bool"]))
        if kind == "float":
            bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2 ** 64 - 1))
            pool = np.array(draw(st.lists(bits, min_size=1, max_size=8)),
                            dtype=np.uint64).view(np.float64)
        elif kind == "twins":
            pool = np.array(draw(st.sampled_from(TWIN_BITS)),
                            dtype=np.uint64).view(np.float64)
        elif kind == "int":
            ints = st.one_of(st.integers(2 ** 53, 2 ** 63 - 1),
                             st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(-9, 9))
            pool = np.array(draw(st.lists(ints, min_size=1, max_size=8)),
                            dtype=np.int64)
        else:
            pool = np.array([False, True])
        kinds.append(kind)
        pools.append(pool)
        picks.append(np.array(draw(st.lists(st.integers(0, len(pool) - 1),
                                            min_size=n, max_size=n)), dtype=int))
    if n and draw(st.booleans()):
        rows = np.repeat(np.arange(n), draw(st.lists(st.integers(1, 30),
                                                     min_size=n, max_size=n)))
        picks = [pick[rows] for pick in picks]
        for kind, pick in zip(kinds, picks):
            if kind == "twins":
                pick[draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))] ^= 1
    return [pool[pick] for pool, pick in zip(pools, picks)]


class TestArtifactFormat:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(csv_columns(), st.sampled_from([None, {"k": 1}]))
    def test_csv_bytes_equal_one_template(self, columns, config):
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
            ss.output.write_csv(ours, header, columns, config=config)
            write_csv_one_template(oracle, header, columns, config=config)
            assert ours.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("kind", [np.float64, np.float32, float])
    def test_json_writes_non_finite_values_as_strings(self, tmp_path, kind):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        path = tmp_path / "t.json"
        values = [kind("inf"), kind("-inf"), kind("nan"), kind(0.5)]
        ss.output.write_json(path, {"v": values, "x": values[2]})
        body = json.loads(path.read_text(), parse_constant=reject)
        assert body["v"] == ["inf", "-inf", "nan", 0.5]
        assert body["x"] == "nan"

    def test_csv_bytes_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        ss.output.write_csv(path, ["n", "flag", "x"],
                            [np.array([1, -2, 12345678901234567, 0]),
                             np.array([True, False, True, False]),
                             np.array([np.inf, np.nan, -np.inf, 0.1])],
                            config={"k": 1})
        assert path.read_bytes() == (
            b"# schema_version=1\n"
            b'# config={"k":1}\n'
            b"n,flag,x\n"
            b"1.0000000000000000e+00,1.0000000000000000e+00,inf\n"
            b"-2.0000000000000000e+00,0.0000000000000000e+00,nan\n"
            b"1.2345678901234568e+16,1.0000000000000000e+00,-inf\n"
            b"0.0000000000000000e+00,0.0000000000000000e+00,1.0000000000000001e-01\n")

    def test_cli_import_leaves_out_quadrature(self):
        # no stepping or start-up path integrates, so no scipy module gets
        # loaded, nor the quadrature rule's numpy.polynomial (which numpy 2
        # loads on first use only)
        src = str(Path(ss.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; "
                "bare = 'numpy.polynomial' in sys.modules; import satspread.cli; "
                "print('scipy.integrate' in sys.modules); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "print('numpy.polynomial' in sys.modules and not bare)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert done.stdout.split("\n")[:3] == ["False", "[]", "False"]

    def test_cli_import_leaves_out_the_thread_pool(self):
        # every run is serial: --threads is accepted and ignored
        src = str(Path(ss.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import satspread.cli; "
                "print('concurrent.futures' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_import_surface(self):
        # the CLI import builds no dataclass, and it binds the three solve
        # entry points that perfbench's launcher hooks by name
        src = str(Path(ss.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import numpy; "
                "bare = 'dataclasses' in sys.modules; import satspread.cli as cli; "
                "print('dataclasses' in sys.modules and not bare); "
                "print([n for n in ('run', 'front_profile', 'gamma_convergence_study')"
                " if n not in vars(cli)])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert done.stdout.split("\n")[:2] == ["False", "[]"]

    def test_indicator_subcommands_run_without_scipy(self, tmp_path):
        # scipy is a test oracle only: every subcommand in 1-d and 2-d, and
        # custom kernels with their front profiles and the cap-inequality
        # harness, run while a None entry in sys.modules makes any scipy
        # import raise
        speed = BASE.replace("box_radius = 4.0", "box_radius = 14.0").replace(
            "t_end = 1.0", "t_end = 12.0") + "\n[study]\ntolerance = 0.08\n"
        converge = CORE.replace("t_end = 1.0", "t_end = 2.0").replace(
            "dx = 0.05", "dx = 0.125") + "\n[study]\ngamma_list = 4,16\nthreshold = 0.2\n"
        compare = CORE + ("\n[domain_high]\ninitial = ball_plateau\nheight = 1.0\n"
                          "radius = 1.0\nramp = 0.5\n")
        configs = [(command, 1, text) for command, text in (
            ("simulate", BASE), ("speed", speed), ("converge", converge),
            ("compare", compare), ("wave", CORE))]
        configs += [(command, 2, text.replace("dim = 1", "dim = 2").replace(
            "dx = 0.05", "dx = 0.25").replace("dx = 0.125", "dx = 0.25"))
            for command, _, text in configs]
        runs = [[command, "--config",
                 str(write_config(tmp_path, text, f"{command}{dim}.ini")),
                 "--out", str(tmp_path / f"{command}{dim}")]
                for command, dim, text in configs]
        src = str(Path(ss.__file__).resolve().parents[1])
        code = f"""
import sys
sys.path[:0] = [{src!r}, {str(Path(__file__).parent)!r}]
sys.modules["scipy"] = None
import numpy as np
import satspread as ss
from satspread.cli import main
from harnesses import check_cap_inequality

print([main(argv) for argv in {runs!r}])
cone = lambda rho: np.clip(1.0 - rho, 0.0, None)
for dim in (1, 2):
    kernel, _ = ss.build_kernel("custom_radial", 1.0, dim, 0.05, profile=cone)
    print(round(float(ss.front_profile(kernel)(0.0)), 12))
    try:
        print(check_cap_inequality(kernel, 0.5, [100.0]).least_nonviolating_radius)
    except ss.KernelError as exc:
        print(exc)
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines() == [
            "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0]", "0.5",
            "cap inequality check is for dim 2 kernels", "0.5", "100.0"], done.stderr


class TestWaveCommand:
    def test_minimal_speed_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path, CORE)
        out = tmp_path / "wave"
        assert main(["wave", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = read_report(out, "minimal_speed")
        assert 0.25 <= payload["c_star"] <= 1.0
        assert payload["analytic_bounds"] == [0.25, 1.0]
        cols = read_csv_columns(out / "profile_cstar.csv")
        positive = cols["s"][cols["phi"] > 0.0]
        assert positive.max() <= 1.0 + 1e-9
        assert (out / "profile_1p5cstar.csv").exists()
        assert (out / "profile_2cstar.csv").exists()

    @pytest.mark.parametrize("line,message", [
        ("sample_spacing = 0", "sample_spacing"),
        ("sample_spacing = -0.01", "sample_spacing"),
        ("ode_step = 0", "ode_step"),
        ("ode_step = -0.001", "ode_step"),
        ("wave_tol = -1", "tolerance"),
        ("s_max = -1", "s_max"),
    ])
    def test_bad_study_value_exits_2(self, tmp_path, capsys, line, message):
        cfg_path = write_config(tmp_path, CORE + f"\n[study]\n{line}\n")
        assert main(["wave", "--config", str(cfg_path),
                     "--out", str(tmp_path / "w")]) == 2
        err = capsys.readouterr().err
        assert "config error: [study]" in err and message in err

    @pytest.mark.parametrize("command,reader", [
        ("wave", "wave"), ("speed", "speed"), ("compare", "compare"),
        ("simulate", "initial = wave_envelope")])
    def test_uncapped_growth_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                     reader):
        """The growth cap is checked when the config loads: no ``c*`` search
        or run starts, and no output directory is made."""
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran before its growth cap was checked")

        for module, name in ((cli, "find_c_star"), (cli, "run"), (ss.waves, "find_c_star"),
                             (cli, "comparison_harness")):
            monkeypatch.setattr(module, name, no_work)
        text = {"wave": CORE, "speed": BASE, "compare": CORE + DOMAIN_HIGH,
                "simulate": BASE.replace(
                    "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
                    "initial = wave_envelope\nspeed_factor = 1.5\noffset = -1.0")}[command]
        cfg_path = write_config(tmp_path, text.replace(
            "kind = linear\nrate = 1.0", "kind = logistic\nrate = 1.0\ncapacity = 1.2"))
        out = tmp_path / "w"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert (f"config error: [growth] {reader} requires monotone_cap growth, g(u) <= g(1)"
                in capsys.readouterr().err)
        assert not out.exists()


#: ``wave_envelope`` data behind two offsets, as the low and high datum.
ENVELOPES = tuple(f"initial = wave_envelope\nspeed_factor = 1.0\noffset = {offset}"
                  for offset in (-1.0, -0.5))
#: ``speed`` from the low envelope and ``compare`` of the two.
ENVELOPE_RUNS = {
    "speed": BASE.replace("initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
                          ENVELOPES[0]),
    "compare": CORE.replace("initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
                            ENVELOPES[0]) + f"\n[domain_high]\n{ENVELOPES[1]}\n",
}


class TestStudyCommands:
    @pytest.mark.parametrize("command", sorted(ENVELOPE_RUNS))
    def test_wave_envelope_run_searches_c_star_once(self, tmp_path, monkeypatch, capsys,
                                                    command):
        """``compare`` hands its one front profile and c* to each
        ``wave_envelope`` datum: one ``front_profile`` and one ``find_c_star``
        call in the run, through any binding.  ``speed`` rejects the datum
        when the config loads (exit 2, no search): its saturated half-line
        reaches the box edge, so the radius it fits would never move."""
        calls = []
        for module, name in ((cli, "front_profile"), (cli, "find_c_star"),
                             (ss.kernels, "front_profile"), (ss.waves, "find_c_star")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg_path = write_config(tmp_path, ENVELOPE_RUNS[command])
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "e")])
        assert code == {"speed": 2, "compare": 0}[command]
        assert sorted(calls) == {"speed": [],
                                 "compare": ["find_c_star", "front_profile"]}[command]
        assert ("speed cannot fit initial = wave_envelope" in capsys.readouterr().err) == (
            command == "speed")

    def test_compare_equal_data_passes(self, tmp_path):
        text = CORE + "\n[domain_high]\ninitial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = read_report(out, "compare_report")
        assert payload["max_violation"] == 0.0

    def test_compare_unordered_data_exits_2(self, tmp_path, capsys):
        text = CORE + "\n[domain_high]\ninitial = constant\nvalue = 0.2\n"
        cfg_path = write_config(tmp_path, text)
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "c2")]) == 2
        assert "u_low <= u_high pointwise" in capsys.readouterr().err

    def test_compare_of_the_finite_pressure_model_exits_4_naming_the_violation(
            self, tmp_path, capsys):
        """A block at 0.5 below the same block on a ramp: in the finite-pressure
        model the ramp's lower cells hold the upper block back, so the pair
        crosses (see ``test_finite_pressure_model_does_not_keep_the_order``)."""
        text = CORE.replace("kind = singular", "kind = gamma\ngamma = 1.0").replace(
            "t_end = 1.0", "t_end = 0.5").replace(
            "height = 1.0\nradius = 1.0\nramp = 0.5", "height = 0.5\nradius = 0.5\nramp = 0.05")
        text += "\n[domain_high]\ninitial = ball_plateau\nheight = 0.5\nradius = 0.5\nramp = 1.5\n"
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 4
        payload = read_report(out, "compare_report")
        assert payload["passed"] is False and payload["max_violation"] > 1e-12
        assert (f"scientific failure: ordering violation {payload['max_violation']:.3g}"
                " > 1e-12\n") in capsys.readouterr().err

    def test_converge_above_its_threshold_exits_4_naming_it(self, tmp_path, capsys):
        text = CORE.replace("t_end = 1.0", "t_end = 2.0").replace(
            "dx = 0.05", "dx = 0.125")
        text += "\n[study]\ngamma_list = 4,16\nthreshold = 1e-9\n"
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 4
        payload = read_report(out, "converge_report")
        assert payload["strictly_decreasing"] is True and payload["passed"] is False
        err = capsys.readouterr().err
        assert (f"scientific failure: gamma distance {payload['distances'][-1]:.3g}"
                " at gamma 16 not below 1e-09\n") in err
        assert "strictly decreasing" not in err

    def test_converge_study_passes(self, tmp_path):
        text = CORE.replace("t_end = 1.0", "t_end = 2.0").replace(
            "dx = 0.05", "dx = 0.125")
        text += "\n[study]\ngamma_list = 4,16\nthreshold = 0.2\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "conv"
        assert main(["converge", "--config", str(cfg_path), "--out", str(out),
                     "--threads", "2"]) == 0
        payload = read_report(out, "converge_report")
        assert payload["strictly_decreasing"] is True
        cols = read_csv_columns(out / "gamma_distances.csv")
        assert list(cols["gamma"]) == [4.0, 16.0]

    def test_speed_study_smoke(self, tmp_path):
        text = BASE.replace("box_radius = 4.0", "box_radius = 14.0").replace(
            "t_end = 1.0", "t_end = 12.0").replace("dx = 0.05", "dx = 0.05")
        text += "\n[study]\ntolerance = 0.08\n"
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "speed"
        assert main(["speed", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = read_report(out, "speed_report")
        assert payload["passed"] is True
        assert abs(payload["speed_ratio"] - 1.0) <= 0.08

    def test_wave_envelope_initial_data(self, tmp_path):
        text = BASE.replace(
            "initial = ball_plateau\nheight = 1.0\nradius = 1.0\nramp = 0.5",
            "initial = wave_envelope\nspeed_factor = 1.0\noffset = -1.0").replace(
            "t_end = 1.0", "t_end = 0.2")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "env"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "snapshot_0000.csv")
        # profile starts saturated behind the offset and vanishes past ell
        assert cols["u"][cols["x"] <= -1.0].min() == 1.0
        assert np.all(cols["u"][cols["x"] >= 0.0] == 0.0)

    @pytest.mark.parametrize("gammas", ["8, 8", "8", "0.5, 8", "8, nan", "8, inf"])
    def test_bad_gamma_list_exits_2(self, tmp_path, capsys, gammas):
        text = CORE + f"\n[study]\ngamma_list = {gammas}\n"
        cfg_path = write_config(tmp_path, text)
        assert main(["converge", "--config", str(cfg_path),
                     "--out", str(tmp_path / "g")]) == 2
        assert "config error: [study] gamma_list" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("wave", "s_max = -1"),
        ("speed", "tolerance = -0.02"),
        ("speed", "tolerance = 0"),
        ("speed", "window_fraction = 0.9"),
        ("speed", "window_fraction = 0"),
        ("converge", "threshold = -1"),
        ("converge", "threshold = 0"),
    ])
    def test_bad_study_value_exits_2_before_any_search_or_run(
            self, tmp_path, capsys, monkeypatch, command, line):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} ran before [study] {line} was checked")

        monkeypatch.setattr(cli, "find_c_star", no_work)
        monkeypatch.setattr(ss.analysis, "run", no_work)
        cfg_path = write_config(tmp_path, CORE + f"\n[study]\n{line}\n")
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "s")]) == 2
        key = line.split(" = ")[0]
        assert f"config error: [study] {key}" in capsys.readouterr().err

    def test_speed_window_with_too_few_snapshots_exits_2(self, tmp_path, capsys,
                                                          monkeypatch):
        """Three snapshots (t = 0, 1, 2) leave two in the fit window: the
        count is known from the config, so neither the c* search nor the
        run starts."""
        def no_work(*args, **kwargs):
            raise AssertionError("speed ran before its fit window was checked")

        monkeypatch.setattr(cli, "find_c_star", no_work)
        monkeypatch.setattr(cli, "run", no_work)
        text = BASE.replace("t_end = 1.0", "t_end = 2.0").replace(
            "snapshot_interval = 0.5", "snapshot_interval = 1.0")
        cfg_path = write_config(tmp_path, text)
        assert main(["speed", "--config", str(cfg_path),
                     "--out", str(tmp_path / "f")]) == 2
        assert "10 usable snapshots" in capsys.readouterr().err

    def test_speed_without_a_saturated_front_is_degenerate(self, tmp_path, capsys):
        """A slow front from a low plateau saturates no cell in the fit window,
        which holds 13 snapshots: the estimate is degenerate, the artifacts
        are written and the run exits 4."""
        text = BASE.replace("rate = 1.0", "rate = 0.2").replace(
            "height = 1.0", "height = 0.1").replace("t_end = 1.0", "t_end = 6.0").replace(
            "snapshot_interval = 0.5", "snapshot_interval = 0.25")
        out = tmp_path / "slow"
        assert main(["speed", "--config", str(write_config(tmp_path, text)),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "config error" not in err
        assert "scientific failure: degenerate estimate" in err
        assert "speed ratio" not in err
        payload = read_report(out, "speed_report")
        assert payload["degenerate"] is True and payload["passed"] is False
        assert payload["fitted_speed"] == 0.0
        cols = read_csv_columns(out / "front_track.csv")
        assert len(cols["t"]) == 25 and payload["fit_window"][1] == cols["t"][-1]
        assert np.all(cols["radius_saturated"][12:] == -np.inf)

    @pytest.mark.parametrize("t_end,interval,window,count", [
        (40.0, 1.0, 0.5, 21), (2.0, 0.1, 0.5, 11), (0.9, 0.1, 0.5, 5),
        (0.0, 0.1, 0.5, 1), (1.0, None, 0.5, 1), (0.95, 0.05, 0.45, 9),
        (0.03, 0.003, 0.5, 6), (1.0, 0.1, 0.05, 1)])
    def test_fit_window_count_equals_the_runs(self, t_end, interval, window, count):
        """The pre-run check counts the window's snapshots exactly as
        ``estimate_speed`` does on the times the run records."""
        params = ss.ModelParams("singular", 0.003, t_end)
        _, st = ss.build_kernel("indicator_ball", 1.0, 1, 0.25)
        res = ss.run(ss.grid_field(1.0, 0.25, 1), params, st, ss.linear_growth(1.0),
                     snapshot_interval=interval)
        times = np.asarray(res.times)
        assert np.count_nonzero(
            times >= times[-1] * (1.0 - window) - 1e-12) == count
        if count >= 10:
            ss.analysis._check_fit_window(params, interval, window)
        else:
            with pytest.raises(ValueError, match="10 usable snapshots"):
                ss.analysis._check_fit_window(params, interval, window)

    def test_seed_and_threads_flags_accepted(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "s"), "--threads", "2"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path),
                  "--out", str(tmp_path / "s"), "--seed", "7"])
        assert exc.value.code == 2

    def test_box_shorter_than_the_stencil_simulates(self, tmp_path):
        text = BASE.replace("box_radius = 4.0", "box_radius = 0.5").replace(
            "dx = 0.05", "dx = 0.125")
        cfg_path = write_config(tmp_path, text)
        out = tmp_path / "short"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "saturation_time.csv")
        assert len(cols["x"]) == 9
