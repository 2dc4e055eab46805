import ctypes
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudosun as ps
from pseudosun import cli
from pseudosun.cli import main
from pseudosun import config as config_module
from pseudosun.config import COMMANDS, command_block, example_config, load_config, parse_heralded

SMALL_PDC = {
    "pump_freq": 25000.0,
    "signal_center": 12000.0,
    "entanglement_time": 2.5,
    "gain": 0.15,
}
SMALL_MOL = {
    "levels": [
        {"energy": 18000.0, "dipole": 1.0},
        {"energy": 18500.0, "dipole": 1.0},
    ]
}
GRID = {"min": 1000.0, "max": 25000.0, "count": 16}
SOLAR = {"temperature": 5777.0}
SMALL_HERALDED = {
    "molecule": SMALL_MOL,
    "pdc": SMALL_PDC,
    "herald_times": [10.0],
    "method": "rect_approx",
    "times": {"min": 0.0, "max": 20.0, "count": 101},
}
SMALL_FIT = {
    "window": {"min": 15000.0, "max": 20000.0, "count": 101},
    "thermal": SOLAR,
    "initial": SMALL_PDC,
    "free_params": ["entanglement_time", "gain"],
    "bounds": {"entanglement_time": [0.5, 8.0], "gain": [0.01, 0.5]},
    "max_iters": 200,
}
SMALL_EXACT = {
    "molecule": SMALL_MOL,
    "pdc": SMALL_PDC,
    "method": "exact_quadrature",
    "times": {"min": 0.0, "max": 40.0, "count": 401},
}
#: Configs kept in the repo for what no shipped config runs; CI reruns them as well.
CORPUS = Path(__file__).parent / "corpus"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return comments, header, np.array(rows)


def small_dynamics_block(**overrides):
    block = {
        "molecule": SMALL_MOL,
        "pdc": SMALL_PDC,
        "grid": {"min": 1000.0, "max": 25000.0, "count": 2048},
        "times": {"min": 0.0, "max": 40.0, "count": 201},
        "normalization": "max_repart_offdiag",
    }
    block.update(overrides)
    return block


class TestSpectrumCommand:
    def test_fig1_reproduction(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--config", str(example_config("fig1")), "--out", str(out)])
        assert code == 0
        comments, header, rows = read_csv(out / "fig1_spectrum.csv")
        assert header == ["omega_cm1", "n_pdc", "n_thermal"]
        assert any("config-sha256" in line for line in comments)
        assert any("pseudosun" in line for line in comments)
        center = rows[np.argmin(np.abs(rows[:, 0] - 12000.0))]
        assert center[1] == pytest.approx(0.022669, abs=1e-5)
        assert center[2] == pytest.approx(
            1.0 / np.expm1(ps.C2_CM_K * 12000.0 / 5777.0), rel=1e-12
        )
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert (out / "fig1_spectrum.gp").exists()

    @pytest.mark.parametrize(
        "config",
        [example_config(name) for name in ("fig1", "fig2", "fig3a", "fig3b")]
        + sorted(CORPUS.glob("*.json")),
        ids=lambda path: path.stem.replace("_", "-"),
    )
    def test_byte_identical_reruns(self, tmp_path, capsys, config):
        # Every shipped and corpus config, as CI's rerun step runs them: the command is the
        # config's one top-level key, and every run gets the seed a random average needs.
        (command,) = json.loads(config.read_text())
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            args = [command, "--config", str(config), "--out", str(out), "--seed", "2026"]
            assert main(args) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] and runs[0] == runs[1]
        assert capsys.readouterr().err == ""

    def test_zero_frequency_window_rejected(self, tmp_path):
        payload = {
            "spectrum": {
                "grid": {"min": 0.0, "max": 25000.0, "count": 16},
                "pdc": SMALL_PDC,
                "thermal": {"temperature": 5777.0},
            }
        }
        config = write_config(tmp_path / "bad.json", payload)
        assert main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2

    def test_empty_window_rejected(self, tmp_path):
        payload = {
            "spectrum": {
                "grid": {"min": 12000.0, "max": 12000.0, "count": 16},
                "pdc": SMALL_PDC,
                "thermal": {"temperature": 5777.0},
            }
        }
        config = write_config(tmp_path / "bad.json", payload)
        assert main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2

    def test_negative_pump_is_bad_input(self, tmp_path, capsys):
        payload = {
            "spectrum": {"grid": GRID, "pdc": dict(SMALL_PDC, pump_freq=-1), "thermal": SOLAR}
        }
        config = write_config(tmp_path / "bad.json", payload)
        out = tmp_path / "run"
        assert main(["spectrum", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: spectrum.pdc: PdcParams: pump_freq must be finite and > 0, got -1.0\n"
        )
        assert not out.exists()


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        payload = {
            "spectrum": {
                "grid": {"min": 1000.0, "max": 2000.0, "count": 4, "step": 1.0},
                "pdc": SMALL_PDC,
                "thermal": {"temperature": 5777.0},
            }
        }
        config = write_config(tmp_path / "bad.json", payload)
        assert main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2

    def test_unknown_top_level_key_rejected(self, tmp_path):
        config = write_config(tmp_path / "bad.json", {"spectrographic": {}})
        assert main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2

    def test_missing_block(self, tmp_path):
        config = write_config(tmp_path / "only_fit.json", {"fit": {}})
        assert main(["spectrum", "--config", config, "--out", str(tmp_path)]) == 2

    def test_error_names_field(self, tmp_path, capsys):
        payload = {"dynamics": small_dynamics_block(times={"min": -1.0, "max": 40.0, "count": 11})}
        config = write_config(tmp_path / "bad.json", payload)
        assert main(["dynamics", "--config", config, "--out", str(tmp_path)]) == 2
        assert "times" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_seed_must_be_u64(self, tmp_path):
        config = str(example_config("fig1"))
        assert main(["spectrum", "--config", config, "--out", str(tmp_path), "--seed", "-1"]) == 2


SAMPLES_RULE = "samples must be an integer >= 1 and below 2**60"
PADDED_WINDOW_RULE = "pad must keep the padded window (t_max - t_min) + 2 pad finite"


class TestBoundaryRejection:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, tmp_path, capsys, literal):
        block = {
            "molecule": SMALL_MOL,
            "pdc": SMALL_PDC,
            "herald_times": [10.0],
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 20.0, "count": 101},
            "average": {"samples": 4, "pad": "PAD"},
        }
        path = tmp_path / "her.json"
        path.write_text(json.dumps({"heralded": block}).replace('"PAD"', literal))
        assert main(["heralded", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "heralded.average.pad" in err and literal in err
        assert not (tmp_path / "run").exists()

    def test_non_finite_in_list_rejected(self, tmp_path, capsys):
        path = tmp_path / "her.json"
        block = {"herald_times": [10.0, "T"], "molecule": SMALL_MOL}
        path.write_text(json.dumps({"heralded": block}).replace('"T"', "NaN"))
        assert main(["heralded", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "heralded.herald_times[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("pad", [float("nan"), float("inf")])
    def test_non_finite_pad_in_dict_rejected(self, pad):
        block = {
            "molecule": SMALL_MOL,
            "pdc": SMALL_PDC,
            "herald_times": [10.0],
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 20.0, "count": 101},
            "average": {"samples": 4, "pad": pad},
        }
        with pytest.raises(ps.ValidationError, match="heralded.average.pad"):
            parse_heralded(block)

    @pytest.mark.parametrize(
        "average, message",
        [
            ({"samples": 10**400}, f"{SAMPLES_RULE}, got 1.00e+400"),
            ({"samples": 2**70}, f"{SAMPLES_RULE}, got 1.18e+21"),
            ({"samples": 4, "pad": 1e308}, f"{PADDED_WINDOW_RULE}, got 1e+308"),
        ],
        ids=["samples-past-float", "samples-past-2**60", "pad-overflows-window"],
    )
    def test_average_out_of_range_is_bad_input(self, tmp_path, capsys, average, message):
        # 10**400 samples failed in float(samples) and 2**70 in np.linspace, both with a
        # traceback and exit 1; the padded window overflowed in np.linspace, with exit 3.
        block = command_block(load_config(example_config("fig3a")), "heralded")
        block["average"] = average
        config = write_config(tmp_path / "average.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: heralded.average: {message}\n"
        assert not out.exists()

    def test_oversized_integer_literal_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        block = {"grid": dict(GRID, max="BIG"), "pdc": SMALL_PDC, "thermal": SOLAR}
        path.write_text(json.dumps({"spectrum": block}).replace('"BIG"', "9" * 5000))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN"])
    def test_non_finite_number_rejected_in_a_block_the_command_does_not_read(
        self, tmp_path, capsys, literal
    ):
        # 1e400 parses to inf: the pre-pass flagged only the NaN and Infinity literals, so
        # spectrum ran with it in the fit block and exited 0
        path = tmp_path / "fig1.json"
        config = dict(load_config(example_config("fig1")), fit={"tol": "TOL"})
        path.write_text(json.dumps(config).replace('"TOL"', literal))
        out = tmp_path / "run"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        message = f"fit.tol: non-finite number {literal} is not allowed (config {path})"
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_huge_integer_for_a_number_is_quoted_in_short_form(self, tmp_path, capsys):
        # all 401 digits of 10**400 were printed
        block = command_block(load_config(example_config("fig1")), "spectrum")
        block["pdc"]["gain"] = 10**400
        config = write_config(tmp_path / "gain.json", {"spectrum": block})
        out = tmp_path / "run"
        assert main(["spectrum", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: spectrum.pdc.gain: must be finite, got 1.00e+400\n"
        assert not out.exists()

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"spectrum": {"grid": {"min": 1000.0, "max": 2000.0, "count": 4, "count": 8},'
            ' "pdc": {}, "thermal": {}}}'
        )
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "duplicate key 'count'" in err

    @pytest.mark.parametrize(
        "command, block, message",
        [
            (
                "spectrum",
                {"grid": dict(GRID, max=1000.0), "pdc": SMALL_PDC, "thermal": SOLAR},
                "spectrum.grid: FrequencyGrid: max",
            ),
            (
                "spectrum",
                {"grid": GRID, "pdc": dict(SMALL_PDC, gain=2.0), "thermal": SOLAR},
                "spectrum.pdc: PdcParams: gain",
            ),
            (
                "spectrum",
                {"grid": dict(GRID, max=10**400), "pdc": SMALL_PDC, "thermal": SOLAR},
                "spectrum.grid.max: must be finite",
            ),
            (
                "dynamics",
                small_dynamics_block(molecule={"levels": []}),
                "dynamics.molecule: MolecularSystem",
            ),
            (
                "dynamics",
                small_dynamics_block(blackbody={"temperature": 0.0}),
                "dynamics.blackbody: ThermalParams",
            ),
            (
                "heralded",
                dict(SMALL_HERALDED, herald_times=[float("nan")]),
                "heralded.herald_times[0]: must be finite",
            ),
            (
                "heralded",
                dict(SMALL_HERALDED, average={"samples": 4, "pad": 1.0}),
                "heralded.average: pad must be finite and at least the entanglement time",
            ),
            (
                "coincidence",
                {
                    "molecule": SMALL_MOL,
                    "pdc": SMALL_PDC,
                    "herald_time": float("inf"),
                    "times": {"min": 0.0, "max": 20.0, "count": 101},
                },
                "coincidence.herald_time: must be finite",
            ),
            ("fit", dict(SMALL_FIT, tol=float("nan")), "fit.tol: must be finite"),
            ("fit", dict(SMALL_FIT, max_iters=0), "fit.max_iters: must be an integer >= 1 and below 2**60, got 0"),
            ("fit", dict(SMALL_FIT, tol=0.0), "fit.tol: must be finite and > 0, got 0.0"),
            (
                "fit",
                dict(SMALL_FIT, bounds={"entanglement_time": [8.0, 0.5], "gain": [0.01, 0.5]}),
                "fit.bounds.entanglement_time: must satisfy lo < hi, got [8.0, 0.5]",
            ),
            (
                "fit",
                dict(SMALL_FIT, bounds=dict(SMALL_FIT["bounds"], chirp=[0.0, 1.0])),
                "fit.bounds.chirp: unknown parameter",
            ),
            (
                "fit",
                dict(SMALL_FIT, bounds={"gain": [0.01, 0.5]}),
                "fit.bounds.entanglement_time: missing",
            ),
            (
                "fit",
                dict(SMALL_FIT, bounds=dict(SMALL_FIT["bounds"], gain=[0.01])),
                "fit.bounds.gain: expected 2 entries, got 1",
            ),
            (
                "fit",
                dict(SMALL_FIT, free_params=["gain", "entanglement_time", "gain"]),
                "fit.free_params: duplicate entries in ['gain', 'entanglement_time', 'gain']",
            ),
            ("fit", dict(SMALL_FIT, free_params=[]), "fit.free_params: must name at least one"),
            (
                "fit",
                dict(SMALL_FIT, bounds=dict(SMALL_FIT["bounds"], signal_center=[9000.0, 25000.0]),
                     free_params=["signal_center"]),
                "fit.bounds: admit invalid parameters",
            ),
            (
                "fit",
                dict(SMALL_FIT, free_params=["x"]),
                "fit.free_params[0]: unknown parameter 'x'",
            ),
            (
                "fit",
                dict(SMALL_FIT, initial=dict(SMALL_PDC, gain=1.0)),
                "fit.initial.gain: 1.0 is outside bounds [0.01, 0.5]",
            ),
            (
                "heralded",
                dict(
                    SMALL_EXACT, pdc=dict(SMALL_PDC, entanglement_time=1e300), herald_times=[10.0]
                ),
                "heralded.pdc.entanglement_time: 1e+300 fs leaves no default field grid around "
                "signal_center 12000.0 (FrequencyGrid: max (12000.0) must exceed min (12000.0))",
            ),
        ],
        ids=[
            "empty-grid",
            "gain",
            "huge-integer",
            "no-levels",
            "cold-blackbody",
            "nan-herald",
            "short-pad",
            "infinite-herald",
            "nan-tol",
            "zero-max-iters",
            "zero-tol",
            "reversed-bounds",
            "unknown-bound",
            "missing-bound",
            "short-bound",
            "duplicate-free-param",
            "empty-free-params",
            "bounds-admit-invalid-params",
            "unknown-free-param",
            "initial-outside-bounds",
            "no-default-field-grid",
        ],
    )
    def test_rejection_names_path(self, command, block, message):
        with pytest.raises(ps.ValidationError, match="^" + re.escape(message)):
            getattr(config_module, f"parse_{command}")(block)

    @pytest.mark.parametrize("command", ["dynamics", "heralded", "coincidence"])
    def test_dark_molecule_is_bad_input(self, tmp_path, capsys, command):
        dark = {
            "levels": [
                {"energy": 18000.0, "dipole": 0.0},
                {"energy": 18500.0, "dipole": 0.0},
            ]
        }
        if command == "dynamics":
            block = small_dynamics_block(molecule=dark)
        else:
            block = dict(SMALL_HERALDED, molecule=dark)
        if command == "coincidence":
            block["herald_time"] = block.pop("herald_times")[0]
        config = write_config(tmp_path / "dark.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.molecule: MolecularSystem: at least one dipole")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dynamics", "heralded"])
    def test_one_bright_level_offdiag_normalization_is_bad_input(self, tmp_path, capsys, command):
        # Every off-diagonal entry is proportional to mu_a mu_b, so all of them are zero.
        one_bright = {
            "levels": [
                {"energy": 18000.0, "dipole": 1.0},
                {"energy": 18500.0, "dipole": 0.0},
            ]
        }
        if command == "dynamics":
            block = small_dynamics_block(molecule=one_bright)
        else:
            block = dict(SMALL_HERALDED, molecule=one_bright, normalization="max_repart_offdiag")
        config = write_config(tmp_path / "bright.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.normalization: max_repart_offdiag needs two")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dynamics", "heralded", "coincidence"])
    def test_negative_start_names_path(self, tmp_path, capsys, command):
        times = {"min": -1.0, "max": 20.0, "count": 101}
        if command == "dynamics":
            block = small_dynamics_block(times=times)
        else:
            block = dict(SMALL_HERALDED, times=times)
        if command == "coincidence":
            block["herald_time"] = block.pop("herald_times")[0]
        config = write_config(tmp_path / "early.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.times.min: must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "dynamics", "fit"])
    def test_zero_frequency_blackbody_grid_names_path(
        self, tmp_path, capsys, monkeypatch, command
    ):
        grid = {"min": 0.0, "max": 25000.0, "count": 2048}
        key = "window" if command == "fit" else "grid"
        if command == "spectrum":
            block = {"grid": grid, "pdc": SMALL_PDC, "thermal": SOLAR}
        elif command == "fit":
            block = dict(SMALL_FIT, window=grid)
        else:
            # Without a black body the grid may reach 0: only the source spectrum is sampled.
            config_module.parse_dynamics(small_dynamics_block(grid=grid))
            block = small_dynamics_block(grid=grid, blackbody=SOLAR)

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the config was checked")

        monkeypatch.setattr("pseudosun.cli.mean_photon_number", no_compute)
        monkeypatch.setattr("pseudosun.config.thermal_mean", no_compute)
        config = write_config(tmp_path / "zero.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {command}.{key}.min: must be > 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["heralded", "coincidence"])
    def test_field_grid_needs_exact_method(self, tmp_path, capsys, monkeypatch, command):
        # The rect field ignored a field grid, and the run exited 0.
        field_grid = {"min": 1.0, "max": 2.0, "count": 2}
        block = dict(SMALL_HERALDED, field_grid=field_grid)
        if command == "coincidence":
            block["herald_time"] = block.pop("herald_times")[0]
        del block["method"]  # the default, rect_approx
        getattr(config_module, f"parse_{command}")(dict(block, method="exact_quadrature"))

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the config was checked")

        monkeypatch.setattr("pseudosun.cli.heralded_field", no_compute)
        config = write_config(tmp_path / "grid.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.field_grid: only method exact_quadrature")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, kind", [("grid", "FrequencyGrid"), ("times", "TimeGrid")])
    def test_unaddressable_grid_count_names_path(self, tmp_path, capsys, key, kind):
        # numpy cannot address 10**30 points: this ended in a traceback with exit 1.
        block = small_dynamics_block()
        block[key] = dict(block[key], count=10**30)
        config = write_config(tmp_path / "huge.json", {"dynamics": block})
        out = tmp_path / "run"
        assert main(["dynamics", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: dynamics.{key}: {kind}: count must be an integer >= 2 and")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unaddressable_default_field_grid_is_bad_input(self, tmp_path, capsys):
        # The default exact field grid over a 1e300 fs span would need about 4e301 points.
        # The config reader checked the grid without the span and the run exited 2 naming
        # no key; even a herald at the window's center is 5e299 fs from its ends.
        block = dict(SMALL_EXACT, times=dict(SMALL_EXACT["times"], max=1e300), herald_times=[10.0])
        config = write_config(tmp_path / "span.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: heralded.times: a herald 5e+299 fs from the far end of the window leaves "
            "no default field grid (FrequencyGrid: count must be an integer >= 2 and below 2**60"
        )
        assert err.endswith("); set field_grid\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, change, key, span",
        [
            ("heralded", {"herald_times": [1e300]}, "herald_times[0]", "1e+300"),
            ("heralded", {"herald_times": [10.0, 1e300]}, "herald_times[1]", "1e+300"),
            ("heralded", {"times": {"min": 0.0, "max": 1e300, "count": 401}}, "times", "5e+299"),
            ("heralded", {"average": {"samples": 4, "pad": 1e300}}, "average", "1e+300"),
            ("coincidence", {"herald_time": 1e300}, "herald_time", "1e+300"),
            # The span overflows to inf, the spacing to 0: this was a ZeroDivisionError.
            (
                "heralded",
                {"times": {"min": 0.0, "max": 1e308, "count": 401}, "herald_times": [-1e308]},
                "times",
                "5e+307",
            ),
        ],
        ids=[
            "herald_times",
            "second-herald",
            "times",
            "average-pad",
            "coincidence",
            "overflowing-span",
        ],
    )
    def test_default_field_grid_checked_at_the_span_used(
        self, tmp_path, capsys, monkeypatch, command, change, key, span
    ):
        # Each herald's field source resolves that herald's largest distance to a time of the
        # window, and the average's source the largest over its padded window
        # (heralded.field_span). The config reader checks the default grid at each of those
        # spans and names the herald, the average, or times if even the window's center fails.
        heralds = {"herald_times": [10.0]} if command == "heralded" else {"herald_time": 10.0}
        block = {**SMALL_EXACT, **heralds, **change}

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the config was checked")

        monkeypatch.setattr("pseudosun.cli.heralded_field", no_compute)
        monkeypatch.setattr("pseudosun.cli.average_over_heralds", no_compute)
        config = write_config(tmp_path / "span.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: {command}.{key}: a herald {span} fs from the far end of the window leaves "
            "no default field grid (FrequencyGrid: count must be"
        )
        # A count of 2**60 or more is quoted in short form, not in its 300 digits.
        assert len(err) < 300
        assert err.endswith("); set field_grid\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "entanglement_time, message",
        [(1e-300, "count must be an integer >= 2 and below 2**60, got inf"),
         (1e-310, "endpoints must be finite")],
    )
    def test_overflowing_default_field_grid_is_bad_input(
        self, tmp_path, capsys, entanglement_time, message
    ):
        # (hi - lo) / spacing overflowed to inf, and ceil() ended in a traceback with
        # exit 1. At 1e-310 the lobe width, hence the upper endpoint, is inf as well,
        # whatever the span, so the config reader rejects it and names the key.
        pdc = dict(SMALL_EXACT["pdc"], entanglement_time=entanglement_time)
        times = dict(SMALL_EXACT["times"], max=1e300)
        block = dict(SMALL_EXACT, pdc=pdc, times=times, herald_times=[10.0])
        config = write_config(tmp_path / "span.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        error = f"FrequencyGrid: {message}"
        if entanglement_time == 1e-310:
            error = (
                "heralded.pdc.entanglement_time: 1e-310 fs leaves no default field grid "
                f"around signal_center 12000.0 ({error}); set field_grid"
            )
        else:
            error = (
                "heralded.times: a herald 5e+299 fs from the far end of the window leaves no "
                f"default field grid ({error}); set field_grid"
            )
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, change, key",
        [
            ("heralded", {"herald_times": [1e300]}, "herald_times[0]"),
            ("heralded", {"herald_times": [-10.0]}, "herald_times[0]"),
            ("heralded", {"herald_times": [103.0]}, "herald_times[0]"),
            ("heralded", {"herald_times": [50.0, 103.0]}, "herald_times[1]"),
            # 5 fs steps: the 2.5 fs pulse at 52.5 fs falls between 50 and 55 fs.
            (
                "heralded",
                {"herald_times": [52.5], "times": {"min": 0.0, "max": 100.0, "count": 21}},
                "herald_times[0]",
            ),
            # The box edge falls just past the last time, 100 fs.
            ("heralded", {"herald_times": [101.25000001]}, "herald_times[0]"),
            ("coincidence", {"herald_time": 1e300}, "herald_time"),
        ],
        ids=[
            "far",
            "before",
            "after",
            "second-after",
            "coarse-step",
            "edge-missed",
            "coincidence-far",
        ],
    )
    def test_rect_pulse_out_of_reach_is_bad_input(
        self, tmp_path, capsys, monkeypatch, command, change, key
    ):
        # The rect field was 0 at every time, and the run exited 3 when it
        # normalized the trajectory or the coincidence signal.
        block = command_block(load_config(example_config("fig3a")), "heralded")
        if command == "coincidence":
            del block["herald_times"], block["normalization"], block["output_prefix"]
        block.update(change)

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the config was checked")

        monkeypatch.setattr("pseudosun.cli.heralded_field", no_compute)
        config = write_config(tmp_path / "rect.json", {command: block})
        out = tmp_path / "run"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.{key}: the 2.5 fs rect_approx pulse heralded at ")
        assert err.endswith("so the molecule sees no light\n")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("herald_time", [101.25, -1.25])
    def test_rect_pulse_edge_on_a_time_is_accepted(self, tmp_path, herald_time):
        # The box is one half at exactly entanglement_time / 2 from its herald,
        # so a pulse whose edge falls on the last or first time lights that time.
        block = command_block(load_config(example_config("fig3a")), "heralded")
        block["herald_times"] = [herald_time]
        config = write_config(tmp_path / "edge.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 0
        name = parse_heralded(block).herald_output(herald_time)
        _, _, rows = read_csv(out / name)
        assert np.max(rows[:, 1]) == 1.0

    def test_rect_rule_holds_no_time_array(self):
        # The rule evaluated times.points, 8 TB of floats here, once per herald.
        block = command_block(load_config(example_config("fig3a")), "heralded")
        block["times"] = dict(block["times"], count=10**12)
        tracemalloc.start()
        try:
            parse_heralded(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "times",
        [
            {"min": 0.0, "max": 100.0, "count": 2001},
            {"min": 3.0, "max": 103.0, "count": 2001},
            {"min": 0.1, "max": 0.7, "count": 7},
            {"min": 0.0, "max": 1e6 + 0.3, "count": 2},
        ],
    )
    def test_rect_rule_at_the_grid_ends_decides_as_the_time_array(self, times):
        # Heralds entanglement_time / 2 outside either end, an ulp either side of
        # that, and one just inside: each accepted or rejected as the distance to
        # every point of times.points decides it.
        block = command_block(load_config(example_config("fig3a")), "heralded")
        block["times"] = times
        points = ps.TimeGrid(**times).points
        half = 0.5 * block["pdc"]["entanglement_time"]
        heralds = []
        for edge in (points[0] - half, points[-1] + half):
            heralds += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        heralds += [points[0] - 0.5 * half, points[-1] + 0.5 * half]
        decisions = []
        for herald in heralds:
            block["herald_times"] = [herald]
            reached = bool((np.abs(points - herald) <= half).any())
            decisions.append(reached)
            if reached:
                parse_heralded(block)
            else:
                with pytest.raises(ps.ValidationError, match=r"^heralded\.herald_times\[0\]: "):
                    parse_heralded(block)
        assert True in decisions and False in decisions

    def test_failing_command_writes_nothing(self, tmp_path, capsys):
        block = dict(SMALL_HERALDED, average={"samples": 4, "pad": 1.0})
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        assert "heralded.average" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, name",
        [
            ("dynamics", "blackbody_output", "dynamics_pdc.csv"),
            ("heralded", "average_output", "h_ti10.csv"),
            ("fit", "report", "fit_spectrum.gp"),
            ("spectrum", "output", "s.gp"),
            ("coincidence", "output", "../escaped.csv"),
            ("spectrum", "output", "ABSOLUTE"),
            ("dynamics", "output", ""),
            ("spectrum", "output", "."),
            ("heralded", "output_prefix", ".."),
            ("fit", "report", "report\u0000.txt"),
        ],
        ids=[
            "dynamics-same-csv",
            "average-over-single-herald",
            "report-over-script",
            "csv-over-own-script",
            "parent-directory",
            "absolute-path",
            "empty",
            "dot",
            "dot-dot-prefix",
            "nul",
        ],
    )
    def test_output_name_rejected(self, tmp_path, capsys, command, key, name):
        # Each of these exited 0 and wrote over a table or outside --out, or
        # ended in a traceback; the key is checked before anything runs.
        escaped = tmp_path / "escaped.csv"
        name = str(escaped) if name == "ABSOLUTE" else name
        block = {
            "spectrum": {"grid": GRID, "pdc": SMALL_PDC, "thermal": SOLAR},
            "fit": SMALL_FIT,
            "dynamics": small_dynamics_block(blackbody=SOLAR),
            "heralded": dict(SMALL_HERALDED, output_prefix="h", average={"samples": 2}),
            "coincidence": dict(SMALL_EXACT, herald_time=10.0),
        }[command]
        config = write_config(tmp_path / "names.json", {command: dict(block, **{key: name})})
        out = tmp_path / "run" / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}.{key}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists() and not escaped.exists()

    def test_duplicate_herald_times_rejected(self, tmp_path, capsys):
        block = {
            "molecule": SMALL_MOL,
            "pdc": SMALL_PDC,
            "herald_times": [50.0, 50],
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 100.0, "count": 101},
        }
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        assert "heralded.herald_times" in capsys.readouterr().err
        assert not out.exists()


#: Marks a leaf that a structural case deletes.
DELETE = object()
#: Each case: (shipped config, path under its command's block, new value, message start).
#: Path () replaces the whole block and None the whole file.
STRUCTURAL_CASES = {
    "missing-block": ("fig2", ("grid",), DELETE, "dynamics.grid: missing required key"),
    "missing-leaf": (
        "fig2",
        ("molecule", "levels", 0, "dipole"),
        DELETE,
        "dynamics.molecule.levels[0].dipole: missing required key",
    ),
    "missing-list": (
        "fig3a", ("herald_times",), DELETE, "heralded.herald_times: missing required key"
    ),
    "missing-param": ("fig3a", ("pdc", "gain"), DELETE, "heralded.pdc.gain: missing required key"),
    "string-number": ("fig2", ("times", "max"), "100", "dynamics.times.max: expected a number"),
    "null-number": ("fig2", ("pdc", "gain"), None, "dynamics.pdc.gain: expected a number"),
    "nested-list-number": (
        "fig2", ("grid", "min"), [[1000.0]], "dynamics.grid.min: expected a number"
    ),
    "string-herald": (
        "fig3a", ("herald_times", 0), "50", "heralded.herald_times[0]: expected a number"
    ),
    "list-herald": (
        "fig3a", ("herald_times", 0), [50.0], "heralded.herald_times[0]: expected a number"
    ),
    "float-count": (
        "fig2", ("times", "count"), 2001.0, "dynamics.times.count: expected an integer"
    ),
    "bool-count": ("fig2", ("grid", "count"), True, "dynamics.grid.count: expected an integer"),
    "string-count": ("fig2", ("grid", "count"), "8192", "dynamics.grid.count: expected an integer"),
    "float-heralded-count": (
        "fig3a", ("times", "count"), 2001.0, "heralded.times.count: expected an integer"
    ),
    "list-object": ("fig2", ("molecule",), [], "dynamics.molecule: must be an object"),
    "null-object": ("fig2", ("blackbody",), None, "dynamics.blackbody: must be an object"),
    "number-object": ("fig2", ("pdc",), 1.0, "dynamics.pdc: must be an object"),
    "list-average": ("fig3a", ("average",), [], "heralded.average: must be an object"),
    "null-times": ("fig3a", ("times",), None, "heralded.times: must be an object"),
    "string-levels": (
        "fig2", ("molecule", "levels"), "two", "dynamics.molecule.levels: expected a list"
    ),
    "string-heralds": ("fig3a", ("herald_times",), "50", "heralded.herald_times: expected a list"),
    "string-enum": ("fig2", ("normalization",), "max", "dynamics.normalization: must be one of"),
    "number-enum": ("fig2", ("normalization",), 1, "dynamics.normalization: must be one of"),
    "list-enum": (
        "fig2", ("normalization",), ["max_diag"], "dynamics.normalization: must be one of"
    ),
    "string-method": ("fig3a", ("method",), "exact", "heralded.method: must be one of"),
    "number-method": ("fig3a", ("method",), 1, "heralded.method: must be one of"),
    "list-method": ("fig3a", ("method",), ["rect_approx"], "heralded.method: must be one of"),
    "empty-heralds": (
        "fig3a", ("herald_times",), [], "heralded.herald_times: must list at least one herald time"
    ),
    "list-level": (
        "fig2",
        ("molecule", "levels", 0),
        [18000.0, 1.0],
        "dynamics.molecule.levels[0]: must be an object",
    ),
    "null-string": ("fig2", ("output",), None, "dynamics.output: expected a string"),
    "number-string": ("fig3a", ("output_prefix",), 3, "heralded.output_prefix: expected a string"),
    "list-block": ("fig2", (), [], "dynamics: must be an object"),
    "number-block": ("fig3a", (), 7, "heralded: must be an object"),
    "list-top-level": ("fig2", None, [], "config {path}: top level must be an object"),
    "string-top-level": ("fig3a", None, "heralded", "config {path}: top level must be an object"),
}


@pytest.mark.parametrize(
    "name, path, value, message", list(STRUCTURAL_CASES.values()), ids=list(STRUCTURAL_CASES)
)
def test_structural_rule_is_one_exit_2_line(tmp_path, capsys, name, path, value, message):
    # One leaf of a shipped config changed or deleted, or its block or the whole file
    # replaced (path () or None): the reader's type and shape rules, each named by its path.
    config = load_config(example_config(name))
    (command,) = config
    if path is None:
        config = value
    else:
        *keys, last = (command, *path)
        parent = config
        for key in keys:
            parent = parent[key]
        if value is DELETE:
            del parent[last]
        else:
            parent[last] = value
    path = write_config(tmp_path / f"{name}.json", config)
    out = tmp_path / "run"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(path=path)}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_mode_follows_umask(tmp_path, umask, mode):
    out = tmp_path / "run"
    previous = os.umask(umask)
    try:
        code = main(["spectrum", "--config", str(example_config("fig1")), "--out", str(out)])
    finally:
        os.umask(previous)
    assert code == 0
    written = sorted(out.iterdir())
    assert [p.name for p in written] == ["fig1_spectrum.csv", "fig1_spectrum.gp"]
    assert all(p.stat().st_mode & 0o777 == mode for p in written)


def test_output_needs_no_umask_call(tmp_path, monkeypatch):
    def no_umask(mask):
        raise AssertionError("os.umask changes the mask of every thread in the process")

    monkeypatch.setattr(os, "umask", no_umask)
    out = tmp_path / "run"
    assert main(["spectrum", "--config", str(example_config("fig1")), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fig1_spectrum.csv", "fig1_spectrum.gp"]


def test_unwritable_target_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "fig1_spectrum.csv").mkdir(parents=True)
    assert main(["spectrum", "--config", str(example_config("fig1")), "--out", str(out)]) == 4
    assert "cannot write" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["fig1_spectrum.csv"]
    assert (out / "fig1_spectrum.csv").is_dir()


def declared_keys(cls, prefix=""):
    """(dotted key, required) for every JSON key of a config dataclass, nested ones included."""
    hints = typing.get_type_hints(cls)
    for declared in dataclasses.fields(cls):
        if not declared.init:
            continue
        key = prefix + declared.name
        yield key, declared.default is dataclasses.MISSING
        kind = hints[declared.name]
        for inner in (kind, *typing.get_args(kind)):
            if dataclasses.is_dataclass(inner):
                nested = "[]." if typing.get_origin(kind) is tuple else "."
                yield from declared_keys(inner, key + nested)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_table_matches_config(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split(f"`{command}`:\n\n")[1].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in table:
        cells = [cell.strip() for cell in row.strip("|").split(" | ")]
        documented[cells[0].strip("`")] = cells[2] == "required"
    parsed = typing.get_type_hints(getattr(config_module, f"parse_{command}"))["return"]
    assert documented == dict(declared_keys(parsed))


class TestDynamicsCommand:
    def test_two_outputs_with_blackbody(self, tmp_path):
        payload = {"dynamics": small_dynamics_block(blackbody={"temperature": 5777.0})}
        config = write_config(tmp_path / "dyn.json", payload)
        out = tmp_path / "run"
        assert main(["dynamics", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "dynamics_pdc.csv")
        assert header == [
            "t_fs",
            "re_rho_11",
            "im_rho_11",
            "re_rho_12",
            "im_rho_12",
            "re_rho_22",
            "im_rho_22",
        ]
        assert rows.shape[0] == 201
        assert (out / "dynamics_blackbody.csv").exists()
        # normalization: peak of the coherence real part is one
        assert rows[:, 3].max() == pytest.approx(1.0, abs=1e-12)

    def test_fig2_config_runs_and_curves_agree(self, tmp_path):
        out = tmp_path / "run"
        code = main(["dynamics", "--config", str(example_config("fig2")), "--out", str(out)])
        assert code == 0
        _, _, pdc_rows = read_csv(out / "fig2_dynamics_pdc.csv")
        _, _, bb_rows = read_csv(out / "fig2_dynamics_blackbody.csv")
        # the reference entry, the peak re_rho_12, is exactly 1
        assert pdc_rows[:, 3].max() == 1.0
        t = pdc_rows[:, 0]
        window = (t >= 10.0) & (t <= 100.0)
        got, want = pdc_rows[window, 1], bb_rows[window, 1]
        assert np.max(np.abs(got - want) / np.abs(want)) < 0.10

    def test_single_level_columns(self, tmp_path):
        block = small_dynamics_block(
            molecule={"levels": [{"energy": 18000.0, "dipole": 1.0}]},
            normalization="max_diag",
        )
        config = write_config(tmp_path / "dyn.json", {"dynamics": block})
        out = tmp_path / "run"
        assert main(["dynamics", "--config", config, "--out", str(out)]) == 0
        _, header, _ = read_csv(out / "dynamics_pdc.csv")
        assert header == ["t_fs", "re_rho_11", "im_rho_11"]

    def test_single_level_offdiag_normalization_is_bad_input(self, tmp_path, capsys):
        block = small_dynamics_block(
            molecule={"levels": [{"energy": 18000.0, "dipole": 1.0}]}
        )
        config = write_config(tmp_path / "dyn.json", {"dynamics": block})
        assert main(["dynamics", "--config", config, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: dynamics.normalization: ")

    def test_negative_time_grid_rejected(self, tmp_path):
        block = small_dynamics_block(times={"min": -5.0, "max": 40.0, "count": 11})
        config = write_config(tmp_path / "dyn.json", {"dynamics": block})
        assert main(["dynamics", "--config", config, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "key, value, path",
        [("blackbody", {"temperature": 1.0}, "dynamics.blackbody.temperature"),
         ("pdc", dict(SMALL_PDC, gain=1e-300), "dynamics.pdc")],
        ids=["cold-blackbody", "tiny-gain"],
    )
    def test_spectrum_zero_on_grid_is_bad_input(self, tmp_path, capsys, key, value, path):
        # both used to evolve a zero trajectory and exit 3 in its normalization
        block = json.loads(example_config("fig2").read_text())["dynamics"]
        block[key] = value
        config = write_config(tmp_path / "fig2.json", {"dynamics": block})
        out = tmp_path / "run"
        assert main(["dynamics", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("span, code", [(1e-300, 2), (1e-158, 2), (1e-150, 0)])
    def test_step_whose_square_is_subnormal_is_bad_input(self, tmp_path, capsys, span, code):
        # dt^2 scales every lag sum: at 1e-300 it underflowed to 0 and the run exited 3 in its
        # normalization; at 1e-158 it was subnormal and the trajectory lost digits (5e-6).
        block = json.loads(example_config("fig2").read_text())["dynamics"]
        block["times"] = {"min": 0.0, "max": span, "count": 201}
        config = write_config(tmp_path / "fig2.json", {"dynamics": block})
        out = tmp_path / "run"
        assert main(["dynamics", "--config", config, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and out.exists()
        else:
            step = span / 200
            assert err == (
                f"error: dynamics.times: the step {step} fs is below 1.5e-154 fs, so its square "
                "is not a normal float\n"
            )
            assert not out.exists()


@pytest.mark.parametrize("method", ["rect_approx", "exact_quadrature"])
@pytest.mark.parametrize("command", ["heralded", "coincidence"])
def test_step_whose_square_is_subnormal_is_bad_input_in_every_trajectory_command(
    tmp_path, capsys, command, method
):
    # The step rule of dynamics: with a 5e-203 fs step both commands exited 3, as the
    # step's square underflowed to 0 and so did every entry.
    block = dict(SMALL_HERALDED, method=method, herald_times=[0.0])
    block["times"] = {"min": 0.0, "max": 1e-200, "count": 201}
    if command == "coincidence":
        block["herald_time"] = block.pop("herald_times")[0]
    config = write_config(tmp_path / "tiny_step.json", {command: block})
    out = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {command}.times: the step 5e-203 fs is below 1.5e-154 fs, so its square is "
        "not a normal float\n"
    )
    assert not out.exists()


class TestHeraldedCommand:
    def test_fig3a_plateau(self, tmp_path):
        out = tmp_path / "run"
        code = main(["heralded", "--config", str(example_config("fig3a")), "--out", str(out)])
        assert code == 0
        path = out / "fig3a_heralded_ti50.csv"
        comments, header, rows = read_csv(path)
        assert any(line.startswith("# t_i_fs:") for line in comments)
        t = rows[:, 0]
        rho11 = rows[:, 1]
        # the reference entry, the peak population, is exactly 1
        assert rows[:, [1, 5]].max() == 1.0
        assert np.all(rho11[t < 47.0] == 0.0)
        assert rho11[-1] == pytest.approx(1.0, abs=1e-9)
        rise = t[np.argmax(rho11 >= 0.9)] - t[np.argmax(rho11 >= 0.1)]
        assert rise < 3.0

    def test_fig3b_blurred_rise(self, tmp_path):
        out = tmp_path / "run"
        code = main(["heralded", "--config", str(example_config("fig3b")), "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out / "fig3b_heralded_ti100.csv")
        t, rho11 = rows[:, 0], rows[:, 1]
        rise = t[np.argmax(rho11 >= 0.9)] - t[np.argmax(rho11 >= 0.1)]
        assert rise > 20.0

    def test_multiple_heralds_and_average(self, tmp_path):
        block = {
            "molecule": SMALL_MOL,
            "pdc": SMALL_PDC,
            "herald_times": [10.0, 20.0],
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 40.0, "count": 401},
            "average": {"samples": 16},
        }
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 0
        assert (out / "heralded_ti10.csv").exists()
        assert (out / "heralded_ti20.csv").exists()
        assert (out / "heralded_average.csv").exists()

    def test_population_imaginary_parts_are_literal_zero(self, tmp_path):
        block = dict(SMALL_EXACT, herald_times=[10.0, 20.5], average={"samples": 9})
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 0
        for name in ["heralded_ti10.csv", "heralded_ti20p5.csv", "heralded_average.csv"]:
            lines = (out / name).read_text().splitlines()
            rows = [line.split(",") for line in lines if not line.startswith("#")]
            columns = [rows[0].index("im_rho_11"), rows[0].index("im_rho_22")]
            assert {row[k] for row in rows[1:] for k in columns} == {"0"}

    def test_seed_recorded_for_random_sampling(self, tmp_path):
        block = {
            "molecule": SMALL_MOL,
            "pdc": SMALL_PDC,
            "herald_times": [10.0],
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 20.0, "count": 101},
            "average": {"samples": 4, "sampling": "random"},
        }
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out), "--seed", "42"]) == 0
        comments, _, _ = read_csv(out / "heralded_average.csv")
        assert any(line == "# seed: 42" for line in comments)

    def test_random_sampling_needs_seed(self, tmp_path, capsys, monkeypatch):
        # Without a seed two runs of one config wrote different averages, each headed
        # "# seed: none", and exited 0.
        block = dict(SMALL_HERALDED, average={"samples": 4, "sampling": "random"})

        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the seed was checked")

        monkeypatch.setattr("pseudosun.cli.heralded_field", no_compute)
        config = write_config(tmp_path / "her.json", {"heralded": block})
        out = tmp_path / "run"
        assert main(["heralded", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: heralded.average.sampling: random sampling needs --seed")
        assert err.count("\n") == 1
        assert not out.exists()


class TestCoincidenceCommand:
    def test_single_level_plateau_and_finite(self, tmp_path):
        block = {
            "molecule": {"levels": [{"energy": 18000.0, "dipole": 1.0}]},
            "pdc": SMALL_PDC,
            "herald_time": 20.0,
            "method": "rect_approx",
            "times": {"min": 0.0, "max": 40.0, "count": 401},
        }
        config = write_config(tmp_path / "coin.json", {"coincidence": block})
        out = tmp_path / "run"
        assert main(["coincidence", "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "coincidence.csv")
        assert header == ["t_fs", "S"]
        assert np.all(np.isfinite(rows))
        assert rows[:, 1].max() == pytest.approx(1.0, abs=1e-12)
        # plateau after the pulse, zero before it
        t = rows[:, 0]
        assert np.all(rows[t < 18.0, 1] == 0.0)
        assert np.all(np.abs(rows[t > 22.0, 1] - 1.0) < 1e-9)

    def test_csv_holds_the_normalized_signal(self, tmp_path):
        block = dict(SMALL_EXACT, herald_time=20.0)
        config = write_config(tmp_path / "coin.json", {"coincidence": block})
        out = tmp_path / "run"
        assert main(["coincidence", "--config", config, "--out", str(out)]) == 0
        parsed = config_module.parse_coincidence(block)
        field = ps.heralded_field(parsed.times, 20.0, parsed.pdc, method=parsed.method)
        mol = parsed.molecule.system
        signal = ps.coincidence_signal(mol, ps.evolve_heralded(mol, field))
        _, _, rows = read_csv(out / "coincidence.csv")
        assert rows[:, 1].tobytes() == signal.tobytes()
        assert np.max(np.abs(rows[:, 1])) == 1.0

    def test_shipped_configs_all_parse(self):
        from pseudosun.config import (
            command_block,
            load_config,
            parse_heralded,
            parse_spectrum,
            parse_dynamics,
        )

        parse_spectrum(command_block(load_config(example_config("fig1")), "spectrum"))
        parse_dynamics(command_block(load_config(example_config("fig2")), "dynamics"))
        parse_heralded(command_block(load_config(example_config("fig3a")), "heralded"))
        parse_heralded(command_block(load_config(example_config("fig3b")), "heralded"))


class TestFitCommand:
    def test_fit_report_and_csv(self, tmp_path):
        from locks import FIG1_OBJECTIVE_BASELINE

        block = {
            "window": {"min": 15000.0, "max": 20000.0, "count": 501},
            "thermal": {"temperature": 5777.0},
            "initial": SMALL_PDC,
            "free_params": ["entanglement_time", "gain"],
            "bounds": {"entanglement_time": [0.5, 8.0], "gain": [0.01, 0.5]},
            "max_iters": 300,
            "tol": 1e-9,
        }
        config = write_config(tmp_path / "fit.json", {"fit": block})
        out = tmp_path / "run"
        assert main(["fit", "--config", config, "--out", str(out)]) == 0
        report = (out / "fit_report.txt").read_text()
        assert "converged: true" in report
        assert "trace:" in report
        objective = float(report.split("objective: ")[1].splitlines()[0])
        initial = float(report.split("initial_objective: ")[1].splitlines()[0])
        assert objective <= initial
        # starting from the reference parameters, the fit must not end worse
        # than the locked reference-parameter objective
        assert initial == pytest.approx(FIG1_OBJECTIVE_BASELINE, rel=1e-9)
        assert objective <= FIG1_OBJECTIVE_BASELINE * (1.0 + 1e-9)
        _, header, rows = read_csv(out / "fit_spectrum.csv")
        assert header == ["omega_cm1", "n_fit", "n_target"]
        assert rows.shape == (501, 3)

    def test_target_is_the_black_body_sampled_on_the_window(self):
        config = config_module.parse_fit(SMALL_FIT)
        expected = ps.thermal_mean(config.window, config.thermal)
        assert config.problem.target.grid == config.window
        assert config.problem.target.values.tobytes() == expected.values.tobytes()

    def test_zero_free_params_rejected(self, tmp_path):
        block = {
            "window": {"min": 15000.0, "max": 20000.0, "count": 11},
            "thermal": {"temperature": 5777.0},
            "initial": SMALL_PDC,
            "free_params": [],
            "bounds": {},
        }
        config = write_config(tmp_path / "fit.json", {"fit": block})
        assert main(["fit", "--config", config, "--out", str(tmp_path)]) == 2


class TestIOErrors:
    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        config = str(example_config("fig1"))
        code = main(["spectrum", "--config", config, "--out", str(blocker / "sub")])
        assert code == 4
        assert "blocker" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dynamics", "heralded", "coincidence"])
def test_overflow_is_one_numerical_failure_line(tmp_path, capsys, command):
    huge = {"levels": [{"energy": 18000.0, "dipole": 1e300}, {"energy": 18500.0, "dipole": 1.0}]}
    if command == "dynamics":
        block = small_dynamics_block(molecule=huge)
    else:
        block = dict(SMALL_EXACT, molecule=huge, herald_times=[10.0])
    if command == "coincidence":
        block["herald_time"] = block.pop("herald_times")[0]
    config = write_config(tmp_path / "huge.json", {command: block})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", config, "--out", str(out)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"numerical failure: {command}: overflow encountered in multiply\n"
    assert not out.exists()


def test_huge_time_step_is_one_numerical_failure_line(tmp_path, capsys):
    # A float's ** raised OverflowError on the squared 5e157 fs step: a traceback, exit 1.
    block = command_block(load_config(example_config("fig2")), "dynamics")
    block["times"] = {"min": 1e160, "max": 2e160, "count": 201}
    config = write_config(tmp_path / "huge_step.json", {"dynamics": block})
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dynamics", "--config", config, "--out", str(out)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err == "numerical failure: dynamics: overflow encountered in square\n"
    assert not out.exists()


class TestAllocatorThresholds:
    """main has glibc keep freed memory once per process; elsewhere it changes nothing."""

    @staticmethod
    def lacks_mallopt(name):
        return object()

    @staticmethod
    def cannot_load(name):
        raise OSError("no C library")

    @pytest.mark.parametrize("cdll", ["lacks_mallopt", "cannot_load"])
    def test_run_without_mallopt_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch, cdll):
        config = str(example_config("fig2"))
        tried = []

        def loader(name):
            tried.append(name)
            return getattr(self, cdll)(name)

        runs = []
        for out in (tmp_path / "with", tmp_path / "without"):
            assert main(["dynamics", "--config", config, "--out", str(out)]) == 0
            runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            cli._keep_freed_memory.cache_clear()
            monkeypatch.setattr(ctypes, "CDLL", loader)
        assert tried == [None]
        assert runs[0] == runs[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's mallopt")
    def test_only_main_sets_the_thresholds(self, tmp_path):
        code = """
import ctypes, sys
calls = []
libc = ctypes.CDLL(None)
class Recorder:
    def __init__(self, name):
        self.mallopt = lambda *args: calls.append(args) or libc.mallopt(*args)
ctypes.CDLL = Recorder
import pseudosun, pseudosun.cli
assert calls == [], calls
for out in ("a", "b"):
    assert pseudosun.cli.main(["spectrum", "--config", sys.argv[1], "--out", out]) == 0
print(calls)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code, str(example_config("fig1"))],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout == f"[(-1, {16 << 20}), (-3, {1 << 20})]\n"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
    def test_fig2_operation_page_faults_bounded(self, tmp_path):
        # At glibc's default thresholds a fig2 dynamics run faulted 400-1,250 times in
        # process after the first (3,846 for these five with the kernel cache alone), as
        # the heap top was trimmed after each trajectory and faulted in again; with the
        # thresholds main sets it faults 0-8 times.
        code = """
import resource, sys
from pseudosun.cli import main
args = ["dynamics", "--config", sys.argv[1], "--out"]
for k in range(3):
    assert main(args + [f"warm{k}"]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(5):
    assert main(args + [f"op{k}"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code, str(example_config("fig2"))],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        assert int(run.stdout) < 5 * 50


@pytest.mark.parametrize(
    "error, detail",
    [
        (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
        (MemoryError(), "allocation failed"),
    ],
    ids=["numpy", "bare"],
)
def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch, error, detail):
    def out_of_memory(block, seed):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "spectrum", out_of_memory)
    out = tmp_path / "run"
    assert main(["spectrum", "--config", str(example_config("fig1")), "--out", str(out)]) == 5
    assert capsys.readouterr().err == f"out of memory: spectrum: {detail}\n"
    assert not out.exists()


def test_parser_is_built_once_and_each_call_parses_its_own_arguments(tmp_path, monkeypatch):
    seen = []
    for command in ("spectrum", "dynamics"):
        def runner(block, seed, command=command):
            seen.append((command, block, seed))
            return []

        monkeypatch.setitem(cli._RUNNERS, command, runner)
    cli._build_parser.cache_clear()
    configs = {"spectrum": example_config("fig1"), "dynamics": example_config("fig2")}
    assert main(["spectrum", "--config", str(configs["spectrum"]), "--seed", "7"]) == 0
    assert main(["dynamics", "--config", str(configs["dynamics"]), "--out", str(tmp_path)]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert seen == [
        ("spectrum", load_config(configs["spectrum"])["spectrum"], 7),
        ("dynamics", load_config(configs["dynamics"])["dynamics"], None),
    ]
