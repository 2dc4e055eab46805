import dataclasses
import json
import os
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudosun as ps
from pseudosun import cli
from pseudosun.cli import main
from pseudosun import config as config_module
from pseudosun.config import COMMANDS, example_config, parse_heralded

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
        "command, config, seed",
        [
            ("spectrum", "fig1", None),
            ("fit", {"fit": SMALL_FIT}, None),
            ("dynamics", "fig2", None),
            ("heralded", "fig3a", None),
            (
                "heralded",
                {
                    "heralded": dict(
                        SMALL_EXACT,
                        herald_times=[10.0, 20.5],
                        average={"samples": 8, "sampling": "random", "pad": 5.0},
                    )
                },
                "7",
            ),
            ("coincidence", {"coincidence": dict(SMALL_EXACT, herald_time=20.0)}, None),
        ],
        ids=["fig1", "fit", "fig2", "fig3a", "exact-heralded-random-average", "exact-coincidence"],
    )
    def test_byte_identical_reruns(self, tmp_path, command, config, seed):
        if isinstance(config, str):
            path = str(example_config(config))
        else:
            path = write_config(tmp_path / "config.json", config)
        seed_args = [] if seed is None else ["--seed", seed]
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main([command, "--config", path, "--out", str(out), *seed_args]) == 0
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert runs[0] and runs[0] == runs[1]

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

    def test_oversized_integer_literal_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        block = {"grid": dict(GRID, max="BIG"), "pdc": SMALL_PDC, "thermal": SOLAR}
        path.write_text(json.dumps({"spectrum": block}).replace('"BIG"', "9" * 5000))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert str(path) in capsys.readouterr().err

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
            ("fit", dict(SMALL_FIT, max_iters=0), "fit.max_iters: must be >= 1, got 0"),
            ("fit", dict(SMALL_FIT, tol=0.0), "fit.tol: must be > 0, got 0.0"),
            (
                "fit",
                dict(SMALL_FIT, bounds={"entanglement_time": [8.0, 0.5], "gain": [0.01, 0.5]}),
                "fit: FitProblem: bounds for 'entanglement_time'",
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
        ],
    )
    def test_rejection_names_path(self, command, block, message):
        with pytest.raises(ps.ValidationError, match=re.escape(message)):
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

    def test_zero_signal_is_numerical_failure(self, tmp_path, capsys):
        # The rect pulse at 1000 fs never reaches the 0-20 fs window.
        block = dict(SMALL_HERALDED, herald_time=1000.0)
        del block["herald_times"]
        config = write_config(tmp_path / "coin.json", {"coincidence": block})
        out = tmp_path / "run"
        assert main(["coincidence", "--config", config, "--out", str(out)]) == 3
        assert "zero or non-finite" in capsys.readouterr().err
        assert not out.exists()

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
