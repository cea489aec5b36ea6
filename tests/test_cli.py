import json
import pathlib
import re

import numpy as np
import pytest

from driftfv import cli
from driftfv.cli import (EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_INVARIANT,
                         EXIT_SOLVER, ConfigError, RunManifest, build_mesh,
                         build_problem, build_stepper_config, load_config,
                         main, reproduce_paper, write_vtk)
from driftfv.diagnostics import read_csv, write_csv
from driftfv.equilibrium import solve_equilibrium
from driftfv.mesh import build_cartesian
from driftfv.problem import (NO_RECOMBINATION, PRESET_CASES, PRESET_DOPINGS,
                             RecombinationModel, State, pn_junction_preset)
from driftfv.transient import BoundsTracker, StepperConfig, run

GOOD_CONFIG = """
[mesh]
type = cartesian
nx = 4
ny = 4
dirichlet = contacts

[physics]
law = isothermal
lambda2 = 1.0

[boundary]
n_bottom = 2.718281828459045
n_top = 1.0
p_bottom = 0.36787944117144233
p_top = 1.0

[time]
dt = 1e-2
t_end = 0.05

[solver]
fp_tol = 1e-10
"""


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "[mesh]\nshape = weird\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_missing_config_exits_2(capsys):
    assert main(["run", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "equilibrium"])
def test_unreadable_config_exits_2(tmp_path, capsys, command):
    # A directory cannot be read as a config: the read failure is reported,
    # not a missing key of an empty config.
    assert main([command, str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Is a directory" in err
    assert "missing required key" not in err


def test_default_section_exits_2(tmp_path, capsys):
    # configparser would merge [DEFAULT] into every section and blame its
    # keys on another one.
    cfg = "[DEFAULT]\nnx = 4\n" + GOOD_CONFIG
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: unknown config section [DEFAULT]\n"


def test_missing_mesh_file_exits_2(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace(
        "type = cartesian", "type = file\nfile = /nonexistent.mesh")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("alpha", ["1.0", "0.5", "nan"])
def test_power_law_alpha_not_above_one_exits_2(tmp_path, capsys, alpha):
    cfg = GOOD_CONFIG.replace("law = isothermal", f"law = power\nalpha = {alpha}")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: power law requires a finite alpha > 1" in err
    assert "Traceback" not in err


# Mesh file -> the start of its error.
_MALFORMED_MESH_FILES = {
    "nodes x\n": "mesh file: bad 'nodes' count",
    "nodes 3\n0 0\n1 0\n": "mesh file: ends early, node coordinates missing",
    # A node index out of range is import_triangulation's to report.
    "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 3\nboundary 0\n":
        "triangle 0 has node indices (0, 1, 3): each must be an integer in [0, 3)\n",
    "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3\n0 1 dirichlet\n":
        "mesh file: ends early, boundary side missing"}


@pytest.mark.parametrize("text", _MALFORMED_MESH_FILES)
def test_malformed_mesh_file_exits_2(tmp_path, capsys, text):
    mesh_path = _write(tmp_path, text, name="bad.mesh")
    cfg = GOOD_CONFIG.replace("type = cartesian", f"type = file\nfile = {mesh_path}")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + _MALFORMED_MESH_FILES[text])
    assert "Traceback" not in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(("# r\u00e9sum\u00e9\n" + GOOD_CONFIG).encode("latin-1"))
    assert main(["run", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot parse {path}: 'utf-8' codec")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bad_interpolation_exits_2(tmp_path, capsys):
    cfg = GOOD_CONFIG + f"\n[output]\ncsv = {tmp_path}/out%d.csv\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot parse ") and "'%d.csv'" in err
    assert "Traceback" not in err


def test_non_utf8_mesh_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.mesh"
    path.write_bytes(b"nodes 3\n0 0\n1 0\n0 1\xff\n")
    assert main(["reproduce", "--mesh", str(path), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mesh file: not UTF-8 text: 'utf-8' codec")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_mesh_file_exits_2(tmp_path, capsys, value):
    text = (f"nodes 3\n0 0\n{value} 1\n0 1\ntriangles 1\n0 1 2\n"
            "boundary 3\n0 1 dirichlet\n1 2 dirichlet\n0 2 dirichlet\n")
    mesh_path = _write(tmp_path, text, name="nonfinite.mesh")
    cfg = GOOD_CONFIG.replace("type = cartesian", f"type = file\nfile = {mesh_path}")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: non-finite node coordinates" in err
    assert "Traceback" not in err


def test_nonlinear_with_recombination_exits_3(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("law = isothermal", "law = power\nalpha = 1.6666666666666667")
    cfg = cfg.replace("n_bottom = 2.718281828459045", "n_bottom = 0.9")
    cfg = cfg.replace("p_bottom = 0.36787944117144233", "p_bottom = 0.1")
    cfg = cfg.replace("n_top = 1.0", "n_top = 0.1")
    cfg = cfg.replace("p_top = 1.0", "p_top = 0.9")
    cfg += "\n[recombination]\nkind = srh\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    assert "isothermal" in capsys.readouterr().err


@pytest.mark.parametrize("recombination, name", [
    ("kind = srh\ntau_n = -1\ntau_p = -1", "tau_n"),
    ("kind = srh\nscale = -5", "scale"),
    ("kind = srh\nscale = nan", "scale"),
    ("kind = srh\ntau_c = 0", "tau_c"),
    ("kind = auger\nc_n = -1", "c_n"),
    ("kind = auger\nc_n = nan", "c_n"),
    ("kind = auger\nc_p = inf", "c_p"),
    # The other model's parameters are checked too, and so are those given
    # with no recombination at all.
    ("kind = srh\nc_n = -1", "c_n"),
    ("kind = auger\ntau_c = 0", "tau_c"),
    ("kind = auger\nscale = -5", "scale"),
    ("kind = none\nscale = -5", "scale"),
    ("kind = none\ntau_c = 0", "tau_c")])
def test_bad_recombination_parameter_exits_3(tmp_path, capsys, recombination, name):
    # GOOD_CONFIG's contacts satisfy mass action, so only the parameter is at fault.
    cfg = GOOD_CONFIG + f"\n[recombination]\n{recombination}\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert f"hypothesis violation: recombination parameter {name} must be finite" in err


def test_zero_step_run_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "none.csv"
    cfg = GOOD_CONFIG.replace("t_end = 0.05", "t_end = 0")
    assert main(["run", _write(tmp_path, cfg), "--csv", str(csv_path)]) == EXIT_HYPOTHESIS
    assert "hypothesis violation: end time 0 gives no time step" in capsys.readouterr().err
    assert not csv_path.exists()


def test_zero_step_reproduce_exits_3(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["reproduce", "--outdir", str(outdir), "--nx", "4",
                 "--t-end", "0"]) == EXIT_HYPOTHESIS
    assert "hypothesis violation: end time 0 gives no time step" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_overflowing_step_count_run_exits_3(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("t_end = 0.05", "t_end = 1e308")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert err == ("hypothesis violation: end time 1e+308 over time step 0.01 "
                   "gives no finite step count\n")


@pytest.mark.parametrize("flag, value", [("--t-end", "1e308"), ("--dt", "1e-320")])
def test_overflowing_step_count_reproduce_exits_3(tmp_path, capsys, flag, value):
    outdir = tmp_path / "out"
    assert main(["reproduce", "--outdir", str(outdir), "--nx", "4",
                 flag, value]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "gives no finite step count" in err and "Traceback" not in err
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("flag", ["--nx", "--ny"])
def test_reproduce_rejects_an_empty_mesh_axis(tmp_path, capsys, flag):
    outdir = tmp_path / "out"
    assert main(["reproduce", "--outdir", str(outdir), flag, "0",
                 "--t-end", "0.01"]) == EXIT_CONFIG
    assert "configuration error: nx, ny must be >= 1" in capsys.readouterr().err
    assert not any(outdir.iterdir())


# Rows of the [time] and [solver] sections, whose ranges `equilibrium`
# checks as `run` does, though it takes no step.
_STEP_ROWS = [
    ("dt = 1e-2", "dt = nan", "time step"),
    ("dt = 1e-2", "dt = inf", "time step"),
    ("dt = 1e-2", "dt = -1", "time step"),
    ("t_end = 0.05", "t_end = 0.005",
     "end time 0.005 is shorter than the time step 0.01"),
    ("fp_tol = 1e-10", "fp_tol = nan", "fixed-point tolerance"),
    ("fp_tol = 1e-10", "fp_tol = -1", "fixed-point tolerance"),
    ("fp_tol = 1e-10", "fp_tol = 1e-10\nfp_max_iter = 0",
     "fixed-point iteration limit"),
    ("fp_tol = 1e-10", "fp_tol = 1e-10\nequilibrium_tol = nan",
     "equilibrium tolerance"),
    ("fp_tol = 1e-10", "fp_tol = 1e-10\nequilibrium_tol = -1",
     "equilibrium tolerance")]


def _exits_3(tmp_path, capsys, command, good, bad, message):
    cfg = GOOD_CONFIG.replace(good, bad)
    assert bad in cfg
    assert main([command, _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert f"hypothesis violation: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("good, bad, message", [
    ("lambda2 = 1.0", "lambda2 = 0", "lambda^2"),
    ("lambda2 = 1.0", "lambda2 = nan", "lambda^2"),
    ("lambda2 = 1.0", "lambda2 = -1", "lambda^2"),
    ("[solver]", "[initial]\nprofile = constant\nn = nan\np = 1.0\n\n[solver]",
     "density data"),
    ("[solver]", "[doping]\nkind = constant\nvalue = nan\n\n[solver]", "doping"),
    # h(0) = log 0 makes the isothermal contact potential infinite.
    ("n_top = 1.0", "n_top = 0.0", "Dirichlet potential"),
    *_STEP_ROWS])
def test_nonfinite_or_nonpositive_input_exits_3(tmp_path, capsys, good, bad, message):
    _exits_3(tmp_path, capsys, "run", good, bad, message)


@pytest.mark.parametrize("good, bad, message", _STEP_ROWS)
def test_equilibrium_checks_time_and_solver_ranges(tmp_path, capsys, good, bad, message):
    _exits_3(tmp_path, capsys, "equilibrium", good, bad, message)


def test_time_step_at_the_doping_limit_exits_3(tmp_path, capsys):
    # ||C||_inf = 1 and lambda^2 = 1: dt = 1 makes the upper bound infinite.
    cfg = GOOD_CONFIG.replace("[solver]", "[doping]\nkind = pn\n\n[solver]")
    cfg = cfg.replace("dt = 1e-2", "dt = 1.0").replace("t_end = 0.05", "t_end = 1.0")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "hypothesis violation: time step 1 must be below lambda^2/||C||_inf = 1" in err
    assert "Traceback" not in err


def test_stepper_settings_checked_before_equilibrium(tmp_path, monkeypatch, capsys):
    def no_equilibrium(*args, **kwargs):
        raise AssertionError("solve_equilibrium ran before the settings were checked")

    monkeypatch.setattr(cli, "solve_equilibrium", no_equilibrium)
    cfg = GOOD_CONFIG.replace("fp_tol = 1e-10", "fp_tol = nan")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    assert "hypothesis violation: fixed-point tolerance" in capsys.readouterr().err


def test_stepper_defaults_are_stepper_configs_own(tmp_path):
    text = GOOD_CONFIG.split("[time]")[0]
    assert build_stepper_config(load_config(_write(tmp_path, text))) == StepperConfig()
    cfg = load_config(_write(tmp_path, text + "[solver]\nfp_max_iter = 7\n"
                                        "check_m_matrices = yes\n"))
    assert build_stepper_config(cfg) == StepperConfig(fp_max_iter=7, check_m_matrices=True)


def _setting(section, key, value, *extra):
    """GOOD_CONFIG with ``key = value`` and the ``extra`` lines in [section]."""
    text = re.sub(rf"^{key} = .*\n", "", GOOD_CONFIG, flags=re.M)
    if f"[{section}]" not in text:
        text += f"\n[{section}]\n"
    lines = "".join(f"{line}\n" for line in (f"{key} = {value}", *extra))
    return text.replace(f"[{section}]\n", f"[{section}]\n{lines}")


@pytest.mark.parametrize("section, key, value, extra", [
    pytest.param(section, key, value, extra, id=f"{section}-{key}-{value}")
    for section, key, value, extra in [
        *[(section, key, "qq", ()) for section, casts in cli._SCHEMA.items()
          for key, cast in casts.items() if cast is not str],
        ("solver", "fp_max_iter", "7.5", ()),
        # Values this run would never read are checked all the same.
        ("physics", "alpha", "abc", ()),
        ("doping", "value", "xyz", ("kind = pn",))]])
def test_malformed_value_exits_2(tmp_path, capsys, section, key, value, extra):
    cfg = _setting(section, key, value, *extra)
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: bad value for [{section}] {key}: '{value}'\n"


def test_picard_budget_exhausted_exits_4(tmp_path, capsys):
    cfg = GOOD_CONFIG + "fp_max_iter = 1\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith(
        "solver failure: step 1: fixed point did not converge in 1 iterations")


def test_density_bound_violation_exits_5(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(BoundsTracker, "upper", lambda self, n: 0.5 * self.M)
    assert main(["run", _write(tmp_path, GOOD_CONFIG)]) == EXIT_INVARIANT
    assert capsys.readouterr().err.startswith(
        "invariant violation: step 1: density bounds")


def test_nonfinite_diagnostics_exit_5(tmp_path, capsys):
    # At lambda2 = 1e-300 the potential's energy overflows: E is inf from
    # the first record on, and no entropy check can hold or fail on it.
    cfg = GOOD_CONFIG.replace("lambda2 = 1.0", "lambda2 = 1e-300")
    with np.errstate(over="ignore"):
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_INVARIANT
    assert capsys.readouterr().err == (
        "invariant violation: step 0: non-finite diagnostics, entropy inf "
        "and production 0\n")


def test_density_bound_excess_with_doping_warns(tmp_path, monkeypatch):
    # With doping an excess over the bound envelope is reported, not fatal.
    monkeypatch.setattr(BoundsTracker, "upper", lambda self, n: 0.5 * self.M)
    cfg = GOOD_CONFIG.replace("[solver]", "[doping]\nkind = pn\n\n[solver]")
    with pytest.warns(RuntimeWarning, match="density bounds"):
        assert main(["run", _write(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("doping, t_end", [
    pytest.param("kind = pn", "0.4", id="pn"),
    pytest.param("kind = constant\nvalue = 5", "0.1", id="constant-5"),
    # The power in the upper bound M 10^n overflows at step 309.
    pytest.param("kind = constant\nvalue = 9", "3.2", id="constant-9")])
def test_doped_run_at_small_lambda2_finishes(tmp_path, doping, t_end):
    # dt ||C||/lambda^2 is 0.1, 0.5 and 0.9: the bound M^n grows fast, and a
    # penalty built from it made the Picard loop stall (exit 4).
    cfg = GOOD_CONFIG.replace("lambda2 = 1.0", "lambda2 = 0.1")
    cfg = cfg.replace("t_end = 0.05", f"t_end = {t_end}")
    cfg = cfg.replace("[solver]", f"[doping]\n{doping}\n\n[solver]")
    csv_path = tmp_path / "out.csv"
    assert main(["run", _write(tmp_path, cfg), "--csv", str(csv_path)]) == 0
    assert len(read_csv(csv_path)) == round(float(t_end) / 1e-2) + 1


def test_equilibrium_tolerance_is_the_solvers_own_unless_set(tmp_path, monkeypatch):
    tolerances = []

    def recording(problem, **kwargs):
        tolerances.append(kwargs.get("tol"))
        return solve_equilibrium(problem, **kwargs)

    monkeypatch.setattr(cli, "solve_equilibrium", recording)
    assert main(["equilibrium", _write(tmp_path, GOOD_CONFIG)]) == 0
    cfg = GOOD_CONFIG.replace("fp_tol = 1e-10", "equilibrium_tol = 1e-9")
    assert main(["equilibrium", _write(tmp_path, cfg)]) == 0
    assert tolerances == [None, 1e-9]


def _preset_config(preset):
    """INI text carrying the data of one preset."""
    law = preset.law
    rec = preset.recombination
    n_bottom, n_top = (float(preset.n_dirichlet(0.5, 0.0)),
                       float(preset.n_dirichlet(0.1, 1.0)))
    p_bottom, p_top = (float(preset.p_dirichlet(0.5, 0.0)),
                       float(preset.p_dirichlet(0.1, 1.0)))
    return "\n".join([
        "[mesh]", "nx = 6", "dirichlet = contacts",
        "[physics]",
        "law = isothermal" if law.is_isothermal else f"law = power\nalpha = {law.alpha!r}",
        f"lambda2 = {preset.lambda2!r}",
        "[boundary]", f"n_bottom = {n_bottom!r}", f"n_top = {n_top!r}",
        f"p_bottom = {p_bottom!r}", f"p_top = {p_top!r}",
        "[doping]", f"kind = {preset.doping_kind}",
        "[recombination]", f"kind = {rec.kind}", f"scale = {rec.scale!r}",
        f"tau_n = {rec.tau_n!r}", f"tau_p = {rec.tau_p!r}",
        f"tau_c = {rec.tau_c!r}", f"c_n = {rec.c_n!r}", f"c_p = {rec.c_p!r}", ""])


@pytest.mark.parametrize("section, model", [
    ("", NO_RECOMBINATION),
    ("[recombination]\nkind = srh\n", RecombinationModel("srh")),
    ("[recombination]\nkind = auger\n", RecombinationModel("auger")),
    ("[recombination]\nkind = auger\nc_p = 0.5\n",
     RecombinationModel("auger", c_p=0.5))])
def test_recombination_defaults_are_the_models_own(tmp_path, section, model):
    cfg = load_config(_write(tmp_path, GOOD_CONFIG + section))
    assert build_problem(cfg, build_mesh(cfg)).recombination == model


def test_unknown_recombination_kind_exits_2(tmp_path, capsys):
    cfg = GOOD_CONFIG + "[recombination]\nkind = shockley\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "unknown recombination model 'shockley'" in capsys.readouterr().err


@pytest.mark.parametrize("doping", PRESET_DOPINGS)
@pytest.mark.parametrize("case", PRESET_CASES)
def test_config_builds_the_preset_problem(tmp_path, case, doping):
    preset = pn_junction_preset(case, doping)
    cfg = load_config(_write(tmp_path, _preset_config(preset)))
    mesh = build_mesh(cfg)
    assert np.array_equal(mesh.edge_kind, build_cartesian(
        6, 6, dirichlet_predicate=preset.dirichlet_predicate).edge_kind)
    from_cli = build_problem(cfg, mesh)
    from_preset = preset.build(mesh)
    for name in ("doping", "n_dirichlet", "p_dirichlet", "psi_dirichlet",
                 "n_initial", "p_initial"):
        assert np.array_equal(getattr(from_cli, name), getattr(from_preset, name)), name
    for name in ("law", "lambda2", "recombination", "m", "M", "alpha_n",
                 "alpha_p", "experimental"):
        assert getattr(from_cli, name) == getattr(from_preset, name), name


def test_run_scenario_writes_csv(tmp_path):
    csv_path = tmp_path / "out.csv"
    code = main(["run", _write(tmp_path, GOOD_CONFIG), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 7  # header + n=0 + 5 steps
    assert lines[0].startswith("step,t,E,I,F,")


def test_run_row_count_matches_t_end(tmp_path):
    cfg = GOOD_CONFIG.replace("t_end = 0.05", "t_end = 0.2")
    csv_path = tmp_path / "rows.csv"
    assert main(["run", _write(tmp_path, cfg), "--csv", str(csv_path)]) == 0
    assert len(csv_path.read_text().splitlines()) == 22


def test_equilibrium_command(tmp_path, capsys):
    assert main(["equilibrium", _write(tmp_path, GOOD_CONFIG)]) == 0
    out = capsys.readouterr().out
    assert "Newton iterations" in out


def test_manifest(tmp_path):
    cfg = GOOD_CONFIG + f"\n[output]\ncsv = {tmp_path}/m.csv\nmanifest = {tmp_path}/m.json\n"
    assert main(["run", _write(tmp_path, cfg)]) == 0
    with open(tmp_path / "m.json") as f:
        manifest = json.load(f)
    assert manifest["run_id"]
    assert str(tmp_path / "m.csv") in manifest["outputs"]
    assert "transient" in manifest["timings"]
    # The echo holds the typed config, and reproduces the run id.
    assert manifest["config"]["solver"] == {"fp_tol": 1e-10}
    assert manifest["config"]["mesh"]["nx"] == 4
    assert RunManifest.for_config(manifest["config"]).run_id == manifest["run_id"]


def test_write_vtk_single_cell(tmp_path):
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(1, 1)
    path = tmp_path / "one.vtk"
    prob = preset.build(build_cartesian(
        1, 1, dirichlet_predicate=lambda x, y: y < 1e-12))
    state = State(np.array([1.0]), np.array([2.0]), np.array([0.5]))
    write_vtk(state, state, prob.mesh, path)
    text = path.read_text()
    assert "CELLS 1" in text
    assert text.count("SCALARS") == 6
    for name in ("N", "P", "Psi", "N_eq", "P_eq", "Psi_eq"):
        assert f"SCALARS {name} double 1" in text


def test_write_vtk_quad_connectivity(tmp_path):
    mesh = build_cartesian(2, 1)
    preset = pn_junction_preset("linear_r0", "zero")
    prob = preset.build(build_cartesian(
        2, 1, dirichlet_predicate=lambda x, y: y < 1e-12))
    state = State(np.ones(2), np.ones(2), np.zeros(2))
    path = tmp_path / "two.vtk"
    write_vtk(state, state, prob.mesh, path)
    lines = path.read_text().splitlines()
    i = lines.index("CELLS 2 10")
    assert lines[i + 1].split()[0] == "4"
    j = lines.index("CELL_TYPES 2")
    assert lines[j + 1] == "9" and lines[j + 2] == "9"


def test_reproduce_tiny(tmp_path, capsys):
    rows = reproduce_paper(str(tmp_path), nx=4, dt=2e-2, t_end=0.1)
    assert len(rows) == 10
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "summary.csv" in files
    assert len([f for f in files if f.endswith(".csv")]) == 11
    for row in rows:
        assert row["violations"] == 0
    experimental = [r for r in rows if r["experimental"]]
    assert {r["case"] for r in experimental} == {
        "nonlinear_degenerate_zero", "nonlinear_degenerate_pn"}
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.startswith("case,decay_rate,")


def test_reproduce_builds_the_mesh_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_cartesian(*args, **kwargs)

    monkeypatch.setattr(cli, "build_cartesian", counting_build)
    rows = reproduce_paper(str(tmp_path), nx=4, t_end=0.02)
    assert len(rows) == 10
    assert calls == [(4, 4)]


def test_vtk_every_snapshots(tmp_path):
    cfg = GOOD_CONFIG + f"\n[output]\nvtk = {tmp_path}/snap.vtk\n"
    assert main(["run", _write(tmp_path, cfg), "--vtk-every", "2"]) == 0
    snaps = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".vtk")
    assert snaps == ["snap_000000.vtk", "snap_000002.vtk", "snap_000004.vtk"]


def test_negative_vtk_every_exits_2(tmp_path, capsys):
    cfg = GOOD_CONFIG + f"\n[output]\nvtk = {tmp_path}/snap.vtk\n"
    with pytest.raises(SystemExit) as info:
        main(["run", _write(tmp_path, cfg), "--vtk-every", "-3"])
    assert info.value.code == EXIT_CONFIG
    assert "argument --vtk-every: must be >= 0, got -3" in capsys.readouterr().err
    assert not any(p.suffix == ".vtk" for p in tmp_path.iterdir())


def test_vtk_every_in_the_config_exits_2(tmp_path, capsys):
    # Snapshots are asked for on the command line only (--vtk-every); a
    # config key for them would be silently ignored, so it is refused.
    cfg = GOOD_CONFIG + f"\n[output]\nvtk = {tmp_path}/snap.vtk\nvtk_every = 2\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG
    assert "unknown key 'vtk_every' in section [output]" in capsys.readouterr().err
    assert not any(p.suffix == ".vtk" for p in tmp_path.iterdir())


def test_vtk_every_without_a_vtk_path_exits_2(tmp_path, monkeypatch, capsys):
    def no_equilibrium(*args, **kwargs):
        raise AssertionError("solve_equilibrium ran before --vtk-every was checked")

    monkeypatch.setattr(cli, "solve_equilibrium", no_equilibrium)
    assert main(["run", _write(tmp_path, GOOD_CONFIG), "--vtk-every", "2"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error: --vtk-every 2 needs an [output] vtk path\n"


def test_readme_config_example_runs(tmp_path):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    text = re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                     re.S).group(1)
    shrunk = {"nx = 32": "nx = 8", "ny = 32": "ny = 8", "t_end = 10.0": "t_end = 0.03",
              "csv = diagnostics.csv": f"csv = {tmp_path}/diagnostics.csv",
              "vtk = final.vtk": f"vtk = {tmp_path}/final.vtk",
              "manifest = run.json": f"manifest = {tmp_path}/run.json"}
    for old, new in shrunk.items():
        assert old in text
        text = text.replace(old, new)
    assert main(["run", _write(tmp_path, text)]) == 0
    assert len((tmp_path / "diagnostics.csv").read_text().splitlines()) == 5
    assert (tmp_path / "final.vtk").exists()
    with open(tmp_path / "run.json") as f:
        assert len(json.load(f)["outputs"]) == 3


DEGENERATE_CONFIG = """
[mesh]
nx = 16
dirichlet = contacts

[physics]
law = power
alpha = 1.6666666666666667

[boundary]
n_bottom = 1.0
n_top = 0.0
p_bottom = 0.0
p_top = 1.0

[doping]
kind = pn

[time]
dt = 0.01
t_end = 0.35
"""


def test_degenerate_run_stays_within_the_theory_budget(tmp_path):
    # Every step fits the theory-backed budget: the worst, step 34, takes
    # 150 Picard iterations.
    csv_path = tmp_path / "run.csv"
    assert main(["run", _write(tmp_path, DEGENERATE_CONFIG), "--csv", str(csv_path)]) == 0
    assert max(rec.fp_iters for rec in read_csv(csv_path)) <= 200


def test_degenerate_run_takes_the_experimental_budget(tmp_path):
    # No [solver] section: the Stepper sizes the Picard budget from the
    # problem, as for ``driftfv reproduce``.  At 32x32, step 41 needs more
    # than the theory-backed budget of 200 iterations.
    text = (DEGENERATE_CONFIG.replace("nx = 16", "nx = 32")
            .replace("t_end = 0.35", "t_end = 0.42"))
    csv_path = tmp_path / "run.csv"
    assert main(["run", _write(tmp_path, text), "--csv", str(csv_path)]) == 0
    # The preset as ``reproduce_paper`` runs it, on the same mesh and config.
    preset = pn_junction_preset("nonlinear_degenerate", "pn")
    mesh = build_cartesian(32, 32, dirichlet_predicate=preset.dirichlet_predicate)
    problem = preset.build(mesh)
    _, records = run(problem, StepperConfig(dt=0.01, t_end=0.42), solve_equilibrium(problem))
    want = tmp_path / "preset.csv"
    write_csv(records, want)
    assert csv_path.read_bytes() == want.read_bytes()
    assert max(rec.fp_iters for rec in read_csv(csv_path)) > 200
