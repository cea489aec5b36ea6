import numpy as np
import pytest

from driftfv import cli
from driftfv.cli import (EXIT_CONFIG, EXIT_HYPOTHESIS, ConfigError,
                         RunManifest, build_mesh, build_problem, load_config,
                         main, reproduce_paper, write_vtk)
from driftfv.equilibrium import solve_equilibrium
from driftfv.mesh import build_cartesian
from driftfv.problem import (PRESET_CASES, PRESET_DOPINGS, make_state,
                             pn_junction_preset)

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


def test_missing_mesh_file_exits_2(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace(
        "type = cartesian", "type = file\nfile = /nonexistent.mesh")
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_CONFIG


def test_nonlinear_with_recombination_exits_3(tmp_path, capsys):
    cfg = GOOD_CONFIG.replace("law = isothermal", "law = power\nalpha = 1.6666666666666667")
    cfg = cfg.replace("n_bottom = 2.718281828459045", "n_bottom = 0.9")
    cfg = cfg.replace("p_bottom = 0.36787944117144233", "p_bottom = 0.1")
    cfg = cfg.replace("n_top = 1.0", "n_top = 0.1")
    cfg = cfg.replace("p_top = 1.0", "p_top = 0.9")
    cfg += "\n[recombination]\nkind = srh\n"
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    assert "isothermal" in capsys.readouterr().err


@pytest.mark.parametrize("good, bad, message", [
    ("dt = 1e-2", "dt = nan", "time step"),
    ("dt = 1e-2", "dt = inf", "time step"),
    ("lambda2 = 1.0", "lambda2 = 0", "lambda^2"),
    ("lambda2 = 1.0", "lambda2 = nan", "lambda^2"),
    ("lambda2 = 1.0", "lambda2 = -1", "lambda^2"),
    ("[solver]", "[initial]\nprofile = constant\nn = nan\np = 1.0\n\n[solver]",
     "density data"),
    ("[solver]", "[doping]\nkind = constant\nvalue = nan\n\n[solver]", "doping"),
    # h(0) = log 0 makes the isothermal contact potential infinite.
    ("n_top = 1.0", "n_top = 0.0", "Dirichlet potential")])
def test_nonfinite_or_nonpositive_input_exits_3(tmp_path, capsys, good, bad, message):
    cfg = GOOD_CONFIG.replace(good, bad)
    assert bad in cfg
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert f"hypothesis violation: {message}" in err
    assert "Traceback" not in err


def _preset_config(preset):
    """INI text carrying the data of one preset."""
    law = preset.law
    rec = preset.recombination
    n_bottom, n_top = preset.n_dirichlet(0.5, 0.0), preset.n_dirichlet(0.1, 1.0)
    p_bottom, p_top = preset.p_dirichlet(0.5, 0.0), preset.p_dirichlet(0.1, 1.0)
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
    import json
    with open(tmp_path / "m.json") as f:
        manifest = json.load(f)
    assert manifest["run_id"]
    assert str(tmp_path / "m.csv") in manifest["outputs"]
    assert "transient" in manifest["timings"]
    # Config echo reproduces the run id.
    assert RunManifest.for_config(manifest["config"]).run_id == manifest["run_id"]


def test_write_vtk_single_cell(tmp_path):
    preset = pn_junction_preset("linear_r0", "zero")
    mesh = build_cartesian(1, 1)
    path = tmp_path / "one.vtk"
    prob = preset.build(build_cartesian(
        1, 1, dirichlet_predicate=lambda x, y: y < 1e-12))
    state = make_state(prob, [1.0], [2.0], [0.5])
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
    state = make_state(prob, [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
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
