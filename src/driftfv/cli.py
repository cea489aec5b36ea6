"""Command-line front end: config-driven runs and the built-in test suite.

Configs are INI files (see README for the schema).  Exit codes: 0 success,
2 configuration error, 3 violated structural hypothesis, 4 solver failure,
5 violated discrete invariant.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from .constitutive import PressureLaw
from .equilibrium import solve_equilibrium
from .mesh import Mesh, MeshError, build_cartesian, read_mesh_file
from .problem import (PRESET_CASES, PRESET_DOPINGS, Problem, HypothesisError,
                      RecombinationModel, contact_predicate, diode_inputs,
                      pn_junction_preset)
from .sparse import SolverError
from .transient import InvariantError, StepperConfig, run

EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


# -- configuration ---------------------------------------------------------

_SECTIONS = {
    "mesh": {"type", "nx", "ny", "file", "dirichlet"},
    "physics": {"law", "alpha", "lambda2"},
    "boundary": {"n_bottom", "n_top", "p_bottom", "p_top"},
    "initial": {"profile", "n", "p"},
    "doping": {"kind", "value"},
    "recombination": {"kind", "scale", "tau_n", "tau_p", "tau_c", "c_n", "c_p"},
    "time": {"dt", "t_end"},
    "solver": {"fp_tol", "fp_max_iter", "check_m_matrices", "equilibrium_tol"},
    "output": {"csv", "vtk", "manifest"},
}


def load_config(path) -> dict:
    """Parse and validate an INI config into a plain nested dict."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as f:
        try:
            parser.read_file(f)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cfg = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        cfg[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cfg[section][key] = value
    return cfg


def _get(cfg, section, key, default=None, cast=str):
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return default
    try:
        if cast is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def build_mesh(cfg) -> Mesh:
    kind = _get(cfg, "mesh", "type", "cartesian")
    if kind == "cartesian":
        nx = _get(cfg, "mesh", "nx", 32, int)
        ny = _get(cfg, "mesh", "ny", nx, int)
        which = _get(cfg, "mesh", "dirichlet", "contacts")
        if which == "all":
            pred = None
        elif which == "contacts":
            pred = contact_predicate
        else:
            raise ConfigError(f"unknown dirichlet selector {which!r}")
        return build_cartesian(nx, ny, dirichlet_predicate=pred)
    if kind == "file":
        path = _get(cfg, "mesh", "file")
        if not os.path.exists(path):
            raise ConfigError(f"mesh file not found: {path}")
        return read_mesh_file(path)
    raise ConfigError(f"unknown mesh type {kind!r}")


def build_problem(cfg, mesh: Mesh) -> Problem:
    law_name = _get(cfg, "physics", "law", "isothermal")
    if law_name == "isothermal":
        law = PressureLaw.isothermal()
    elif law_name == "power":
        alpha = _get(cfg, "physics", "alpha", cast=float)
        try:
            law = PressureLaw.power(alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"unknown pressure law {law_name!r}")
    lambda2 = _get(cfg, "physics", "lambda2", 1.0, float)
    n0, n1, p0, p1 = (_get(cfg, "boundary", key, cast=float)
                      for key in ("n_bottom", "n_top", "p_bottom", "p_top"))

    # The model's own defaults stand for every parameter the config leaves out.
    params = {key: _get(cfg, "recombination", key, cast=float)
              for key in cfg.get("recombination", {}) if key != "kind"}
    try:
        recomb = RecombinationModel(
            _get(cfg, "recombination", "kind", "none"), **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # The diode's own data, then the config-only variants on top of it.
    dop_kind = _get(cfg, "doping", "kind", "zero")
    if dop_kind not in ("zero", "pn", "constant"):
        raise ConfigError(f"unknown doping kind {dop_kind!r}")
    inputs = diode_inputs(law, recomb, (n0, n1), (p0, p1),
                          doping="pn" if dop_kind == "pn" else "zero",
                          lambda2=lambda2)
    if dop_kind == "constant":
        c = _get(cfg, "doping", "value", cast=float)
        inputs.doping = lambda x, y: c

    profile = _get(cfg, "initial", "profile", "interpolate")
    if profile == "constant":
        nc = _get(cfg, "initial", "n", cast=float)
        pc = _get(cfg, "initial", "p", cast=float)
        inputs.n_initial = lambda x, y: nc
        inputs.p_initial = lambda x, y: pc
    elif profile != "interpolate":
        raise ConfigError(f"unknown initial profile {profile!r}")
    return inputs.build(mesh)


def build_stepper_config(cfg) -> StepperConfig:
    # StepperConfig's own defaults stand for every setting the config leaves out.
    cast = {"dt": float, "t_end": float, "fp_tol": float, "fp_max_iter": int,
            "check_m_matrices": bool}
    return StepperConfig(**{key: _get(cfg, section, key, cast=cast[key])
                            for section in ("time", "solver")
                            for key in cfg.get(section, {}) if key in cast})


def _solve_equilibrium(cfg, problem: Problem):
    """``solve_equilibrium``, whose own tolerance stands unless the config
    sets ``equilibrium_tol``."""
    if "equilibrium_tol" not in cfg.get("solver", {}):
        return solve_equilibrium(problem)
    return solve_equilibrium(problem, tol=_get(cfg, "solver", "equilibrium_tol", cast=float))


# -- outputs ---------------------------------------------------------------

_VTK_CELL_TYPES = {3: 5, 4: 9}  # triangle, quad


def write_vtk(state, eq, mesh: Mesh, path) -> None:
    """Legacy ASCII VTK unstructured grid with six cell-data arrays."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("drift-diffusion state\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(mesh.points)} double\n")
        for x, y in mesh.points:
            f.write(f"{x:.17g} {y:.17g} 0.0\n")
        size = mesh.cell_nodes.shape[1]
        if size not in _VTK_CELL_TYPES:
            raise MeshError(f"cannot export {size}-node cell to VTK")
        f.write(f"CELLS {mesh.n_cells} {(size + 1) * mesh.n_cells}\n")
        for nodes in mesh.cell_nodes:
            f.write(" ".join(map(str, (size, *nodes))) + "\n")
        f.write(f"CELL_TYPES {mesh.n_cells}\n")
        f.write(f"{_VTK_CELL_TYPES[size]}\n" * mesh.n_cells)
        f.write(f"CELL_DATA {mesh.n_cells}\n")
        arrays = (("N", state.n), ("P", state.p), ("Psi", state.psi),
                  ("N_eq", eq.n), ("P_eq", eq.p), ("Psi_eq", eq.psi))
        for name, values in arrays:
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in values:
                f.write(f"{v:.17g}\n")


@dataclass
class RunManifest:
    run_id: str
    config: dict
    outputs: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @classmethod
    def for_config(cls, cfg: dict) -> "RunManifest":
        digest = hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
        return cls(run_id=digest, config=cfg)

    def write(self, path) -> None:
        self.outputs.append(str(path))
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run_id": self.run_id, "config": self.config,
                       "outputs": self.outputs, "timings": self.timings},
                      f, indent=2, sort_keys=True)
            f.write("\n")


# -- commands --------------------------------------------------------------

@contextlib.contextmanager
def _timed(manifest, phase):
    t0 = time.perf_counter()
    yield
    manifest.timings[phase] = time.perf_counter() - t0


def _validate_steps(config: StepperConfig, problem: Problem) -> None:
    """``config.validate``, and at least one step: a command-line run of no
    step would write only the initial record."""
    config.validate(problem)
    if config.n_steps == 0:
        raise HypothesisError(f"end time {config.t_end:g} gives no time step")


def run_scenario(config_path, csv_override=None, vtk_every=0) -> RunManifest:
    cfg = load_config(config_path)
    manifest = RunManifest.for_config(cfg)
    with _timed(manifest, "setup"):
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        step_cfg = build_stepper_config(cfg)
        _validate_steps(step_cfg, problem)
    with _timed(manifest, "equilibrium"):
        eq = _solve_equilibrium(cfg, problem)

    vtk_base = cfg.get("output", {}).get("vtk")

    def snapshot(state):
        if not vtk_base or vtk_every <= 0 or state.step % vtk_every != 0:
            return
        root, ext = os.path.splitext(vtk_base)
        path = f"{root}_{state.step:06d}{ext or '.vtk'}"
        write_vtk(state, eq, mesh, path)
        manifest.outputs.append(path)

    with _timed(manifest, "transient"):
        final, records = run(problem, step_cfg, eq, state_sink=snapshot)
    csv_path = csv_override or cfg.get("output", {}).get("csv")
    if csv_path:
        diag.write_csv(records, csv_path)
        manifest.outputs.append(str(csv_path))
    if vtk_base and vtk_every <= 0:
        write_vtk(final, eq, mesh, vtk_base)
        manifest.outputs.append(str(vtk_base))
    manifest_path = cfg.get("output", {}).get("manifest")
    if manifest_path:
        manifest.write(manifest_path)
    return manifest


def run_equilibrium(config_path, vtk_path=None) -> RunManifest:
    cfg = load_config(config_path)
    manifest = RunManifest.for_config(cfg)
    with _timed(manifest, "setup"):
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
    with _timed(manifest, "equilibrium"):
        eq = _solve_equilibrium(cfg, problem)
    print(f"equilibrium: {eq.iterations} Newton iterations, "
          f"residual {eq.residual:.3e}")
    vtk_path = vtk_path or cfg.get("output", {}).get("vtk")
    if vtk_path:
        write_vtk(eq, eq, mesh, vtk_path)
        manifest.outputs.append(str(vtk_path))
    manifest_path = cfg.get("output", {}).get("manifest")
    if manifest_path:
        manifest.write(manifest_path)
    return manifest


def reproduce_paper(outdir, mesh_file=None, nx=32, ny=None, dt=StepperConfig.dt,
                    t_end=StepperConfig.t_end, fp_tol=StepperConfig.fp_tol) -> list:
    """Run all ten PN-junction preset cases and write CSVs plus a summary."""
    os.makedirs(outdir, exist_ok=True)
    # Every preset has the diode's contacts, so they all share one mesh.
    if mesh_file is not None:
        mesh = read_mesh_file(mesh_file)
    else:
        mesh = build_cartesian(nx, nx if ny is None else ny,
                               dirichlet_predicate=contact_predicate)
    config = StepperConfig(dt=dt, t_end=t_end, fp_tol=fp_tol)
    rows = []
    for case in PRESET_CASES:
        for doping in PRESET_DOPINGS:
            preset = pn_junction_preset(case, doping)
            problem = preset.build(mesh)
            _validate_steps(config, problem)
            eq = solve_equilibrium(problem)
            t0 = time.perf_counter()
            _, records = run(problem, config, eq)
            wall = time.perf_counter() - t0
            diag.write_csv(records, os.path.join(outdir, preset.name + ".csv"))
            violations = diag.check_entropy_chain(records, fp_tol)
            try:
                fit = diag.fit_decay_rate(records)
                rate, r2 = fit.rate, fit.r_squared
            except ValueError:
                rate, r2 = float("nan"), float("nan")
            rows.append({"case": preset.name, "rate": rate, "r_squared": r2,
                         "violations": len(violations),
                         "experimental": problem.experimental, "seconds": wall})
            print(f"{preset.name:32s} rate={rate:8.4f} R2={r2:.4f} "
                  f"violations={len(violations)}"
                  + ("  [experimental]" if problem.experimental else ""))
    _write_summary(os.path.join(outdir, "summary.csv"), rows)
    return rows


def _write_summary(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("case,decay_rate,r_squared,entropy_violations,experimental,seconds\n")
        for r in rows:
            f.write(f"{r['case']},{r['rate']:.6g},{r['r_squared']:.6g},"
                    f"{r['violations']},{int(r['experimental'])},{r['seconds']:.2f}\n")
        # Qualitative observation: doping barely shifts the decay rate.
        by_case = {}
        for r in rows:
            if not r["experimental"]:
                base = r["case"].rsplit("_", 1)[0]
                by_case.setdefault(base, []).append(r["rate"])
        for base, rates in sorted(by_case.items()):
            if len(rates) == 2 and all(np.isfinite(rates)):
                rel = abs(rates[0] - rates[1]) / max(abs(rates[0]), abs(rates[1]), 1e-30)
                f.write(f"# {base}: doped/undoped rate relative difference "
                        f"{rel:.3f}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftfv",
        description="Finite-volume drift-diffusion simulator with entropy "
                    "diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured scenario")
    p_run.add_argument("config")
    p_run.add_argument("--csv", default=None, help="override CSV output path")
    p_run.add_argument("--vtk-every", type=int, default=0)

    p_rep = sub.add_parser("reproduce", help="run the built-in test cases")
    p_rep.add_argument("--outdir", default="reproduction")
    p_rep.add_argument("--mesh", default=None, help="external triangulation file")
    p_rep.add_argument("--nx", type=int, default=32)
    p_rep.add_argument("--ny", type=int, default=None)
    p_rep.add_argument("--dt", type=float, default=StepperConfig.dt)
    p_rep.add_argument("--t-end", type=float, default=StepperConfig.t_end)

    p_eq = sub.add_parser("equilibrium", help="solve the equilibrium only")
    p_eq.add_argument("config")
    p_eq.add_argument("--vtk", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.vtk_every < 0:
        parser.error(f"argument --vtk-every: must be >= 0, got {args.vtk_every}")
    try:
        if args.command == "run":
            run_scenario(args.config, csv_override=args.csv,
                         vtk_every=args.vtk_every)
        elif args.command == "reproduce":
            reproduce_paper(args.outdir, mesh_file=args.mesh,
                            nx=args.nx, ny=args.ny, dt=args.dt, t_end=args.t_end)
        else:
            run_equilibrium(args.config, vtk_path=args.vtk)
    except (ConfigError, MeshError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return 0


if __name__ == "__main__":
    sys.exit(main())
