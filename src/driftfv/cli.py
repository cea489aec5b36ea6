"""Command-line front end: config-driven runs and the built-in test suite.

Configs are INI files (see README for the schema).  Exit codes: 0 success,
2 configuration error, 3 violated structural hypothesis, 4 solver failure,
5 violated discrete invariant.
"""
from __future__ import annotations

import argparse
import configparser
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
from .problem import (NO_RECOMBINATION, PRESET_CASES, PRESET_DOPINGS, Problem,
                      HypothesisError, RecombinationModel, contact_predicate,
                      diode_inputs, pn_junction_preset)
from .sparse import SolverError
from .transient import InvariantError, StepperConfig, run

EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5


class ConfigError(ValueError):
    """Malformed or inconsistent configuration file."""


def _apply_thread_cap() -> None:
    cap = os.environ.get("DRIFTFV_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


# -- configuration ---------------------------------------------------------

_SECTIONS = {
    "mesh": {"type", "nx", "ny", "file", "dirichlet"},
    "physics": {"law", "alpha", "lambda2"},
    "boundary": {"n_bottom", "n_top", "p_bottom", "p_top"},
    "initial": {"profile", "n", "p"},
    "doping": {"kind", "value"},
    "recombination": {"kind", "scale", "tau_n", "tau_p", "tau_c", "c_n", "c_p"},
    "time": {"dt", "t_end"},
    "solver": {"fp_tol", "fp_max_iter", "damping", "check_m_matrices",
               "equilibrium_tol"},
    "output": {"csv", "vtk", "vtk_every", "manifest"},
}


def load_config(path) -> dict:
    """Parse and validate an INI config into a plain nested dict."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
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
        law = PressureLaw.power(_get(cfg, "physics", "alpha", cast=float))
    else:
        raise ConfigError(f"unknown pressure law {law_name!r}")
    lambda2 = _get(cfg, "physics", "lambda2", 1.0, float)
    n0, n1, p0, p1 = (_get(cfg, "boundary", key, cast=float)
                      for key in ("n_bottom", "n_top", "p_bottom", "p_top"))

    rec_kind = _get(cfg, "recombination", "kind", "none")
    if rec_kind == "none":
        recomb = NO_RECOMBINATION
    elif rec_kind == "srh":
        recomb = RecombinationModel(
            "srh", scale=_get(cfg, "recombination", "scale", 10.0, float),
            tau_n=_get(cfg, "recombination", "tau_n", 1.0, float),
            tau_p=_get(cfg, "recombination", "tau_p", 1.0, float),
            tau_c=_get(cfg, "recombination", "tau_c", 1.0, float))
    elif rec_kind == "auger":
        recomb = RecombinationModel(
            "auger", c_n=_get(cfg, "recombination", "c_n", 0.1, float),
            c_p=_get(cfg, "recombination", "c_p", 0.1, float))
    else:
        raise ConfigError(f"unknown recombination kind {rec_kind!r}")

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
    return StepperConfig(
        dt=_get(cfg, "time", "dt", 1e-2, float),
        t_end=_get(cfg, "time", "t_end", 10.0, float),
        fp_tol=_get(cfg, "solver", "fp_tol", 1e-10, float),
        fp_max_iter=_get(cfg, "solver", "fp_max_iter", 200, int),
        damping=_get(cfg, "solver", "damping", 1.0, float),
        check_m_matrices=_get(cfg, "solver", "check_m_matrices", False, bool))


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
        sizes = [len(nodes) for nodes in mesh.cell_nodes]
        f.write(f"CELLS {mesh.n_cells} {sum(sizes) + mesh.n_cells}\n")
        for nodes in mesh.cell_nodes:
            f.write(" ".join(str(v) for v in (len(nodes),) + tuple(nodes)) + "\n")
        f.write(f"CELL_TYPES {mesh.n_cells}\n")
        for s in sizes:
            if s not in _VTK_CELL_TYPES:
                raise MeshError(f"cannot export {s}-node cell to VTK")
            f.write(f"{_VTK_CELL_TYPES[s]}\n")
        f.write(f"CELL_DATA {mesh.n_cells}\n")
        arrays = (("N", state.n.cell_values), ("P", state.p.cell_values),
                  ("Psi", state.psi.cell_values), ("N_eq", eq.n.cell_values),
                  ("P_eq", eq.p.cell_values), ("Psi_eq", eq.psi.cell_values))
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

def _timed(manifest, phase):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()

        def __exit__(self, *exc):
            manifest.timings[phase] = time.perf_counter() - self.t0

    return _Timer()


def run_scenario(config_path, csv_override=None, vtk_every=0) -> RunManifest:
    cfg = load_config(config_path)
    manifest = RunManifest.for_config(cfg)
    with _timed(manifest, "setup"):
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        step_cfg = build_stepper_config(cfg)
    with _timed(manifest, "equilibrium"):
        eq = solve_equilibrium(
            problem, tol=_get(cfg, "solver", "equilibrium_tol", 1e-10, float))

    vtk_base = cfg.get("output", {}).get("vtk")
    eq_state = eq.as_state()

    def snapshot(state):
        if not vtk_base or vtk_every <= 0 or state.step % vtk_every != 0:
            return
        root, ext = os.path.splitext(vtk_base)
        path = f"{root}_{state.step:06d}{ext or '.vtk'}"
        write_vtk(state, eq_state, mesh, path)
        manifest.outputs.append(path)

    with _timed(manifest, "transient"):
        final, records = run(problem, step_cfg, eq, state_sink=snapshot)
    csv_path = csv_override or cfg.get("output", {}).get("csv")
    if csv_path:
        diag.write_csv(records, csv_path)
        manifest.outputs.append(str(csv_path))
    if vtk_base and vtk_every <= 0:
        write_vtk(final, eq_state, mesh, vtk_base)
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
        eq = solve_equilibrium(
            problem, tol=_get(cfg, "solver", "equilibrium_tol", 1e-10, float))
    print(f"equilibrium: {eq.iterations} Newton iterations, "
          f"residual {eq.residual:.3e}")
    vtk_path = vtk_path or cfg.get("output", {}).get("vtk")
    if vtk_path:
        write_vtk(eq.as_state(), eq.as_state(), mesh, vtk_path)
        manifest.outputs.append(str(vtk_path))
    manifest_path = cfg.get("output", {}).get("manifest")
    if manifest_path:
        manifest.write(manifest_path)
    return manifest


def reproduce_paper(outdir, mesh_file=None, nx=32, ny=None, dt=1e-2,
                    t_end=10.0, fp_tol=1e-10) -> list:
    """Run all ten PN-junction preset cases and write CSVs plus a summary."""
    os.makedirs(outdir, exist_ok=True)
    # Every preset has the diode's contacts, so they all share one mesh.
    if mesh_file is not None:
        mesh = read_mesh_file(mesh_file)
    else:
        mesh = build_cartesian(nx, ny or nx, dirichlet_predicate=contact_predicate)
    rows = []
    for case in PRESET_CASES:
        for doping in PRESET_DOPINGS:
            preset = pn_junction_preset(case, doping)
            problem = preset.build(mesh)
            eq = solve_equilibrium(problem)
            # Degenerate (experimental) cases push densities to machine zero
            # at the empty contacts and converge more slowly per step.
            config = StepperConfig(
                dt=dt, t_end=t_end, fp_tol=fp_tol,
                fp_max_iter=2000 if problem.experimental else 200)
            t0 = time.perf_counter()
            _, records = run(problem, config, eq)
            wall = time.perf_counter() - t0
            diag.write_csv(records, os.path.join(outdir, preset.name + ".csv"))
            violations = diag.check_entropy_chain(records, fp_tol)
            try:
                fit = diag.fit_decay_rate(records, floor=1e-10 * records[0].entropy)
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
    p_rep.add_argument("--dt", type=float, default=1e-2)
    p_rep.add_argument("--t-end", type=float, default=10.0)

    p_eq = sub.add_parser("equilibrium", help="solve the equilibrium only")
    p_eq.add_argument("config")
    p_eq.add_argument("--vtk", default=None)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
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
