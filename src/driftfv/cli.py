"""Command-line front end: config-driven runs and the built-in test suite.

Configs are INI files; ``_SCHEMA`` is their format and README documents it.
Exit codes: 0 success, 2 configuration error, 3 violated structural
hypothesis, 4 solver failure, 5 violated discrete invariant.
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

def _yes_no(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _choice(*values):
    return {value: value for value in values}.__getitem__


# Section -> key -> cast: the whole config format.  ``load_config`` casts every
# value it reads, so a malformed one is refused whether or not the run uses it.
# A cast refuses a value with ValueError (int, float) or KeyError (the rest).
_SCHEMA = {
    "mesh": {"type": _choice("cartesian", "file"), "nx": int, "ny": int,
             "file": str, "dirichlet": _choice("contacts", "all")},
    "physics": {"law": _choice("isothermal", "power"), "alpha": float,
                "lambda2": float},
    "boundary": dict.fromkeys(("n_bottom", "n_top", "p_bottom", "p_top"), float),
    "initial": {"profile": _choice("interpolate", "constant"), "n": float,
                "p": float},
    "doping": {"kind": _choice("zero", "pn", "constant"), "value": float},
    # RecombinationModel owns its kinds.
    "recombination": {"kind": str, **dict.fromkeys(
        ("scale", "tau_n", "tau_p", "tau_c", "c_n", "c_p"), float)},
    "time": {"dt": float, "t_end": float},
    "solver": {"fp_tol": float, "fp_max_iter": int, "check_m_matrices": _yes_no,
               "equilibrium_tol": float},
    "output": dict.fromkeys(("csv", "vtk", "manifest"), str),
}


def load_config(path) -> dict:
    """Parse an INI config into a nested dict of values cast by ``_SCHEMA``."""
    # No header can name the empty default section, so [DEFAULT] is an
    # ordinary (unknown) section instead of keys merged into every other one.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    with open(path, encoding="utf-8") as f:
        try:
            parser.read_file(f)
            # Reading a value interpolates it, which can fail too ('%' in a path).
            sections = {s: parser.items(s) for s in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cfg = {}
    for section, items in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        casts = _SCHEMA[section]
        cfg[section] = {}
        for key, raw in items:
            if key not in casts:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                cfg[section][key] = casts[key](raw)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return cfg


def _get(cfg, section, key, default=None):
    value = cfg.get(section, {}).get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return value


def build_mesh(cfg) -> Mesh:
    if _get(cfg, "mesh", "type", "cartesian") == "file":
        path = _get(cfg, "mesh", "file")
        if not os.path.exists(path):
            raise ConfigError(f"mesh file not found: {path}")
        return read_mesh_file(path)
    nx = _get(cfg, "mesh", "nx", 32)
    pred = (contact_predicate
            if _get(cfg, "mesh", "dirichlet", "contacts") == "contacts" else None)
    return build_cartesian(nx, _get(cfg, "mesh", "ny", nx), dirichlet_predicate=pred)


def build_problem(cfg, mesh: Mesh) -> Problem:
    law = PressureLaw.isothermal()
    if _get(cfg, "physics", "law", "isothermal") == "power":
        alpha = _get(cfg, "physics", "alpha")
        try:
            law = PressureLaw.power(alpha)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    lambda2 = _get(cfg, "physics", "lambda2", 1.0)
    n0, n1, p0, p1 = (_get(cfg, "boundary", key)
                      for key in ("n_bottom", "n_top", "p_bottom", "p_top"))

    # The model's own defaults stand for every parameter the config leaves out.
    params = dict(cfg.get("recombination", {}))
    try:
        recomb = RecombinationModel(params.pop("kind", "none"), **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # The diode's own data, then the config-only variants on top of it.
    dop_kind = _get(cfg, "doping", "kind", "zero")
    inputs = diode_inputs(law, recomb, (n0, n1), (p0, p1),
                          doping="pn" if dop_kind == "pn" else "zero",
                          lambda2=lambda2)
    if dop_kind == "constant":
        c = _get(cfg, "doping", "value")
        inputs.doping = lambda x, y: c

    if _get(cfg, "initial", "profile", "interpolate") == "constant":
        nc = _get(cfg, "initial", "n")
        pc = _get(cfg, "initial", "p")
        inputs.n_initial = lambda x, y: nc
        inputs.p_initial = lambda x, y: pc
    return inputs.build(mesh)


def build_stepper_config(cfg) -> StepperConfig:
    # StepperConfig's own defaults stand for every setting the config leaves out.
    settings = {**cfg.get("time", {}), **cfg.get("solver", {})}
    settings.pop("equilibrium_tol", None)
    return StepperConfig(**settings)


def _solve_equilibrium(cfg, problem: Problem):
    """``solve_equilibrium``, whose own tolerance stands unless the config
    sets ``equilibrium_tol``."""
    solver = cfg.get("solver", {})
    if "equilibrium_tol" not in solver:
        return solve_equilibrium(problem)
    return solve_equilibrium(problem, tol=solver["equilibrium_tol"])


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
    output = cfg.get("output", {})
    vtk_base = output.get("vtk")
    if vtk_every > 0 and not vtk_base:
        raise ConfigError(f"--vtk-every {vtk_every} needs an [output] vtk path")
    manifest = RunManifest.for_config(cfg)
    with _timed(manifest, "setup"):
        mesh = build_mesh(cfg)
        problem = build_problem(cfg, mesh)
        step_cfg = build_stepper_config(cfg)
        _validate_steps(step_cfg, problem)
    with _timed(manifest, "equilibrium"):
        eq = _solve_equilibrium(cfg, problem)

    def snapshot(state):
        if vtk_every <= 0 or state.step % vtk_every != 0:
            return
        root, ext = os.path.splitext(vtk_base)
        path = f"{root}_{state.step:06d}{ext or '.vtk'}"
        write_vtk(state, eq, mesh, path)
        manifest.outputs.append(path)

    with _timed(manifest, "transient"):
        final, records = run(problem, step_cfg, eq, state_sink=snapshot)
    csv_path = csv_override or output.get("csv")
    if csv_path:
        diag.write_csv(records, csv_path)
        manifest.outputs.append(str(csv_path))
    if vtk_base and vtk_every <= 0:
        write_vtk(final, eq, mesh, vtk_base)
        manifest.outputs.append(str(vtk_base))
    manifest_path = output.get("manifest")
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
                    t_end=StepperConfig.t_end) -> list:
    """Run all ten PN-junction preset cases and write CSVs plus a summary."""
    os.makedirs(outdir, exist_ok=True)
    # Every preset has the diode's contacts, so they all share one mesh.
    if mesh_file is not None:
        mesh = read_mesh_file(mesh_file)
    else:
        mesh = build_cartesian(nx, nx if ny is None else ny,
                               dirichlet_predicate=contact_predicate)
    config = StepperConfig(dt=dt, t_end=t_end)
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
            violations = diag.check_entropy_chain(records, config.fp_tol)
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
