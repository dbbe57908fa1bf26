"""Command line interface.

Exit codes: 0 = success and all checks passed, 1 = ran but a check
failed, 2 = bad usage or invalid input.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acs import (BUILTIN_FIELDS, check_identities, epsilon_estimate,
                  field_from_spec)
from .charts import PlaneChart
from .contact import ContactParams
from .foliation import (build_leaf, intersect, leaf_through_parallel,
                        leaf_through_polar)
from .lift import LIFT_TOL_FACTOR
from .scenarios import SCENARIOS, verify_scenario
from .solver import ContractionError, SolverConfig, solve_disk


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n")
    print(text)


def _field(args):
    if getattr(args, "config", None):
        spec = json.loads(Path(args.config).read_text())
        return field_from_spec(spec)
    return field_from_spec({"builtin": args.field,
                            "params": json.loads(args.field_params)})


def _solver_config(args) -> SolverConfig:
    return SolverConfig(n=args.grid, tol=args.tol,
                        params=ContactParams(r=args.r), seed=args.seed)


def _add_common(p, grid_default=65):
    p.add_argument("--config", help="JSON file with a field spec")
    p.add_argument("--field", default="standard",
                   choices=sorted(BUILTIN_FIELDS),
                   help="builtin coefficient field")
    p.add_argument("--field-params", default="{}",
                   help="JSON keyword arguments of the builtin field")
    p.add_argument("--grid", type=int, default=grid_default)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--r", type=float, default=1.0,
                   help="contact dilation parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report to this path")


def _cmd_acs_check(args) -> int:
    acs = _field(args)
    rng = np.random.default_rng(args.seed)
    rep = check_identities(acs, n_samples=args.samples, rng=rng,
                           tol=args.tol)
    report = {"command": "acs-check", "samples": args.samples,
              "seed": args.seed, "tol": args.tol,
              "epsilon_estimate": epsilon_estimate(acs, args.r),
              "checks": rep.checks, "pass": rep.passed}
    _emit(report, args.out)
    return 0 if rep.passed else 1


def _cmd_solve_disk(args) -> int:
    acs = _field(args)
    cfg = _solver_config(args)
    p = np.array(args.point)
    direction = np.array(args.direction)
    sol = solve_disk(p, direction, acs, cfg)
    report = {"command": "solve-disk", "point": args.point,
              "direction": args.direction, **sol.header()}
    ok = (sol.converged
          and sol.jinv_residual <= sol.jinv_tolerance)
    report["pass"] = ok
    if args.save:
        sol.ambient_patch().save(args.save)
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_foliate(args) -> int:
    acs = _field(args)
    cfg = _solver_config(args)
    leaf = build_leaf(args.kind, acs, PlaneChart(complex(args.x[0],
                                                         args.x[1])),
                      zeta_P=complex(args.zeta[0], args.zeta[1]),
                      t_max=args.t_max, t_count=args.t_count, cfg=cfg)
    report = {"command": "foliate", **leaf.header()}
    tol = LIFT_TOL_FACTOR * leaf.disks[0].h ** 2
    report["tolerance"] = tol
    report["pass"] = report["max_jinv_residual"] <= tol
    if args.save:
        leaf.save(args.save)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_leaf_of(args) -> int:
    acs = _field(args)
    cfg = _solver_config(args)
    q = np.array(args.q)
    if args.kind == "polar":
        res = leaf_through_polar(q, acs, cfg)
    else:
        res = leaf_through_parallel(
            q, PlaneChart(complex(args.x[0], args.x[1])), acs, cfg)
    report = {"command": "leaf-of", "kind": args.kind, **res.header()}
    report["pass"] = res.residual <= args.coverage_tol
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_intersect(args) -> int:
    acs = _field(args)
    cfg = _solver_config(args)
    leaf = build_leaf(args.kind, acs,
                      PlaneChart(complex(args.x[0], args.x[1])),
                      zeta_P=complex(args.zeta[0], args.zeta[1]),
                      t_max=args.t_max, t_count=args.t_count, cfg=cfg)
    sol = solve_disk(np.array(args.point), np.array(args.direction),
                     acs, cfg)
    rec = intersect(leaf, sol.ambient_patch())
    report = {"command": "intersect", "kind": args.kind,
              "found": rec is not None}
    if rec is not None:
        report.update(rec.header())
        report["pass"] = rec.sign > 0
    else:
        report["pass"] = False
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_verify_scenario(args) -> int:
    rng = np.random.default_rng(args.seed)
    report = verify_scenario(args.scenario, n_points=args.samples, rng=rng)
    report["command"] = "verify-scenario"
    report["seed"] = args.seed
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactfive",
        description="Anti-compatible almost complex structures on "
                    "contact R^5: identity checks, J-invariant "
                    "Legendrian disks, foliations, scenario campaigns.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("acs-check", help="sampled algebraic identities")
    _add_common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=_cmd_acs_check, tol=1e-10)

    p = sub.add_parser("solve-disk", help="J-invariant Legendrian disk")
    _add_common(p)
    p.add_argument("--point", type=float, nargs=5,
                   default=[0.0, 0.0, 0.0, 0.0, 0.0])
    p.add_argument("--direction", type=float, nargs=4,
                   default=[1.0, 0.0, 0.0, 0.0])
    p.add_argument("--save", help="directory for the patch CSV")
    p.set_defaults(func=_cmd_solve_disk)

    for name in ("foliate", "intersect"):
        p = sub.add_parser(name)
        _add_common(p, grid_default=25)
        p.add_argument("--kind", choices=("polar", "parallel"),
                       default="polar")
        p.add_argument("--x", type=float, nargs=2, default=[0.0, 0.0],
                       help="direction chart value (re, im)")
        p.add_argument("--zeta", type=float, nargs=2, default=[0.0, 0.0],
                       help="base point zeta = y1 + i x2 (parallel)")
        p.add_argument("--t-max", type=float, default=0.5)
        p.add_argument("--t-count", type=int, default=7)
        if name == "foliate":
            p.add_argument("--save", help="directory for the leaf data")
            p.set_defaults(func=_cmd_foliate)
        else:
            p.add_argument("--point", type=float, nargs=5,
                           default=[0.1, 0.0, 0.0, 0.1, 0.0])
            p.add_argument("--direction", type=float, nargs=4,
                           default=[0.0, 1.0, 0.0, 0.0])
            p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("leaf-of", help="leaf lookup through a point")
    _add_common(p, grid_default=25)
    p.add_argument("--kind", choices=("polar", "parallel"), default="polar")
    p.add_argument("--q", type=float, nargs=5, required=True)
    p.add_argument("--x", type=float, nargs=2, default=[0.0, 0.0])
    p.add_argument("--coverage-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_leaf_of)

    p = sub.add_parser("verify-scenario", help="pointwise campaigns")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_scenario)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ContractionError as exc:
        _emit({"command": args.command, "pass": False, "reason": str(exc)},
              args.out)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
