"""Command-line entry point.

Subcommands
-----------
  validate        check a multiplier, group table, or representation bundle
  classify        classify the orbit of a vector under a representation
  commutant       commutant / generated algebra / center dimensions
  certify-pair    commuting + dual-pair certification for a pair spec
  verify-duality  all duality clauses for one vector under a pair
  sweep           seeded random + adversarial duality sweep over a pair
  dilate          complete a frame-sequence vector to a complete frame vector
  gabor           lattice info, adjoint lattice, optional window analysis

Reports are JSON (sweep --format csv: one summary row) and embed the tool
version, the flags read (a kind flag only if the --rep or --pair kind reads
it, at its serialize.REP_KINDS / PAIR_KINDS default), the tolerances applied
and any seed, so a run can be reproduced byte for byte.  Exit codes: 0 all
checks pass, 1 a mathematical inconsistency or counterexample, 2 invalid
input or configuration, such as a flag the kind does not read, 3 an internal
error (its traceback goes to stderr), 4 a randomized search out of tries.

Examples:
    framedual sweep --pair regular --group Z12 --multiplier trivial --n 200 --seed 7
    framedual classify --rep gabor --lattice 4,1,2 --window 1,0,1,0
    framedual validate --multiplier heisenberg --N 4
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
import traceback

import numpy as np

from . import __version__
from . import serialize
from .duality import PAIR_TOL, certify_dual_pair, duality_sweep, verify_duality
from .errors import FrameDualError, InvalidPairError, InvalidParameterError, SearchExhaustedError
from .frames import FLAG_TOL, ROUTE_TOL, classify, dilate_to_complete
from .gabor import adjoint_lattice, zak_transform
from .groups import UNIT_TOL, validate_multiplier
from .linalg import RANK_TOL
from .reps import REP_TOL, verify_rep

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_SEARCH_EXHAUSTED = 4

# Every tolerance flag with its library default.  Each subcommand takes only
# the ones its handler reads (build_parser); only those reach meta.tolerances.
TOLERANCES = {"rank_tol": RANK_TOL, "flag_tol": FLAG_TOL, "pair_tol": PAIR_TOL,
              "route_tol": ROUTE_TOL, "unit_tol": UNIT_TOL, "rep_tol": REP_TOL}
TOLERANCE_HELP = {"pair_tol": "gate on the largest entry of a generator commutator "
                              "pi(s) sigma(t) - sigma(t) pi(s) (default %(default)s)"}


def _parse_vector(text: str) -> np.ndarray:
    """Inline comma list ("1,0,1,0" with python complex literals allowed) or
    @file.json holding a vector document."""
    text = text.strip()
    if text.startswith("@"):
        return serialize.vector_from_json(_load_json(text[1:]))
    try:
        return np.array([complex(tok.strip().replace(" ", ""))
                         for tok in text.split(",") if tok.strip()], dtype=complex)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse vector {text!r}: {exc}") from exc


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _maybe_load_json_arg(text: str):
    """Pass "@file.json" through as parsed JSON, anything else unchanged."""
    if isinstance(text, str) and text.startswith("@"):
        return _load_json(text[1:])
    return text


# Each kind flag by its dest: the spec field it fills, its argparse type, how
# its text becomes the field's value, and its help.  Which kinds read a field,
# and its default, only serialize.REP_KINDS / PAIR_KINDS say.
KIND_FLAGS = {
    "group": ("group", None, _maybe_load_json_arg,
              "group label like Z12 or Z2xZ4, or @cayley.json"),
    "multiplier": ("multiplier", None, _maybe_load_json_arg, "trivial | heisenberg | @table.json"),
    "side": ("side", None, str, "left | right"),
    "lattice": ("lattice", None, str, "gabor lattice as N,a,b"),
    "N": ("n", int, int, "modulus for character reps"),
    "freqs": ("freqs", None, str, "comma list of character frequencies"),
    "rep_json": ("rep", None, _load_json, "bundle file for custom reps"),
    "pi_json": ("pi", None, _load_json, "bundle file of a custom pair's pi"),
    "sigma_json": ("sigma", None, _load_json, "bundle file of a custom pair's sigma"),
}


def _spec(args, selector: str, kinds: dict) -> dict:
    """The spec document of the --rep or --pair kind (selector) and the kind
    flags set.  A set flag the kind does not read is invalid input.  The
    flags the kind reads go back into args at their effective values, so
    meta.config echoes what the run used and nothing else."""
    given = {field: getattr(args, dest) for dest, (field, *_) in KIND_FLAGS.items()
             if getattr(args, dest, None) is not None}
    if getattr(args, selector) is not None:
        given["kind"] = getattr(args, selector)
    kind, fields = serialize.spec_fields(kinds, given)
    setattr(args, selector, kind)
    spec = {"kind": kind}
    for dest, (field, _, read, _) in KIND_FLAGS.items():
        if field in fields:
            setattr(args, dest, fields[field])
            spec[field] = read(fields[field])
    return spec


def _tolerances(args) -> dict:
    return {name: getattr(args, name) for name in TOLERANCES if hasattr(args, name)}


def _emit(args, command: str, result: dict, csv_rows=None) -> None:
    """Write the report, or the CSV rows in its place when given.  Volatile
    data (wall time) goes to stderr only, so reports for one configuration
    are byte-identical across runs."""
    report = {
        "meta": {
            "tool": "framedual",
            "version": __version__,
            "command": command,
            "seed": getattr(args, "seed", None),
            "tolerances": _tolerances(args),
            # jobs and output are execution details: the report content must
            # not depend on parallelism or destination
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "output", "jobs") and v is not None},
        },
        "result": result,
    }
    if csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    if args.rep_json:
        if (args.multiplier, args.group, args.N) != (None, None, None):
            raise InvalidParameterError("--rep-json takes no --multiplier, --group or --N")
        rep = serialize.rep_from_json(_load_json(args.rep_json))
        report = verify_rep(rep, tol=args.rep_tol)
        _emit(args, "validate", {"representation": serialize.report_to_json(report)})
        return EXIT_OK if report.passed else EXIT_INCONSISTENT
    if args.group is not None and args.N is not None:
        raise InvalidParameterError("give the group by --group or by --N, not both")
    group_spec = "Z4" if args.group is None else args.group
    if args.N is not None:
        group_spec = (f"Z{args.N}xZ{args.N}" if args.multiplier == "heisenberg"
                      else f"Z{args.N}")
    group = serialize.parse_group_spec(_maybe_load_json_arg(group_spec))
    result: dict = {"group": {"label": group.label, "order": group.order}}
    code = EXIT_OK
    if args.multiplier:
        mu = serialize.parse_multiplier_spec(group, _maybe_load_json_arg(args.multiplier))
        report = validate_multiplier(mu, tol=args.unit_tol)
        result["multiplier"] = serialize.report_to_json(report)
        if not report.passed:
            code = EXIT_INCONSISTENT
    _emit(args, "validate", result)
    return code


def _cmd_classify(args) -> int:
    rep = serialize.resolve_rep_spec(_spec(args, "rep", serialize.REP_KINDS))
    vec = _parse_vector(args.vector)
    cls = classify(rep, vec, rank_tol=args.rank_tol, flag_tol=args.flag_tol)
    _emit(args, "classify", {
        "representation": rep.label,
        "classification": serialize.report_to_json(cls),
    })
    return EXIT_OK


def _cmd_commutant(args) -> int:
    rep = serialize.resolve_rep_spec(_spec(args, "rep", serialize.REP_KINDS))
    ctr = rep.center(args.rank_tol)
    _emit(args, "commutant", {
        "representation": rep.label,
        "dim": rep.dim,
        "commutant_dim": rep.commutant_dim,
        "algebra_dim": rep.algebra_dim,
        "center_dim": ctr.dim,
        "is_factor": ctr.dim == 1,
    })
    return EXIT_OK


def _cmd_certify_pair(args) -> int:
    pi, sigma, label = serialize.resolve_pair_spec(_spec(args, "pair", serialize.PAIR_KINDS))
    report = certify_dual_pair(pi, sigma, seed=args.seed, n_samples=args.n,
                               tol=args.pair_tol, rank_tol=args.rank_tol,
                               flag_tol=args.flag_tol)
    _emit(args, "certify-pair", {
        "pair": label,
        "report": serialize.report_to_json(report),
    })
    return EXIT_OK if report.commuting.is_pair else EXIT_INCONSISTENT


def _cmd_verify_duality(args) -> int:
    pi, sigma, label = serialize.resolve_pair_spec(_spec(args, "pair", serialize.PAIR_KINDS))
    vec = _parse_vector(args.vector)
    verdict = verify_duality(pi, sigma, vec, rank_tol=args.rank_tol,
                             flag_tol=args.flag_tol, pair_tol=args.pair_tol)
    _emit(args, "verify-duality", {
        "pair": label,
        "verdict": serialize.report_to_json(verdict),
    })
    return EXIT_OK if verdict.theorem_consistent else EXIT_INCONSISTENT


def _cmd_sweep(args) -> int:
    pi, sigma, label = serialize.resolve_pair_spec(_spec(args, "pair", serialize.PAIR_KINDS))
    report = duality_sweep(pi, sigma, n_vectors=args.n, seed=args.seed,
                           rank_tol=args.rank_tol, flag_tol=args.flag_tol,
                           pair_tol=args.pair_tol, label=label)
    _emit(args, "sweep", serialize.report_to_json(report),
          csv_rows=serialize.sweep_report_to_csv_rows(report) if args.format == "csv" else None)
    return EXIT_OK if report.n_inconsistent == 0 else EXIT_INCONSISTENT


def _cmd_dilate(args) -> int:
    rep = serialize.resolve_rep_spec(_spec(args, "rep", serialize.REP_KINDS))
    vec = _parse_vector(args.vector)
    result = dilate_to_complete(rep, vec, mode=args.mode, seed=args.seed,
                                max_tries=args.max_tries, rank_tol=args.rank_tol,
                                flag_tol=args.flag_tol, route_tol=args.route_tol)
    _emit(args, "dilate", {
        "representation": rep.label,
        "method": "randomized search, certified per return",
        "dilation": serialize.report_to_json(result),
    })
    return EXIT_OK


def _cmd_gabor(args) -> int:
    if args.zak and not args.window:
        raise InvalidParameterError("--zak needs --window")
    lattice = serialize.parse_lattice_spec(args.lattice)
    adj = adjoint_lattice(lattice)
    result: dict = {
        "lattice": [lattice.n, lattice.a, lattice.b],
        "adjoint": [adj.n, adj.a, adj.b],
        "group_order": (lattice.n // lattice.a) * (lattice.n // lattice.b),
        "adjoint_group_order": lattice.a * lattice.b,
    }
    if args.window:
        window = _parse_vector(args.window)
        pi, sigma, label = serialize.resolve_pair_spec({"kind": "gabor", "lattice": args.lattice})
        verdict = verify_duality(pi, sigma, window, rank_tol=args.rank_tol,
                                 flag_tol=args.flag_tol, pair_tol=args.pair_tol)
        result["pair"] = label
        result["window_verdict"] = serialize.report_to_json(verdict)
        if args.zak:
            result["zak"] = serialize.matrix_to_json(zak_transform(window, lattice.a))
    code = EXIT_OK
    if args.window and not result["window_verdict"]["theorem_consistent"]:
        code = EXIT_INCONSISTENT
    _emit(args, "gabor", result)
    return code


def _add_common(parser: argparse.ArgumentParser, *tolerances: str, seed: bool = False) -> None:
    """Flags of every subcommand, --seed if it draws, and the named TOLERANCES."""
    parser.add_argument("--output", help="write the report to this path")
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    for name in tolerances:
        parser.add_argument("--" + name.replace("_", "-"), type=float, default=TOLERANCES[name],
                            help=TOLERANCE_HELP.get(name))
    parser.add_argument("--config", help="JSON file whose keys override these flags")


def _add_kind_args(parser: argparse.ArgumentParser, selector: str, kinds: dict) -> None:
    """--rep or --pair (selector), and the flag of each field its kinds read."""
    parser.add_argument("--" + selector, choices=tuple(kinds))
    fields = {field for defaults in kinds.values() for field in defaults}
    for dest, (field, flag_type, _, text) in KIND_FLAGS.items():
        if field in fields:
            parser.add_argument("--" + dest.replace("_", "-"), type=flag_type, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framedual",
        description="finite-dimensional frame duality workbench",
    )
    parser.add_argument("--version", action="version", version=f"framedual {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate multipliers, groups, or reps")
    p.add_argument("--multiplier")
    p.add_argument("--group")
    p.add_argument("--N", type=int)
    p.add_argument("--rep-json", dest="rep_json")
    _add_common(p, "unit_tol", "rep_tol")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="classify one orbit")
    _add_kind_args(p, "rep", serialize.REP_KINDS)
    p.add_argument("--vector", "--window", dest="vector", required=True)
    _add_common(p, "rank_tol", "flag_tol")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("commutant", help="commutant / algebra / center dimensions")
    _add_kind_args(p, "rep", serialize.REP_KINDS)
    _add_common(p, "rank_tol")
    p.set_defaults(func=_cmd_commutant)

    p = sub.add_parser("certify-pair", help="commuting + dual pair certification")
    _add_kind_args(p, "pair", serialize.PAIR_KINDS)
    p.add_argument("--n", type=int, default=50, help="search draws per witness")
    _add_common(p, "rank_tol", "flag_tol", "pair_tol", seed=True)
    p.set_defaults(func=_cmd_certify_pair)

    p = sub.add_parser("verify-duality", help="duality clauses for one vector")
    _add_kind_args(p, "pair", serialize.PAIR_KINDS)
    p.add_argument("--vector", required=True)
    _add_common(p, "rank_tol", "flag_tol", "pair_tol")
    p.set_defaults(func=_cmd_verify_duality)

    p = sub.add_parser("sweep", help="randomized duality sweep")
    _add_kind_args(p, "pair", serialize.PAIR_KINDS)
    p.add_argument("--n", type=int, default=200, help="random draws")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; vectors run serially")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(p, "rank_tol", "flag_tol", "pair_tol", seed=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("dilate", help="dilate to a complete frame vector")
    _add_kind_args(p, "rep", serialize.REP_KINDS)
    p.add_argument("--vector", required=True)
    p.add_argument("--mode", choices=("frame", "parseval"), default="frame")
    p.add_argument("--max-tries", type=int, default=5, dest="max_tries")
    _add_common(p, "rank_tol", "flag_tol", "route_tol", seed=True)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("gabor", help="lattice info and optional window analysis")
    p.add_argument("--lattice", required=True, help="N,a,b")
    p.add_argument("--window")
    p.add_argument("--zak", action="store_true", help="include the window's Zak transform")
    _add_common(p, "rank_tol", "flag_tol", "pair_tol")
    p.set_defaults(func=_cmd_gabor)

    return parser


def _config_value_ok(action: argparse.Action, value) -> bool:
    """Whether a JSON value could have come from the flag on the command
    line: a bool for a switch, a number of the flag's type (for a float
    flag, an integer only if it converts to a float), a string for an
    untyped flag, and one of its choices if it has any."""
    if action.nargs == 0:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if action.type is int:
        ok = isinstance(value, int)
    elif action.type is float:
        ok = isinstance(value, float) or (isinstance(value, int) and _converts_to_float(value))
    else:
        ok = isinstance(value, str)
    return ok and (action.choices is None or value in action.choices)


def _converts_to_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    if getattr(args, "config", None):
        overrides = _load_json(args.config)
        if not isinstance(overrides, dict):
            raise InvalidParameterError("config file must hold a JSON object")
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        actions = {a.dest: a for a in commands[args.command]._actions
                   if a.option_strings and a.dest != "help"}
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in actions:
                raise InvalidParameterError(f"unknown config key {key!r}")
            if not _config_value_ok(actions[attr], value):
                raise InvalidParameterError(
                    f"config key {key!r} has invalid value {value!r}")
            setattr(args, attr, value)


def _check_tolerances(args) -> None:
    """Every tolerance the subcommand takes must be finite and positive: a
    NaN gate passes nothing, an infinite one everything."""
    for name, value in _tolerances(args).items():
        if not (math.isfinite(value) and value > 0):
            raise InvalidParameterError(
                f"--{name.replace('_', '-')} must be finite and > 0, got {value!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process.  parse_args gives every call a fresh
    namespace, and _apply_config writes only into it, so calls share no
    state."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        _apply_config(parser, args)
        _check_tolerances(args)
        code = args.func(args)
    except (InvalidParameterError, InvalidPairError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"framedual: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchExhaustedError as exc:  # more tries may succeed: not a counterexample
        print(f"framedual: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SEARCH_EXHAUSTED
    except FrameDualError as exc:
        print(f"framedual: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Exception:  # neither bad input nor a counterexample: a fault of the program
        traceback.print_exc()
        print("framedual: internal error", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed = time.perf_counter() - started
    print(f"framedual: {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
