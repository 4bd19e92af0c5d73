"""Command-line front end.

Subcommands: solve (one weighted-rate maximization), trace-region
(boundary sweep), oracle (brute-force grid search), bench (random-
instance benchmark table).  Instances are JSON documents; results are
JSON on stdout or CSV files.  Outputs are deterministic for fixed
inputs and seeds once timing fields are suppressed with --no-timing.

Exit codes: 0 success, 1 invalid input (bad flags included) or runtime
failure, 2 solve ran but did not converge within the iteration cap
(results still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import warnings

import numpy as np

from .common import CommonInstance, solve_common
from .errors import GbcError, InvalidInputError, number
from .oracle import GridSpec, grid_search_common_scalar, grid_search_private_2x2, random_instance
from .private import Algorithm, SolveOptions, solve_private
from .psd import SYM_TOL, matrix, symmetrize
from .reduction import PrivateInstance
from .region import rates_common, rates_private, sweep_alpha_common, trace_region_private

_PRIVATE_ALGOS = {a.value: a for a in Algorithm}
# solve_common runs SPG or the paper's EGBA-P, which the options name GBA_P
_COMMON_ALGOS = {Algorithm.SPG.value: Algorithm.SPG, "egba-p": Algorithm.GBA_P}
_DEFAULT_ALGO = SolveOptions().algorithm


def _note(msg: str) -> None:
    print(f"note: {msg}", file=sys.stderr)


def _field(doc: dict, key: str, n: int | None = None):
    """The numeric field `key` of an instance file.  `n` is a whole
    number >= 1, returned as an int; with n given the field is an n x n
    matrix as gbc.psd.matrix reads it, returned symmetrized; any other
    field is one number as gbc.errors.number reads it, returned as a
    float."""
    if key not in doc:
        raise InvalidInputError(f"instance file is missing the {key!r} field")
    v = doc[key]
    if key == "n":
        rule = "n must be a whole number >= 1"
        if (size := number(v, rule, whole=True)) < 1:
            raise InvalidInputError(f"{rule}, got {v!r}")
        return size
    if n is None:
        return number(v, f"{key} must be a number")
    M = matrix(v, key, n)
    asym = float(np.max(np.abs(M - M.T)))
    if asym > SYM_TOL:
        _note(f"{key} asymmetry {asym:.3e} exceeds 1e-8; averaging with transpose")
    return symmetrize(M)


def load_instance(path: str) -> PrivateInstance | CommonInstance:
    """Load and validate a JSON instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidInputError("instance file must contain a JSON object")
    kind = doc.get("kind")
    if kind not in ("private", "common"):
        raise InvalidInputError(
            f"instance 'kind' must be 'private' or 'common', got {kind!r}"
        )
    n = _field(doc, "n")
    S1 = _field(doc, "Sigma1", n)
    S2 = _field(doc, "Sigma2", n)
    if kind == "private":
        inst = PrivateInstance(
            K=_field(doc, "K", n), Sigma1=S1, Sigma2=S2, lam=_field(doc, "lambda"),
        )
    else:
        inst = CommonInstance(
            K_C=_field(doc, "K_C", n), Sigma1=S1, Sigma2=S2,
            **{k: _field(doc, k) for k in ("lambda0", "lambda1", "lambda2", "alpha")},
        )
    inst.validate()
    return inst


def _mat(M: np.ndarray) -> list:
    return symmetrize(np.asarray(M, dtype=float)).tolist()


def _json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _emit(text: str, path: str | None) -> None:
    """Write text to stdout, or to the file at path when one is given,
    keeping its line ends as written."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_list(text: str, what: str, cast: type) -> list:
    try:
        vals = [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidInputError(f"could not parse {what} list {text!r}: {exc}")
    if not vals:
        raise InvalidInputError(f"{what} list is empty")
    return vals


def _solve_options(args, algorithm: Algorithm) -> SolveOptions:
    return SolveOptions(algorithm=algorithm, max_iters=args.max_iters,
                        rel_tol=args.rel_tol)


def _algorithm(name: str, inst) -> Algorithm:
    """The solver that `name` selects for this kind of instance."""
    if isinstance(inst, PrivateInstance):
        if name not in _PRIVATE_ALGOS:
            raise InvalidInputError(f"algorithm {name!r} requires a common instance")
        return _PRIVATE_ALGOS[name]
    if name not in _COMMON_ALGOS:
        raise InvalidInputError(f"algorithm {name!r} requires a private instance")
    return _COMMON_ALGOS[name]


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    name = args.algorithm or _DEFAULT_ALGO.value
    opts = _solve_options(args, _algorithm(name, inst))
    if isinstance(inst, PrivateInstance):
        rep = solve_private(inst, opts)
        K_U, K_V = rep.final_KU, inst.K - rep.final_KU
        pt = rates_private(K_U, inst)
        result = {"kind": "private", "iterations": int(rep.iterations)}
    else:
        rep = solve_common(inst, opts)
        K_U, K_V = rep.K_U, rep.K_V
        pt = rates_common(K_U, K_V, inst)
        result = {"kind": "common", "outer_passes": len(rep.step_rel_changes),
                  "inner_iterations": {"K_V": list(rep.inner_iterations[0]),
                                       "K_U": list(rep.inner_iterations[1])},
                  "K_W": _mat(rep.K_W)}
    result.update({
        "algorithm": name,
        "converged": bool(rep.converged),
        "objective": float(rep.objective),
        "kkt_residual": float(rep.kkt_residual),
        "K_U": _mat(K_U),
        "K_V": _mat(K_V),
        "rates": {"R0": pt.R0, "R1": pt.R1, "R2": pt.R2},
        "warnings": list(rep.warnings),
    })
    if not args.no_timing:
        result["elapsed_seconds"] = float(rep.elapsed_seconds)
    if args.trace_out:
        rows = [[str(i), repr(float(f))] for i, f in enumerate(rep.objective_trace)]
        header = ["iter", "objective"]
        if not isinstance(inst, PrivateInstance):
            # the outer passes' relative changes, solve_common's stop quantity
            header.append("step_rel_change")
            rels = ["", *(repr(float(r)) for r in rep.step_rel_changes)]
            rows = [row + [rel] for row, rel in zip(rows, rels)]
        _emit(_csv(header, rows), args.trace_out)
        _emit(_json(result), args.trace_out + ".json")
    _emit(_json(result), args.json_out)
    return 0 if rep.converged else 2


def cmd_trace_region(args) -> int:
    inst = load_instance(args.instance)
    # the parser admits exactly one of --lambdas and --alpha-grid
    private = args.lambdas is not None
    if private != isinstance(inst, PrivateInstance):
        flag, kind = ("--lambdas", "private") if private else ("--alpha-grid", "common")
        raise InvalidInputError(f"{flag} requires a {kind} instance")
    opts = _solve_options(args, _algorithm(args.algorithm, inst))

    if private:
        lams = _parse_list(args.lambdas, "lambda", float)
        if lams != sorted(lams):
            _note("lambda values were not ascending; output rows are sorted ascending")
        points = trace_region_private(inst, lams, opts)
        rows = []
        failed = False
        for pt in points:
            if pt.error:
                failed = True
                _note(f"lambda={pt.lambda_tag:g}: {pt.error}")
            rows.append([repr(float(pt.lambda_tag)), repr(pt.R1), repr(pt.R2),
                         repr(pt.objective), str(pt.iterations)])
        _emit(_csv(["lambda", "R1", "R2", "objective", "iterations"], rows),
              args.csv_out)
        return 2 if failed else 0

    alphas = _parse_list(args.alpha_grid, "alpha", float)
    if alphas != sorted(alphas):
        _note("alpha values were not ascending; output rows follow the input order")
    with warnings.catch_warnings():  # each skipped alpha gets one note below
        warnings.filterwarnings("ignore", "alpha=.* skipped", UserWarning)
        reports, argmin = sweep_alpha_common(inst, alphas, opts)
    rows = []
    failed = False
    nan = repr(float("nan"))
    for a, rep in zip(alphas, reports):
        if rep is None:
            failed = True
            _note(f"alpha={a:g} skipped: weight combination infeasible")
            rows.append([repr(inst.lambda0), nan, nan, nan,
                         repr(float(a)), nan, "0"])
            continue
        pt = rates_common(rep.K_U, rep.K_V, dataclasses.replace(inst, alpha=a))
        rows.append([repr(inst.lambda0), repr(pt.R1), repr(pt.R2),
                     repr(pt.R0), repr(float(a)), repr(float(rep.objective)),
                     str(len(rep.step_rel_changes))])
    _emit(_csv(["lambda", "R1", "R2", "R0", "alpha", "objective", "iterations"],
               rows), args.csv_out)
    summary = {"alpha_argmin": argmin.alpha, "weighted_rate": argmin.value}
    if args.csv_out:
        _emit(_json(summary), None)
    else:
        _note(f"alpha argmin {argmin.alpha:g} with weighted rate {argmin.value:.9g}")
    return 2 if failed else 0


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if isinstance(inst, PrivateInstance):
        spec = GridSpec(resolution=400 if args.resolution is None else args.resolution)
        res = grid_search_private_2x2(inst, spec)
    else:
        spec = GridSpec(resolution=2000 if args.resolution is None else args.resolution)
        res = grid_search_common_scalar(inst, spec)
    result = {
        "best_KU": _mat(res.best_KU),
        "best_objective": float(res.best_objective),
        "resolution_bound": float(res.resolution_bound),
        "resolution": spec.resolution,
    }
    if res.best_KV is not None:
        result["best_KV"] = _mat(res.best_KV)
    _emit(_json(result), args.json_out)
    return 0


def _bench_cell(n: int, seed: int, opts: SolveOptions, no_timing: bool) -> list[str]:
    name = opts.algorithm.value
    try:
        rep = solve_private(random_instance(n, seed, "private"), opts)
        iters, conv = rep.iterations, rep.converged
        secs, obj = rep.elapsed_seconds, rep.objective
    except GbcError as exc:
        _note(f"n={n} seed={seed} {name}: {exc}")
        iters, conv, secs, obj = 0, False, 0.0, float("nan")
    seconds = "" if no_timing else f"{secs:.6f}"
    return [str(n), str(seed), name, str(iters), str(bool(conv)), seconds,
            repr(float(obj))]


def cmd_bench(args) -> int:
    ns = _parse_list(args.n_list, "n", int)
    if any(n < 1 for n in ns):
        raise InvalidInputError("every n must be at least 1")
    seeds = _parse_list(args.seeds, "seed", int)
    if "," not in args.seeds:  # a single value is a seed count
        if seeds[0] < 1:
            raise InvalidInputError("seed count must be at least 1")
        seeds = list(range(seeds[0]))
    if min(seeds) < 0:
        raise InvalidInputError(f"every seed must be at least 0, got {min(seeds)}")
    names = [tok.strip() for tok in args.algorithms.split(",") if tok.strip()]
    for name in names:
        if name not in _PRIVATE_ALGOS:
            raise InvalidInputError(f"unknown benchmark algorithm {name!r}")
    if not names:
        raise InvalidInputError("algorithm list is empty")
    runs = [_solve_options(args, _PRIVATE_ALGOS[name]) for name in names]

    rows = [_bench_cell(n, seed, opts, args.no_timing)
            for n in ns for seed in seeds for opts in runs]
    rows.sort(key=lambda r: (int(r[0]), int(r[1]), r[2]))
    _emit(_csv(["n", "seed", "algorithm", "iterations", "converged",
                "seconds", "final_objective"], rows), args.csv_out)
    return 0


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=SolveOptions().rel_tol,
                   help="stopping tolerance: KKT residual for spg, relative "
                        "step for the others (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=SolveOptions().max_iters,
                   help="iteration cap (default %(default)s)")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InvalidInputError, so that main
    reports them as it does every other input error."""

    def error(self, message: str):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gbc",
        description="Boundary points of two-receiver Gaussian vector "
                    "broadcast-channel capacity regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one weighted-rate maximization")
    p.add_argument("instance", help="path to a JSON instance file")
    p.add_argument("--algorithm", choices=[*_PRIVATE_ALGOS, "egba-p"],
                   help=f"{'/'.join(_PRIVATE_ALGOS)} for private instances, "
                        f"{'/'.join(_COMMON_ALGOS)} for common "
                        f"(default {_DEFAULT_ALGO.value})")
    _add_solver_flags(p)
    p.add_argument("--trace-out", help="write per-iteration CSV here "
                                       "(JSON summary sidecar at PATH.json)")
    p.add_argument("--json-out", help="write the result JSON here instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="omit timing fields for byte-identical output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("trace-region", help="sweep weights and emit rate points")
    p.add_argument("instance", help="path to a JSON instance file")
    sweep = p.add_mutually_exclusive_group(required=True)
    sweep.add_argument("--lambdas", help="comma-separated lambda values (private)")
    sweep.add_argument("--alpha-grid", help="comma-separated alpha values (common)")
    p.add_argument("--algorithm", default=_DEFAULT_ALGO.value,
                   choices=[*_PRIVATE_ALGOS, "egba-p"],
                   help=f"{'/'.join(_PRIVATE_ALGOS)} with --lambdas, "
                        f"{'/'.join(_COMMON_ALGOS)} with --alpha-grid "
                        f"(default %(default)s)")
    _add_solver_flags(p)
    p.add_argument("--csv-out", help="write rate points here instead of stdout")
    p.set_defaults(func=cmd_trace_region)

    p = sub.add_parser("oracle", help="brute-force grid search (n=2 private, n=1 common)")
    p.add_argument("instance", help="path to a JSON instance file")
    p.add_argument("--resolution", type=int, default=None,
                   help="grid points per axis (default 400 private, 2000 common)")
    p.add_argument("--json-out", help="write the result JSON here instead of stdout")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="benchmark table over random instances")
    p.add_argument("--n-list", required=True,
                   help="comma-separated dimensions, e.g. 100,200,500")
    p.add_argument("--seeds", default="3",
                   help="seed count (single integer) or comma-separated seed list")
    p.add_argument("--algorithms", default=",".join(_PRIVATE_ALGOS),
                   help="comma-separated subset of %(default)s")
    _add_solver_flags(p)
    p.add_argument("--csv-out", help="write the table here instead of stdout")
    p.add_argument("--no-timing", action="store_true",
                   help="leave the seconds column empty for byte-identical output")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # json.JSONDecodeError is a ValueError
    except (GbcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
