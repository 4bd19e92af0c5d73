"""Print one SHA-256 over the reports of a fixed panel of solves.

    python3 tools/report_digest.py                          # ./src
    PYTHONPATH=OTHER/src python3 tools/report_digest.py     # another tree
    python3 tools/report_digest.py --fields > fields.txt    # every field

A change meant to keep every answer bit for bit prints the same digest
before and after it.  With --fields the tool prints, in place of the
digests, one line per field the digest covers: section, item index,
field path and the value's exact repr (a float's shortest round-trip
repr, one line per array element and per line of text).  So `diff` of
two trees' outputs names every field that moved, with both values.

The digest covers every field of every report except elapsed_seconds
(arrays by shape, dtype and bytes, floats by their bits, warnings and
error messages by text) for this panel:

- private solves at n = 1..5, full-rank and rank-deficient constraints,
  seeds 0 and 1, with SPG, GBA-P and GBA-A under three option sets;
- warm-started 8-lambda region traces, SPG and GBA-P;
- solve_common at n = 1..5 with SPG (full-rank and rank-deficient), and
  with EGBA-P at a loose tolerance;
- the four common-egba benchmark panel instances with EGBA-P at
  rel_tol=1e-3, thousands of inner steps each;
- n = 100 private solves with each algorithm, capped at a few steps;
- the outputs of `gbc solve`, `gbc trace-region` and `gbc bench` with
  --no-timing, including the --trace-out files (`iter,objective` for a
  private instance, plus `step_rel_change` for a common one) and the
  exit codes;
- private and common instances at n = 1..5 whose matrices are nested
  Python lists and whose weights are ints (lam = 2; lambda0..2 and
  alpha = 3, 1, 2, 1), solved with SPG and GBA-P (EGBA-P for common) and
  rated, so the digest covers how a list-valued matrix is read;
- degenerate budgets: private instances at n = 2 and 3 with K = 0,
  K = 1e-12 I and a rank-1 K, solved with each algorithm and then
  reduced twice (a zero K's error, after the channel slot has seen the
  channel), a 3-lambda trace over the zero channel, and solve_common
  with K_C = 0 and K_C = 1e-12 I, with SPG and EGBA-P.

A change that removes a report field or an output column moves the
digest by design.  It shows that every other bit held by hashing both
trees with that field or column left out: `feed` skipping the field,
and the CSV cut to the columns both trees write.

The package is imported from PYTHONPATH when it is there, else from the
src directory next to this script.  Per-section digests go to standard
error, so a mismatch can be traced to its section, and under each
section one digest per solver family: `spg` over its SPG items and
`fixed-point` over its GBA-P, GBA-A and EGBA-P items (items that run no
solver, the zero section's reductions, and the cli section, whose bench
runs both families in one output, are in the section digest only).  So
a change to the fixed-point maps can show that no SPG bit moved.  The
last line of standard output is the digest.  One BLAS thread is pinned
before numpy loads, so the run does not depend on the host's core count.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import gbc  # noqa: E402
from gbc import (  # noqa: E402
    Algorithm,
    GbcError,
    SolveOptions,
    random_instance,
    solve_common,
    solve_private,
    trace_region_private,
)
from gbc.cli import main as cli_main  # noqa: E402

ALGOS = (Algorithm.SPG, Algorithm.GBA_P, Algorithm.GBA_A)
LAMBDAS = tuple(np.linspace(1.25, 4.5, 8))
FAMILIES = ("spg", "fixed-point")


def family(algo: Algorithm) -> str:
    """The solver family of an algorithm: SPG, or the paper's fixed-point
    maps (GBA-P, GBA-A, and EGBA-P in solve_common)."""
    return "spg" if algo is Algorithm.SPG else "fixed-point"


def feed(h, obj) -> None:
    """Hash obj by type and value; dataclasses field by field, skipping
    elapsed_seconds."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name != "elapsed_seconds":
                h.update(f.name.encode())
                feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b"\0")
    elif isinstance(obj, bytes):
        h.update(b"b" + obj + b"\0")
    elif isinstance(obj, (tuple, list)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    elif obj is None:
        h.update(b"N")
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def fields(obj, path: str = ""):
    """(path, exact repr) of every value feed hashes in obj, in feed's
    order: array shapes and each element, a text's lines one by one."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name != "elapsed_seconds":
                yield from fields(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, np.ndarray):
        yield path, f"array {obj.dtype.str} {obj.shape}"
        for idx in np.ndindex(obj.shape):
            yield f"{path}{list(idx)}", repr(obj[idx].item())
    elif isinstance(obj, str) and "\n" in obj:
        for i, line in enumerate(obj.split("\n")):
            yield f"{path}<line {i}>", repr(line)
    elif isinstance(obj, (tuple, list)):
        yield path, f"{type(obj).__name__} of {len(obj)}"
        for i, item in enumerate(obj):
            yield from fields(item, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from fields(obj[key], f"{path}[{key!r}]")
    else:
        yield path, repr(obj.item() if isinstance(obj, np.generic) else obj)


def outcome(fn, *args):
    """fn(*args), or the type and message of the GbcError it raised."""
    try:
        return fn(*args)
    except GbcError as exc:
        return ("error", type(exc).__name__, str(exc))


def _init(r: int, seed: int) -> np.ndarray:
    """An interior r x r start: a random rotation of spread eigenvalues."""
    Q, _ = np.linalg.qr(np.random.default_rng(100 + seed).standard_normal((r, r)))
    return (Q * np.linspace(0.15, 0.85, r)) @ Q.T


def private_solves():
    for n in range(1, 6):
        for rank in sorted({n, max(1, n - 2)}, reverse=True):
            for seed in (0, 1):
                inst = random_instance(n, seed, rank=rank)
                option_sets = (
                    SolveOptions(),
                    SolveOptions(max_iters=30, rel_tol=1e-9),
                    SolveOptions(max_iters=200, rel_tol=1e-3, init=_init(rank, seed)),
                )
                for opts in option_sets:
                    for algo in ALGOS:
                        yield family(algo), outcome(
                            solve_private, inst, dataclasses.replace(opts, algorithm=algo))


def region_traces():
    for n, rank in ((2, None), (3, None), (4, 2)):
        for seed in range(3):
            base = random_instance(n, seed, rank=rank)
            for algo in (Algorithm.SPG, Algorithm.GBA_P):
                yield family(algo), outcome(trace_region_private, base, LAMBDAS,
                                            SolveOptions(algorithm=algo))


def common_solves():
    for n in range(1, 6):
        for rank in sorted({n, max(1, n - 2)}, reverse=True):
            for seed in (0, 1):
                inst = random_instance(n, seed, "common", rank=rank)
                for tol in (1e-3, 1e-6):
                    yield "spg", outcome(solve_common, inst, SolveOptions(rel_tol=tol))
    for n in (1, 2, 3):
        inst = random_instance(n, 0, "common")
        yield "fixed-point", outcome(solve_common, inst, SolveOptions(
            algorithm=Algorithm.GBA_P, rel_tol=3e-2, max_iters=5))


def egba_panel():
    for i in range(4):
        inst = random_instance((2, 3, 4, 2)[i], i, "common")
        yield "fixed-point", outcome(solve_common, inst,
                                     SolveOptions(algorithm=Algorithm.GBA_P, rel_tol=1e-3))


def large_solves():
    for seed in (0, 1):
        inst = random_instance(100, seed)
        for algo in ALGOS:
            yield family(algo), outcome(solve_private, inst,
                                        SolveOptions(algorithm=algo, max_iters=3))


def _instance_file(path: Path, inst) -> str:
    doc = {"n": inst.n, "Sigma1": inst.Sigma1.tolist(), "Sigma2": inst.Sigma2.tolist()}
    if isinstance(inst, gbc.PrivateInstance):
        doc.update(kind="private", K=inst.K.tolist(), **{"lambda": inst.lam})
    else:
        doc.update(kind="common", K_C=inst.K_C.tolist(), lambda0=inst.lambda0,
                   lambda1=inst.lambda1, lambda2=inst.lambda2, alpha=inst.alpha)
    path.write_text(json.dumps(doc))
    return str(path)


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        priv = _instance_file(tmp / "private.json", random_instance(3, 5))
        comm = _instance_file(tmp / "common.json", random_instance(3, 5, "common"))
        trace = str(tmp / "trace.csv")
        runs = [
            ["solve", priv, "--no-timing"],
            ["solve", priv, "--no-timing", "--algorithm", "gba-a",
             "--trace-out", trace],
            ["solve", comm, "--no-timing", "--trace-out", trace],
            ["solve", comm, "--no-timing", "--algorithm", "egba-p",
             "--rel-tol", "3e-2", "--max-iters", "5"],
            ["trace-region", priv, "--lambdas", "1.5,2,3,5"],
            ["trace-region", comm, "--alpha-grid", "0.25,0.5,1"],
            ["bench", "--n-list", "3,8", "--seeds", "2", "--no-timing"],
        ]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            Path(trace).unlink(missing_ok=True)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            files = [p.read_text() for p in (Path(trace), Path(trace + ".json"))
                     if p.exists()]
            # the file names vary with the temporary directory
            yield None, ([a for a in argv if not a.startswith(str(tmp))], code,
                         out.getvalue(), err.getvalue().replace(str(tmp), ""), files)


def list_instances():
    for n in range(1, 6):
        p = random_instance(n, 0)
        c = random_instance(n, 0, "common")
        priv = gbc.PrivateInstance(*(M.tolist() for M in (p.K, p.Sigma1, p.Sigma2)), 2)
        comm = gbc.CommonInstance(*(M.tolist() for M in (c.K_C, c.Sigma1, c.Sigma2)),
                                  3, 1, 2, 1)
        for algo in (Algorithm.SPG, Algorithm.GBA_P):
            rep = solve_private(priv, SolveOptions(algorithm=algo))
            yield family(algo), (rep, gbc.rates_private(rep.final_KU, priv))
            rep = solve_common(comm, SolveOptions(algorithm=algo, rel_tol=1e-3))
            yield family(algo), (rep, gbc.rates_common(rep.K_U, rep.K_V, comm))


def zero_budgets():
    for n in (2, 3):
        p = random_instance(n, 0)
        c = random_instance(n, 0, "common")
        budgets = (np.zeros((n, n)), 1e-12 * np.eye(n), random_instance(n, 0, rank=1).K)
        for K in budgets:
            inst = dataclasses.replace(p, K=K)
            for algo in ALGOS:
                yield family(algo), outcome(solve_private, inst,
                                            SolveOptions(algorithm=algo))
            for _ in range(2):
                yield None, outcome(gbc.reduce, inst)
        yield "spg", outcome(trace_region_private, dataclasses.replace(p, K=budgets[0]),
                             (1.5, 2.0, 3.0))
        for K_C in budgets[:2]:
            for algo in (Algorithm.SPG, Algorithm.GBA_P):
                yield family(algo), outcome(solve_common, dataclasses.replace(c, K_C=K_C),
                                            SolveOptions(algorithm=algo))


SECTIONS = (
    ("private", private_solves),
    ("region", region_traces),
    ("common", common_solves),
    ("egba", egba_panel),
    ("large", large_solves),
    ("cli", cli_outputs),
    ("lists", list_instances),
    ("zero", zero_budgets),
)


def main(argv: list[str]) -> int:
    print(f"gbc from {Path(gbc.__file__).parent}", file=sys.stderr)
    if argv == ["--fields"]:
        for name, section in SECTIONS:
            for i, (_, item) in enumerate(section()):
                for path, value in fields(item):
                    print(f"{name} {i} {path or '.'} {value}")
        return 0
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for name, section in SECTIONS:
        h = hashlib.sha256()
        count = 0
        # family -> [hash, item count]; each section item is hashed into
        # the section digest as before and into its family's digest
        parts = {f: [hashlib.sha256(), 0] for f in FAMILIES}
        for fam, item in section():
            feed(h, item)
            count += 1
            if fam is not None:
                feed(parts[fam][0], item)
                parts[fam][1] += 1
        print(f"{name:8s} {count:4d} {h.hexdigest()}", file=sys.stderr)
        for fam, (fh, fcount) in parts.items():
            if fcount:
                print(f"  {fam:12s} {fcount:4d} {fh.hexdigest()}", file=sys.stderr)
        total.update(h.digest())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
