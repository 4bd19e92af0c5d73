"""gbc._lapack, the package's one way into LAPACK.

Each kernel must give numpy.linalg's bits and numpy.linalg's errors on
every operand the package hands it: single matrices and stacks, r = 0
to 100, singular, non-PD and NaN-holding inputs.  The guard reads the
package's sources and fails when a module other than gbc._lapack calls
a numpy.linalg decomposition, reaches numpy's gufuncs itself, or binds
a kernel where a patch of gbc._lapack would not reach it.
"""

import ast
import pathlib

import numpy as np
import pytest

from gbc import _lapack

SIZES = [0, 1, 2, 3, 8, 32, 100]
KERNELS = ("eigh", "eigvalsh", "inv", "cholesky", "slogdet", "solve")
SRC = pathlib.Path(_lapack.__file__).parent


def _outcome(fn, *args):
    """What fn(*args) gives: its arrays (a tuple of them, for eigh and
    slogdet), or the type and message of what it raised."""
    try:
        out = fn(*args)
    except Exception as e:
        return type(e), str(e)
    return tuple(out) if isinstance(out, tuple) else (out,)


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, (str, type)):
            assert g == w
        else:
            assert type(g) is type(w)
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)


def _operands(name, r, shape, rng):
    """Arguments of kernel `name` for r x r matrices of stack shape
    `shape`: symmetric for the eigensolvers, SPD for the Cholesky,
    general for the rest, and a (r, 2) right-hand side for solve."""
    M = rng.standard_normal(shape + (r, r))
    if name in ("eigh", "eigvalsh"):
        return (M + M.swapaxes(-1, -2),)
    if name == "cholesky":
        return (M @ M.swapaxes(-1, -2) + r * np.eye(r),)
    M += r * np.eye(r)
    if name == "solve":
        return M, rng.standard_normal(shape + (r, 2))
    return (M,)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("r", SIZES)
def test_kernel_has_the_bits_of_numpy_linalg(name, r):
    rng = np.random.default_rng(r)
    kernel, ref = getattr(_lapack, name), getattr(np.linalg, name)
    for shape in ((), (4,), (2, 3)):
        args = _operands(name, r, shape, rng)
        _same(_outcome(kernel, *args), _outcome(ref, *args))
        # a strided view, as schur_head hands solve a trailing block
        view = tuple(a.swapaxes(-1, -2) for a in args)
        _same(_outcome(kernel, *view), _outcome(ref, *view))


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_fails_as_numpy_linalg_does(name):
    state = np.geterr()
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    stack = np.stack((np.eye(2), singular, not_pd))
    for M in (singular, not_pd, nan, stack):
        args = (M, np.ones(M.shape[:-1] + (1,))) if name == "solve" else (M,)
        want = _outcome(getattr(np.linalg, name), *args)
        _same(_outcome(getattr(_lapack, name), *args), want)
    assert np.geterr() == state


def test_failures_raise_numpy_messages():
    singular = np.zeros((3, 3))
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _lapack.inv(singular)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _lapack.solve(singular, np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="^Matrix is not positive definite$"):
        _lapack.cholesky(-np.eye(3))
    sign, logdet = _lapack.slogdet(singular)
    assert (sign, logdet) == (0.0, -np.inf)


def _violations(source: str) -> list[str]:
    """Lines of `source` that take LAPACK another way than through an
    attribute of gbc._lapack looked up at call time."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute):
            base = node.value
            on_linalg = (isinstance(base, ast.Attribute) and base.attr == "linalg"
                         or isinstance(base, ast.Name) and base.id == "linalg")
            if node.attr == "_umath_linalg" or on_linalg and node.attr in KERNELS:
                found.append(f"{where}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            module = node.module or ""
            # a kernel imported by name is bound at import time
            if ("_umath_linalg" in module or "_umath_linalg" in names
                    or module.startswith("numpy.linalg") and names & set(KERNELS)
                    or module.endswith("_lapack")):
                found.append(f"{where}: from {module} import {sorted(names)}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if "_umath_linalg" in alias.name:
                    found.append(f"{where}: import {alias.name}")
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # a default binds the kernel when the function is defined
            for d in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                if any(isinstance(n, ast.Name) and n.id == "_lapack" for n in ast.walk(d)):
                    found.append(f"{where}: default {ast.unparse(d)}")
    return found


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.eigh(M)",
    "import numpy\nw = numpy.linalg.eigvalsh(M)",
    "from numpy import linalg\nlinalg.inv(M)",
    "f = np.linalg.cholesky",
    "from numpy.linalg import slogdet",
    "from numpy.linalg import _umath_linalg",
    "import numpy.linalg._umath_linalg as g",
    "g = np.linalg._umath_linalg.solve",
    "from ._lapack import eigh",
    "from gbc._lapack import inv",
    "def check(A, decompose=_lapack.eigvalsh):\n    pass",
])
def test_guard_sees_each_other_way_in(source):
    assert _violations(source)


def test_guard_passes_the_one_way_in():
    assert _violations(
        "from . import _lapack\n"
        "from numpy.linalg import LinAlgError\n"
        "w, V = _lapack.eigh(M)\n"
        "x = np.linalg.norm(M)\n"
        "def check(A, decompose=None):\n"
        "    return (decompose or _lapack.eigvalsh)(A)\n"
        "try:\n    _lapack.inv(M)\nexcept np.linalg.LinAlgError:\n    pass\n") == []


def test_only_the_kernel_module_calls_lapack():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "_lapack.py")
    assert {"psd.py", "reduction.py", "private.py", "common.py"} <= {p.name for p in files}
    found = {p.name: v for p in files if (v := _violations(p.read_text()))}
    assert found == {}
