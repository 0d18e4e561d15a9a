"""Answer checks made apart from the program.

Each application's generated inputs are gathered to the driver (the dense
``X``/``y`` of the regressions, the edge list of PageRank's
``LinkMatrix``, the row bands and right-hand side of CG's banded SPD
system), and the fixed-iteration answer is recomputed here in plain
NumPy/SciPy: ridge CG, batch logistic gradient descent, the PageRank power
iteration, and Jacobi-preconditioned CG.  Nothing in this module calls a
kernel of the program's matrix layer.

:func:`check_answer` compares a program answer against such a reference
and also asserts the properties the methods must have (PageRank mass sums
to one; the CG residual of the answer is below the initial residual).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

#: Largest accepted ``max|answer - reference| / max|reference|``.  The
#: program and the references sum in different orders (and a shrink restore
#: regroups the program's reductions); the largest gap seen on the
#: benchmark's operations is 1.5e-12 (linreg at 32 places), so this leaves
#: almost three decades of room and still rejects any wrong iterate.
RTOL = 1e-9

#: Largest accepted ``|sum(ranks) - 1|`` for a PageRank answer.
MASS_TOL = 1e-9


@dataclass
class Reference:
    """A reference answer plus what the property checks need."""

    app: str
    answer: np.ndarray
    #: CG only: the system, to evaluate the residual of a program answer.
    A: Optional[sp.csr_matrix] = None
    b: Optional[np.ndarray] = None


# -- the reference methods ---------------------------------------------------


def ridge_cg(X: np.ndarray, y: np.ndarray, lam: float, iterations: int) -> np.ndarray:
    """``iterations`` CG steps on ``(XᵀX + λI) w = Xᵀy`` from ``w = 0``."""
    w = np.zeros(X.shape[1])
    r = X.T @ y
    p = r.copy()
    rr = float(r @ r)
    for _ in range(iterations):
        q = X.T @ (X @ p) + lam * p
        alpha = rr / float(p @ q)
        w += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        beta = rr_new / rr if rr else 0.0
        p = r + beta * p
        rr = rr_new
    return w


def logistic_gd(
    X: np.ndarray, y: np.ndarray, lam: float, rate: float, iterations: int
) -> np.ndarray:
    """Batch gradient descent on the ridge-penalized logistic loss, with the
    step normalized by the number of examples."""
    eta = rate / X.shape[0]
    w = np.zeros(X.shape[1])
    for _ in range(iterations):
        mu = 1.0 / (1.0 + np.exp(-np.clip(X @ w, -30.0, 30.0)))
        w = w - eta * (X.T @ (mu - y) + lam * w)
    return w


def link_matrix(rows: np.ndarray, cols: np.ndarray, n: int, out_degree: int):
    """The column-stochastic link matrix of an edge list (repeated edges sum)."""
    weights = np.full(len(rows), 1.0 / out_degree)
    return sp.csr_matrix((weights, (rows, cols)), shape=(n, n))


def pagerank_power(G: sp.csr_matrix, alpha: float, iterations: int) -> np.ndarray:
    """``P = αGP + (1-α)·(uᵀP)`` from the uniform vector, ``u = 1/n``."""
    n = G.shape[0]
    P = np.full(n, 1.0 / n)
    for _ in range(iterations):
        P = alpha * (G @ P) + (1.0 - alpha) * float(P.sum() / n)
    return P


def jacobi_pcg(A: sp.csr_matrix, b: np.ndarray, iterations: int) -> np.ndarray:
    """``iterations`` Jacobi-preconditioned CG steps on ``A x = b`` from 0."""
    inv_diag = 1.0 / A.diagonal()
    x = np.zeros(len(b))
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(iterations):
        q = A @ p
        alpha = rz / float(q @ p)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz_new = float(r @ z)
        beta = rz_new / rz if rz else 0.0
        p = z + beta * p
        rz = rz_new
    return x


# -- gathering the program's generated inputs --------------------------------


def gather_reference(app_name: str, app) -> Reference:
    """The reference answer for the inputs a freshly built *app* generated.

    *app* is a non-resilient application instance of the program; only its
    inputs are read (``X``, ``y``, ``link``, ``A``, ``b``) — its own
    iteration is never run.
    """
    wl = app.workload
    if app_name in ("linreg", "logreg"):
        X = np.array(app.X.to_dense().data)
        y = np.array(app.y.to_array())
        if app_name == "linreg":
            answer = ridge_cg(X, y, wl.ridge_lambda, wl.iterations)
        else:
            answer = logistic_gd(X, y, wl.ridge_lambda, wl.learning_rate, wl.iterations)
        return Reference(app_name, answer)
    if app_name == "pagerank":
        link = app.link
        rows, cols = link.destinations(0, link.n)
        G = link_matrix(rows, cols, link.n, link.out_degree)
        return Reference(app_name, pagerank_power(G, wl.alpha, wl.iterations))
    if app_name == "cg":
        bands = []
        for index in range(app.A.group.size):
            band = app.A.band(index)
            csr = (np.array(band.values), np.array(band.indices), np.array(band.indptr))
            bands.append(sp.csr_matrix(csr, shape=(band.m, band.n)))
        A = sp.vstack(bands, format="csr")
        b = np.array(app.b.to_array())
        return Reference(app_name, jacobi_pcg(A, b, wl.iterations), A=A, b=b)
    raise ValueError(f"no reference method for app {app_name!r}")


# -- the check ---------------------------------------------------------------


def check_answer(ref: Reference, answer) -> Optional[str]:
    """``None`` if *answer* agrees with *ref*, else why it does not."""
    answer = np.asarray(answer, dtype=float)
    if answer.shape != ref.answer.shape:
        return f"{ref.app}: answer shape {answer.shape} != reference {ref.answer.shape}"
    if not np.all(np.isfinite(answer)):
        return f"{ref.app}: answer has non-finite entries"
    scale = float(np.max(np.abs(ref.answer))) or 1.0
    err = float(np.max(np.abs(answer - ref.answer))) / scale
    if not err <= RTOL:
        return (
            f"{ref.app}: relative deviation {err:.3e} from the reference "
            f"exceeds {RTOL:g}"
        )
    if ref.app == "pagerank":
        mass = float(answer.sum())
        if not abs(mass - 1.0) <= MASS_TOL:
            return f"pagerank: rank mass {mass!r} is not 1"
    if ref.app == "cg":
        initial = float(np.linalg.norm(ref.b))
        final = float(np.linalg.norm(ref.b - ref.A @ answer))
        if not final < initial:
            return f"cg: final residual {final:.3e} not below initial {initial:.3e}"
    return None
