"""Linear-system view of the randomized sweep on small instances.

For an equality-constrained QP without boxes, one sweep with block order
sigma is an affine map z -> M z + offset on the stacked state z = (x; y).
Enumerating every admissible order gives the expected map, whose spectrum
certifies convergence in expectation; the spectral radius of the expected
Kronecker square certifies almost-sure convergence. One enumeration pass
feeds every certificate quantity, keeping only running sums. Everything here
is dense and exact (full enumeration, no sampling), which is why instance
sizes are capped.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import BlockDefinitenessError
from .problems import (
    CapacityError,
    Order,
    QpProblem,
    as_dense,
    enumerate_orders,
)

# Eigensolver imaginary dust below this magnitude counts as real.
IMAG_TOL = 1e-9
EDGE_TOL = 1e-9
SPECTRAL_BOUND = 4.0 / 3.0

# The Kronecker-square check solves an (n+m)^2 eigenproblem over every
# enumerated order; capped tighter than plain enumeration, on n and on the
# lifted size n + m, whose fourth power is the size of the Kronecker square.
MAX_KRON_VARS = 8
MAX_KRON_DIM = 16


def coupling_matrix(H, A, beta: float) -> np.ndarray:
    """The full quadratic coupling H + beta * A'A seen by one sweep."""
    A = as_dense(A)
    n = A.shape[1]
    H = np.zeros((n, n)) if H is None else as_dense(H)
    if H.shape != (n, n):
        raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
    return H + beta * (A.T @ A)


def _checked_coupling(H, A, beta: float, order: Order) -> np.ndarray:
    """The coupling matrix, once ``order`` is known to partition range(n):
    a missing, repeated or out-of-range index raises ValueError."""
    S = coupling_matrix(H, A, beta)
    if sorted(i for block in order for i in block) != list(range(len(S))):
        raise ValueError(f"order {order} does not partition range({len(S)})")
    return S


def _lower(S: np.ndarray, order: Order) -> np.ndarray:
    """Entries of S whose row block is updated at or after their column
    block; ``order`` must partition range(n)."""
    pos = np.empty(S.shape[0], dtype=int)
    for k, group in enumerate(order):
        pos[list(group)] = k
    return np.where(pos[:, None] >= pos[None, :], S, 0.0)


def gauss_seidel_matrix(H, A, beta: float, order: Order) -> np.ndarray:
    """Block lower-triangular part of the coupling matrix along an order.

    Entry block (i, j) equals H_{gi,gj} + beta A_gi'A_gj whenever block gi is
    updated at or after gj in the sweep, and zero otherwise: exactly the
    system the Gauss-Seidel pass applies to the new iterate. Raises
    ValueError unless ``order`` partitions range(n).
    """
    return _lower(_checked_coupling(H, A, beta, order), order)


@dataclass(frozen=True)
class IterationMap:
    """The affine map one sweep applies to the stacked state z = (x; y).

    ``lower`` is the Gauss-Seidel matrix L of the order; ``lifted_lower``
    appends the dual update, [[L, 0], [beta A, I]], and ``matrix`` is its
    inverse times the lifted remainder [[L - (H + beta A'A), A'], [0, I]].
    """

    beta: float
    A: np.ndarray
    lower: np.ndarray
    lifted_lower: np.ndarray
    matrix: np.ndarray

    def offset(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Constant term of the sweep map for objective c and rhs b."""
        top = -np.asarray(c, dtype=float) + self.beta * (self.A.T @ b)
        bottom = self.beta * np.asarray(b, dtype=float)
        return np.linalg.solve(self.lifted_lower, np.concatenate([top, bottom]))

    def apply(self, z: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.matrix @ z + self.offset(c, b)


def _iteration_map(S: np.ndarray, Ad: np.ndarray, beta: float,
                   order: Order) -> IterationMap:
    m, n = Ad.shape
    L = _lower(S, order)
    # filled into identities: np.block's dispatch costs more than the
    # arithmetic at these sizes
    lifted_lower = np.eye(n + m)
    lifted_lower[:n, :n] = L
    lifted_lower[n:, :n] = beta * Ad
    lifted_remainder = np.eye(n + m)
    lifted_remainder[:n, :n] = L - S
    lifted_remainder[:n, n:] = Ad.T
    try:
        M = np.linalg.solve(lifted_lower, lifted_remainder)
    except np.linalg.LinAlgError as exc:
        raise BlockDefinitenessError(
            "the sweep's Gauss-Seidel matrix is singular; a block violates "
            "the positive-definiteness assumption") from exc
    return IterationMap(beta=beta, A=Ad, lower=L, lifted_lower=lifted_lower,
                        matrix=M)


def iteration_map(H, A, beta: float, order: Order) -> IterationMap:
    """Assemble the sweep map for one block order; raises ValueError unless
    ``order`` partitions range(n)."""
    S = _checked_coupling(H, A, beta, order)
    return _iteration_map(S, as_dense(A), beta, order)


def _order_averages(S: np.ndarray, Ad: np.ndarray, beta: float, p: int,
                    kron: bool):
    """One pass over every order, keeping running sums only.

    Returns Q and M as in ``expected_operators``, the mean of the inverses
    over each partition's orders (listed in order of first appearance, which
    is ``enumerate_partitions`` order) and, with ``kron``, the expected
    Kronecker square.
    """
    m, n = Ad.shape
    orders = enumerate_orders(n, p)
    Q = np.zeros((n, n))
    M_avg = np.zeros((n + m, n + m))
    K = np.zeros(((n + m) ** 2, (n + m) ** 2)) if kron else None
    partition_Q = defaultdict(lambda: np.zeros((n, n)))
    for order in orders:
        bundle = _iteration_map(S, Ad, beta, order)
        L_inv = np.linalg.inv(bundle.lower)
        Q += L_inv
        M_avg += bundle.matrix
        partition_Q[frozenset(order)] += L_inv
        if kron:
            K += np.kron(bundle.matrix, bundle.matrix)
    Q /= len(orders)
    M_avg /= len(orders)
    QS = Q @ S
    M = np.block([
        [np.eye(n) - QS, Q @ Ad.T],
        [-beta * Ad + beta * (Ad @ QS), np.eye(m) - beta * (Ad @ Q @ Ad.T)],
    ])
    if np.max(np.abs(M - M_avg)) > 1e-10:
        raise ArithmeticError(
            "expected sweep map disagrees between block formula and direct "
            f"average by {np.max(np.abs(M - M_avg)):.3e}")
    partition_means = [total / math.factorial(p) for total in partition_Q.values()]
    return Q, M, partition_means, None if K is None else K / len(orders)


def expected_operators(H, A, beta: float, p: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform expectations over every admissible order.

    Returns (Q, S, M) where S is the coupling matrix, Q the average of the
    inverted Gauss-Seidel matrices, and M the expected sweep map assembled
    from the closed block formula

        M = [[I - QS, QA'], [-beta A + beta A QS, I - beta A Q A']].

    The formula is cross-checked against the directly averaged sweep maps;
    disagreement beyond 1e-10 raises, since the two constructions must
    coincide.
    """
    S = coupling_matrix(H, A, beta)
    Q, M, _, _ = _order_averages(S, as_dense(A), beta, p, kron=False)
    return Q, S, M


def _psd_root(S: np.ndarray) -> Optional[np.ndarray]:
    """S^{1/2} for PSD S (tiny negative dust clamped); None if S is indefinite."""
    w, V = np.linalg.eigh(S)
    if w[0] < -1e-10 * max(1.0, abs(w[-1])):
        return None
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def _congruent_spectrum(Q: np.ndarray, root: np.ndarray) -> np.ndarray:
    """eig(QS) through the symmetric congruence S^{1/2} Q S^{1/2}.

    For symmetric Q and PSD S the two products share their nonzero spectrum,
    so the symmetric eigenproblem returns the exactly real eigenvalues of QS
    (zeros included when S is singular).
    """
    sym = root @ Q @ root
    return np.linalg.eigvalsh((sym + sym.T) / 2.0)


@dataclass
class ConvergenceCertificate:
    """Numerically checked convergence conditions for one instance.

    Spectra are stored as complex arrays; booleans are recomputable from
    them. Fields are None when the underlying computation was impossible
    (singular sweep matrix) or skipped (Kronecker check over the size cap).
    """

    n: int
    m: int
    p: int
    beta: float
    assumption1_ok: bool
    eig_qs: Optional[np.ndarray] = None
    eig_m: Optional[np.ndarray] = None
    rho_kron: Optional[float] = None
    lemma2_ok: Optional[bool] = None
    as_ok: Optional[bool] = None
    partition_max_eigs: Optional[list[float]] = None
    partitions_ok: Optional[bool] = None
    weyl_ok: Optional[bool] = None

    def to_json_dict(self) -> dict:
        def cplx(arr):
            if arr is None:
                return None
            return [[float(v.real), float(v.imag)] for v in np.asarray(arr, dtype=complex)]

        return {
            "eig_QS": cplx(self.eig_qs),
            "eig_M": cplx(self.eig_m),
            "rho_kron": self.rho_kron,
            "assumption1_ok": self.assumption1_ok,
            "lemma2_ok": self.lemma2_ok,
            "as_ok": self.as_ok,
            "partitions_ok": self.partitions_ok,
            "weyl_ok": self.weyl_ok,
            "partition_max_eigs": self.partition_max_eigs,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "beta": self.beta,
        }


def _blocks_positive_definite(S: np.ndarray, s: int) -> bool:
    """Every possible size-s block of the coupling matrix must be SPD."""
    n = S.shape[0]
    for subset in itertools.combinations(range(n), s):
        block = S[np.ix_(subset, subset)]
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
    return True


def certify(H, A, beta: float, p: int,
            kron: Optional[bool] = None) -> ConvergenceCertificate:
    """Compute the full convergence certificate by exhaustive enumeration.

    Checks, in order: block positive definiteness of every possible block;
    the spectrum of QS inside [0, 4/3); symmetry and positive
    semidefiniteness of the per-partition averages (whose maxima bound the
    global spectrum through eigenvalue subadditivity of Hermitian sums); the
    expected-map spectrum; and, for instances within the Kronecker cap, the
    spectral radius of the expected Kronecker square.

    ``kron=None`` computes the Kronecker check automatically when n is
    within MAX_KRON_VARS and n + m within MAX_KRON_DIM; forcing it beyond
    either cap raises CapacityError.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got p={p}")
    S = coupling_matrix(H, A, beta)
    Ad = as_dense(A)
    m, n = Ad.shape
    within_cap = n <= MAX_KRON_VARS and n + m <= MAX_KRON_DIM
    if kron is None:
        kron = within_cap
    elif kron and not within_cap:
        raise CapacityError(
            f"Kronecker check limited to n <= {MAX_KRON_VARS} and n + m <= "
            f"{MAX_KRON_DIM}; got n={n}, m={m}")
    if n % p != 0:
        raise ValueError(f"p must divide n; got n={n}, p={p}")
    s = n // p
    cert = ConvergenceCertificate(
        n=n, m=m, p=p, beta=beta,
        assumption1_ok=_blocks_positive_definite(S, s))

    try:
        Q, M, partition_means, K = _order_averages(S, Ad, beta, p, kron)
    except (np.linalg.LinAlgError, BlockDefinitenessError, ArithmeticError):
        # singular or numerically untrustworthy sweeps: only the block
        # positive-definiteness verdict is reportable
        return cert

    root = _psd_root(S)
    if root is not None:
        eig_qs = _congruent_spectrum(Q, root)
    else:
        eig_qs = np.linalg.eigvals(Q @ S)
    cert.eig_qs = np.asarray(eig_qs, dtype=complex)
    real_ok = np.all(np.abs(cert.eig_qs.imag) <= IMAG_TOL)
    range_ok = np.all(cert.eig_qs.real >= -EDGE_TOL) and \
        np.all(cert.eig_qs.real < SPECTRAL_BOUND - EDGE_TOL)
    cert.lemma2_ok = bool(real_ok and range_ok)

    cert.eig_m = np.linalg.eigvals(M)

    # Per-partition averaged operators: each must be a symmetric PD matrix
    # whose product with S has real spectrum under the bound (checked through
    # the congruence, which carries the same eigenvalues), and their maxima
    # must dominate the global maximum by eigenvalue subadditivity.
    maxima = []
    partitions_ok = True
    for Qp in partition_means:
        asym = float(np.max(np.abs(Qp - Qp.T)))
        if root is not None:
            eigs = _congruent_spectrum(Qp, root)
        else:
            eigs = np.sort(np.linalg.eigvals(Qp @ S).real)
        maxima.append(float(eigs[-1]))
        q_min = float(np.linalg.eigvalsh((Qp + Qp.T) / 2.0)[0])
        if asym > EDGE_TOL or q_min <= 0.0 or eigs[0] < -EDGE_TOL or \
                eigs[-1] >= SPECTRAL_BOUND - EDGE_TOL:
            partitions_ok = False
    cert.partition_max_eigs = maxima
    cert.partitions_ok = partitions_ok
    lam1 = float(np.max(cert.eig_qs.real))
    cert.weyl_ok = bool(lam1 <= float(np.mean(maxima)) + EDGE_TOL)

    if kron:
        cert.rho_kron = float(np.max(np.abs(np.linalg.eigvals(K))))
        cert.as_ok = bool(cert.rho_kron < 1.0)
    return cert


def kkt_residual(problem: QpProblem, x: np.ndarray, y: np.ndarray) -> float:
    """Distance of (x, y) from the KKT conditions of a box QP.

    Maximum of the equality violation and the box-projected stationarity
    step, each in the inf-norm; zero exactly at KKT pairs. Kept as a direct
    formula so it can cross-check the sweep engine's residual tracking.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    feas = 0.0
    grad = np.array(problem.c, dtype=float)
    if problem.H is not None:
        grad += as_dense(problem.H) @ x
    if problem.A is not None:
        Ad = as_dense(problem.A)
        feas = float(np.max(np.abs(Ad @ x - problem.b)))
        grad -= Ad.T @ y
    stationarity = float(np.max(np.abs(
        np.minimum(np.maximum(x - grad, problem.lower), problem.upper) - x)))
    return max(feas, stationarity)


def kkt_solve(problem: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Direct dense solve of the equality-constrained KKT system.

    Ignores box bounds; intended as the reference solution for unbounded
    instances with a nonsingular KKT matrix.
    """
    n, m = problem.n, problem.m
    H = np.zeros((n, n)) if problem.H is None else as_dense(problem.H)
    if m == 0:
        return np.linalg.solve(H, -problem.c), np.zeros(0)
    A = as_dense(problem.A)
    K = np.block([[H, -A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([-problem.c, problem.b])
    z = np.linalg.solve(K, rhs)
    return z[:n], z[n:]
