"""Linear-system view of the randomized sweep on small instances.

For an equality-constrained QP without boxes, one sweep with block order
sigma is an affine map z -> M z + offset on the stacked state z = (x; y).
Enumerating every admissible order gives the expected map, whose spectrum
certifies convergence in expectation; the spectral radius of the expected
Kronecker square certifies almost-sure convergence. One enumeration pass
feeds every certificate quantity, keeping only running sums. The pass takes
the orders ``ORDER_CHUNK`` at a time and makes one stacked call per chunk
for each step (Gauss-Seidel matrices, inverses, sweep maps, sums), so at
the small n enumerated numpy's per-call overhead is paid per chunk, not
per order. Everything here is dense and exact (full enumeration, no
sampling), which is why instance sizes are capped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import BlockDefinitenessError
from .problems import (
    CapacityError,
    Order,
    QpProblem,
    as_dense,
    iter_orders,
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

# Orders stacked per chunk of the enumeration pass: enough that per-call
# overhead is spread thin, few enough that a chunk's stacks stay a few
# hundred kB at the Kronecker cap.
ORDER_CHUNK = 32


def _coupling(H, A, beta: float,
              order: Optional[Order] = None) -> tuple[np.ndarray, np.ndarray]:
    """The coupling matrix H + beta * A'A and A as a dense m x n array.

    ``A=None`` has no rows (m = 0), and H then sets n. H and A are checked
    as a ``QpProblem`` checks them, so what ``solve`` refuses is refused
    here too. Also refuses a beta that is not finite and > 0 and an
    ``order`` given that does not partition range(n).
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if H is None and A is None:
        raise ValueError("H and A cannot both be None")
    H = None if H is None else as_dense(H)
    Ad = np.zeros((0, len(H))) if A is None else as_dense(A)
    n = Ad.shape[-1]
    QpProblem(c=np.zeros(n), H=H, A=Ad, b=np.zeros(len(Ad)))
    if H is None:
        H = np.zeros((n, n))
    if order is not None and sorted(i for g in order for i in g) != list(range(n)):
        raise ValueError(f"order {order} does not partition range({n})")
    return H + beta * (Ad.T @ Ad), Ad


def _positions(order: Order, n: int) -> np.ndarray:
    """The place in ``order`` of each variable's block; ``order`` must
    partition range(n)."""
    pos = np.empty(n, dtype=int)
    for k, group in enumerate(order):
        pos[np.asarray(group, dtype=np.intp)] = k
    return pos


def _lower(S: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Entries of S whose row block is updated at or after their column
    block, for block places ``pos`` of shape (..., n): one Gauss-Seidel
    matrix, or a stack of them for a stack of orders."""
    return np.where(pos[..., :, None] >= pos[..., None, :], S, 0.0)


def _inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} for a Gauss-Seidel matrix L or each of a stack; a singular one
    raises BlockDefinitenessError."""
    try:
        return np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise BlockDefinitenessError(
            "the sweep's Gauss-Seidel matrix is singular; a block violates "
            "the positive-definiteness assumption") from exc


def _sweep_map(X: np.ndarray, S: np.ndarray, Ad: np.ndarray,
               beta: float) -> np.ndarray:
    """[[I - XS, XA'], [-beta A (I - XS), I - beta A X A']].

    With X = L^{-1} this is the sweep map of one order; with X = Q, the
    average of L^{-1} over the orders, it is the expected sweep map. A
    stack of X, shape (..., n, n), gives the stack of their maps.
    """
    m, n = Ad.shape
    XS = X @ S
    # filled in place: at the small n enumerated, np.block's dispatch costs
    # more than the arithmetic
    out = np.empty(X.shape[:-2] + (n + m, n + m))
    out[..., :n, :n] = np.eye(n) - XS
    out[..., :n, n:] = X @ Ad.T
    out[..., n:, :n] = -beta * Ad + beta * (Ad @ XS)
    out[..., n:, n:] = np.eye(m) - beta * (Ad @ X @ Ad.T)
    return out


def gauss_seidel_matrix(H, A, beta: float, order: Order) -> np.ndarray:
    """Block lower-triangular part of the coupling matrix along an order.

    Entry block (i, j) equals H_{gi,gj} + beta A_gi'A_gj whenever block gi is
    updated at or after gj in the sweep, and zero otherwise: exactly the
    system the Gauss-Seidel pass applies to the new iterate. Raises
    ValueError unless ``order`` partitions range(n).
    """
    S = _coupling(H, A, beta, order)[0]
    return _lower(S, _positions(order, len(S)))


@dataclass(frozen=True)
class IterationMap:
    """The affine map one sweep applies to the stacked state z = (x; y).

    ``lower_inv`` is L^{-1} for the Gauss-Seidel matrix L of the order, and
    ``matrix`` is the block formula of ``_sweep_map`` in it.
    """

    beta: float
    A: np.ndarray
    lower_inv: np.ndarray
    matrix: np.ndarray

    def offset(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Constant term of the sweep map for objective c and rhs b: the
        lifted [[L^{-1}, 0], [-beta A L^{-1}, I]] times (beta A'b - c; beta b)."""
        t = self.lower_inv @ (self.beta * (self.A.T @ b) - c)
        return np.concatenate([t, self.beta * (b - self.A @ t)])

    def apply(self, z: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.matrix @ z + self.offset(c, b)


def iteration_map(H, A, beta: float, order: Order) -> IterationMap:
    """Assemble the sweep map for one block order; raises ValueError unless
    ``order`` partitions range(n), and BlockDefinitenessError when its
    Gauss-Seidel matrix is singular."""
    S, Ad = _coupling(H, A, beta, order)
    L_inv = _inverse(_lower(S, _positions(order, len(S))))
    return IterationMap(beta=beta, A=Ad, lower_inv=L_inv,
                        matrix=_sweep_map(L_inv, S, Ad, beta))


def _order_averages(S: np.ndarray, Ad: np.ndarray, beta: float, p: int,
                    kron: bool):
    """One pass over every order, ``ORDER_CHUNK`` orders at a time, keeping
    running sums only.

    Returns Q and M as in ``expected_operators``, the mean of the inverses
    over each partition's orders (a partition is an order's blocks as a
    frozenset; listed in order of first appearance) and, with ``kron``, the
    expected Kronecker square. A singular sweep raises BlockDefinitenessError.

    Each chunk's inverses are summed per partition by one product with the
    chunk's partition indicator, and Q is the sum of those sums. The
    Kronecker square's entry ((i, k), (j, l)) is the mean of M[i, j] M[k, l]
    over the orders' sweep maps M, so it is the Gram F'F of the maps laid
    out as rows of F, permuted once at the end.
    """
    m, n = Ad.shape
    d, s = n + m, n // p
    # a variable at slot j of an order's concatenated blocks is in block j // s
    block_at = np.arange(n) // s
    partitions: dict = {}  # an order's blocks as a frozenset -> its row
    # one row of inverse sums per partition, n! / (s!^p p!) of them
    sums = np.zeros((math.factorial(n) // (math.factorial(s) ** p
                                           * math.factorial(p)), n * n))
    gram = np.zeros((d * d, d * d)) if kron else None
    count = 0
    flat = itertools.chain.from_iterable
    orders = iter_orders(n, p)  # streamed: (10, 10) has 3,628,800
    while chunk := list(itertools.islice(orders, ORDER_CHUNK)):
        c = len(chunk)
        count += c
        slots = np.fromiter(flat(flat(chunk)), dtype=int,
                            count=c * n).reshape(c, n)
        pos = np.empty_like(slots)
        np.put_along_axis(pos, slots, block_at, axis=1)
        L_inv = _inverse(_lower(S, pos))
        rows, which = np.unique(
            [partitions.setdefault(frozenset(order), len(partitions))
             for order in chunk], return_inverse=True)
        indicator = np.arange(rows.size)[:, None] == which
        sums[rows] += indicator @ L_inv.reshape(c, n * n)
        if kron:
            maps = _sweep_map(L_inv, S, Ad, beta).reshape(c, d * d)
            gram += maps.T @ maps
    Q = sums.sum(axis=0).reshape(n, n) / count
    partition_means = list(sums.reshape(-1, n, n) / math.factorial(p))
    K = None
    if kron:
        gram /= count
        K = gram.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d,
                                                                   d * d)
    return Q, _sweep_map(Q, S, Ad, beta), partition_means, K


def expected_operators(H, A, beta: float, p: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform expectations over every admissible order.

    Returns (Q, S, M) where S is the coupling matrix, Q the average of the
    inverted Gauss-Seidel matrices, and M the expected sweep map. A sweep
    map is affine in L^{-1}, so M is ``_sweep_map`` at Q. A singular
    Gauss-Seidel matrix raises BlockDefinitenessError.
    """
    S, Ad = _coupling(H, A, beta)
    Q, M, _, _ = _order_averages(S, Ad, beta, p, kron=False)
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
    """Every possible size-s block of the coupling matrix must be SPD,
    checked by one stacked Cholesky over all C(n, s) of them."""
    subsets = np.array(list(itertools.combinations(range(S.shape[0]), s)))
    try:
        np.linalg.cholesky(S[subsets[:, :, None], subsets[:, None, :]])
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
    spectral radius of the expected Kronecker square, all from the maps of
    ``_sweep_map``. A singular sweep leaves only the first verdict.

    ``kron=None`` computes the Kronecker check automatically when n is
    within MAX_KRON_VARS and n + m within MAX_KRON_DIM; forcing it beyond
    either cap raises CapacityError.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got p={p}")
    S, Ad = _coupling(H, A, beta)
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
    except BlockDefinitenessError:
        # a singular Gauss-Seidel matrix has no sweep map: only the block
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
