"""Core state-space model types and structural tests.

The central object is the innovations state-space (ISS) model

    x[t+1] = A x[t] + K e[t]
    z[t]   = C x[t] + e[t],      cov(e) = V,

together with the general noise-parameterized form (A, C, [Q, R, S]) of the
Riccati solver, built by one noise rule, ``SSModel._driven``.  This module
also provides the PBH controllability, stabilizability and detectability
tests (one orthogonal staircase rule for all three), VAR-to-ISS conversion,
transfer function and spectral evaluation, and autocovariance sequences.
One memo, ``_remembered``, keeps the last model's stationarity verdict,
transfer function and Riccati start pass, one value of each kind;
``validate_iss`` decides stationarity from the eigenvalues it reports,
which also settle its detectability premise, and fills that slot.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PreconditionError

# |eigenvalue| >= 1 - STABILITY_MARGIN counts as unstable / non-stationary.
STABILITY_MARGIN = 1e-12
# Scale-aware threshold of the PBH tests (orthogonality, staircase deflation).
PBH_TOL = 1e-9
LYAPUNOV_TOL = 1e-13
# Relative asymmetry a covariance argument may carry before it is rejected.
SYMMETRY_TOL = 1e-8
# Step budget of the one doubling loop: 64 steps cover 2^63 terms of the plain recursion.
_MAX_DOUBLINGS = 64
DEFAULT_GRID_SIZE = 4096
# Largest complex (chunk, n, n) resolvent stack the dense transfer rule allocates.
DENSE_CHUNK_BYTES = 64 * 2**20
# A squaring whose 1-norm passes this ends the certificate before it can overflow.
_SQUARING_NORM_CAP = 1e100
_EPS = float(np.finfo(float).eps)

__all__ = [
    "JointPartition",
    "SSModel",
    "ISSModel",
    "SpectralCurve",
    "AutocovarianceSequence",
    "Check",
    "ValidationReport",
    "PbhResult",
    "default_grid",
    "pbh_test",
    "validate_iss",
    "var_to_iss",
    "spectrum_of_iss",
    "autocovariance_of_iss",
    "solve_lyapunov",
    "spectral_radius",
]


# The one memo: per kind of value, (weak reference to the last model, key, value).
_LAST: dict[str, tuple] = {}


def _remembered(kind: str, model, key, compute):
    """The one memo rule: the value compute() gives for model and key, kept
    in one slot per kind of value.

    The slot holds a weak reference to the last model object it was asked
    about, that call's key (None, or a checked grid, compared bit for bit)
    and the value.  The same model object with an equal key reads the slot;
    any other model or key computes afresh and takes the slot, so one value
    per kind is held, for a model that is still alive, and a model with
    equal arrays is a different model.  A computation that raises stores
    nothing.  A slot is replaced whole, so threads may race to a second
    miss but never read a value for another model or key.  Callers must not
    write into the value.
    """
    slot = _LAST.get(kind)
    if slot is not None and slot[0]() is model and _same_key(slot[1], key):
        return slot[2]
    value = compute()
    _LAST[kind] = (weakref.ref(model), key, value)
    return value


def _off_heap(value: np.ndarray) -> np.ndarray:
    """A frozen copy of value in an anonymous memory map of its own.

    A remembered array outlives the call that made it.  On the allocator's
    heap it can pin the heap's top, so the memory freed below it is never
    returned and later large temporaries grow the process instead: with
    glibc 2.36, a held 256 KiB H raised the peak RSS of repeated n = 20, 80,
    160 analyses by 4 MB.  Its own pages are unmapped when the slot drops it.
    """
    held = np.frombuffer(mmap.mmap(-1, value.nbytes), value.dtype).reshape(value.shape)
    held[...] = value
    held.setflags(write=False)
    return held


def _same_key(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _read_array(value, name: str) -> np.ndarray:
    """np.asarray(value); ValueError "<name> is not a numeric array" when numpy
    cannot read it (a ragged list) or reads it as text, which a float
    conversion would parse ("1.5" is not 1.5 here)."""
    try:
        m = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric array") from exc
    if m.dtype.kind in "SU":
        raise ValueError(f"{name} is not a numeric array")
    return m


def _as_matrix(value, name: str, ndim: int | None = 2) -> np.ndarray:
    """The one reader of array arguments (matrices, grids, taps, series,
    autocovariance stacks): a frozen float copy of value, of rank ndim (any
    rank when None), with real, finite entries; else ValueError naming
    `name`: value is not a numeric array (text, a dict, a ragged list), its
    entries are complex, the rank is wrong, or an entry is not finite."""
    m = _read_array(value, name)
    try:
        if m.dtype.kind != "c":
            m = np.array(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric array") from exc
    if m.dtype.kind == "c":
        raise ValueError(f"{name} contains complex entries")
    if ndim is not None and m.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


def _check_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    # A non-square m is not symmetric; m - m.T would broadcast a (1, p) row to (p, p).
    if m.shape != m.T.shape or np.abs(m - m.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    sym = 0.5 * (m + m.T)
    sym.setflags(write=False)
    return sym


def spectral_radius(a: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    return float(np.abs(np.linalg.eigvals(a)).max()) if a.size else 0.0


def _squarings(a: np.ndarray):
    """A, A^2, A^4, ...: the package's one squaring loop.  The next square is
    formed only when it is asked for, so a caller that stops takes no extra
    product; the caller sets the ``np.errstate`` its squares need."""
    while True:
        yield a
        a = a @ a


def _squaring_verdict(power: np.ndarray, j: int) -> bool | None:
    """The squaring certificate's verdict on rho(A) < 1 - STABILITY_MARGIN,
    given power = A^(2^j): True when proved, False when disproved, None when
    the squarings (``_squarings`` from power) decide nothing.

    By Gelfand's bound rho(A)^m <= ||A^m||, a squaring A^(2^i), i >= j, of
    1-norm below (1 - STABILITY_MARGIN)^(2^i) is a proof.  |tr A^(2^i)| >=
    n (1 - STABILITY_MARGIN)^(2^i) ends the squarings, since no proof exists
    (|tr A^m| <= n rho^m), and disproves it once the excess also clears the
    rounding the squarings may carry, n 2^i eps ||A^(2^i)||_1.  None once
    the bound underflows to 0 (at i = 50), once the norm passes
    _SQUARING_NORM_CAP (or is not finite), so a squaring never overflows, or
    when the excess is within rounding.
    """
    for i, power in enumerate(_squarings(power), start=j):
        bound = (1.0 - STABILITY_MARGIN) ** (2**i)
        norm = np.abs(power).sum(axis=0).max(initial=0.0)
        if norm < bound:
            return True
        if not (bound > 0.0 and norm <= _SQUARING_NORM_CAP):
            return None
        excess = abs(power.trace()) - len(power) * bound
        if excess >= 0.0:
            return False if excess > len(power) * 2.0**i * _EPS * norm else None


def _is_stable(a: np.ndarray, power: np.ndarray | None = None, j: int = 0) -> bool:
    """The one stability rule, rho(a) < 1 - STABILITY_MARGIN: the squaring
    verdict (``_squaring_verdict``), continued from power = a^(2^j) when
    given, proof or disproof, and the eigenvalues only when it decides
    nothing.  Callers compute the radius itself only for an error message."""
    verdict = _squaring_verdict(a if power is None else power, j)
    return spectral_radius(a) < 1.0 - STABILITY_MARGIN if verdict is None else verdict


def default_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Uniform frequency grid of n points on [-pi, pi), endpoint excluded."""
    if not _is_int(n):
        raise ValueError("grid size must be an integer")
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def _periodic_mean(grid: np.ndarray, values: np.ndarray) -> float:
    """(1/2pi) times the trapezoid-rule integral of values over a periodic grid.

    The grid is read as one period starting at grid[0]; on a uniform grid the
    weights are equal and this is the plain mean.
    """
    gaps = np.diff(np.concatenate([grid, [grid[0] + 2.0 * np.pi]]))
    weights = 0.5 * (gaps + np.roll(gaps, 1))
    return float(np.sum(weights * values) / (2.0 * np.pi))


def _logdet_pd(mat: np.ndarray, what: str):
    """ln det of a Hermitian positive definite matrix (a float) or (N, p, p) stack.

    A failed Cholesky of the Hermitian part, or a log determinant that is not
    finite (NaN or inf entries pass numpy's Cholesky), raises PreconditionError
    naming `what`.
    """
    herm = 0.5 * (mat + np.swapaxes(mat, -1, -2).conj())
    chol = _cholesky(herm, f"{what} is not positive definite")
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    if not np.isfinite(logdet).all():
        raise PreconditionError(f"{what} is not positive definite with a finite log determinant")
    return float(logdet) if logdet.ndim == 0 else logdet


def _cholesky(mat: np.ndarray, message: str) -> np.ndarray:
    """Cholesky factor of a positive definite mat, else PreconditionError(message)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(message) from exc


def _grid_tol(grid: np.ndarray) -> float:
    """Rounding tolerance on frequencies of the magnitude found in grid."""
    return 16.0 * _EPS * max(2.0 * np.pi, float(np.abs(grid).max(initial=0.0)))


def _check_grid(grid) -> np.ndarray:
    """grid as a frozen float copy (``_as_matrix``); ValueError unless it is 1-D,
    not empty, real, finite, strictly increasing and within one period
    (grid[-1] - grid[0] <= 2 pi)."""
    grid = _as_matrix(grid, "grid", 1)
    if len(grid) == 0:
        raise ValueError("grid must not be empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[-1] - grid[0] > 2.0 * np.pi + _grid_tol(grid):
        raise ValueError("grid must lie within one period: grid[-1] - grid[0] <= 2 pi")
    return grid


def _power_rows(first: np.ndarray, squares, count: int) -> np.ndarray:
    """[first; first B; ...; first B^(count-1)], stacked first.shape[0] rows at a
    time, by block doubling R <- [R; R B^b] over squares = [B, B^2, B^4, ...]."""
    p = first.shape[0]
    rows = np.empty((count * p, first.shape[1]))
    rows[:p] = first
    for j, sq in enumerate(squares):
        b = 1 << j
        if b >= count:
            break
        top = min(b, count - b) * p
        rows[b * p : b * p + top] = rows[:top] @ sq
    return rows


def _transfer_uniform(a: np.ndarray, c: np.ndarray, k: np.ndarray, grid: np.ndarray):
    """C (e^{j lambda} I - A)^{-1} K on one period of a uniform grid, by one FFT.

    None when grid is not such a period or the squaring verdict, continued
    from the last square A^(2^j), 2^j <= N, of ``_squarings``, is not a proof
    (the dense rule is the fallback); see ``ISSModel.frequency_response``.
    The Markov parameters C A^k G, k < N, are s = 2^floor(bit_length(N - 1) / 2)
    baby rows C A^i (block doubling over the squares below s) times
    ceil(N / s) giant columns A^(j s) G (doubling on the right over the
    squares from s on, G read as real columns, [Re g_1, Im g_1, ...] when
    complex, so A stays real): O(sqrt(N) p n^2 + N p^2 n + n^3 log N) time
    and O(sqrt(N) p n + N p^2 + n^2 log N) memory.
    """
    n_pts = len(grid)
    step = 2.0 * np.pi / n_pts
    if not np.abs(grid - (grid[0] + step * np.arange(n_pts))).max() <= _grid_tol(grid):
        return None  # not uniform
    with np.errstate(all="ignore"):  # an unstable A may overflow; it is rejected below
        squares = list(itertools.islice(_squarings(a), n_pts.bit_length()))  # A^(2^j), 2^j <= N
        # rho(A) < 1 makes I - w A^N invertible; certify it from the last square.
        if _squaring_verdict(squares[-1], len(squares) - 1) is not True:
            return None
    # Shift the grid by whole steps so |lambda_0| <= step / 2 and every phase stays small.
    shift = int(np.rint(grid[0] / step))
    lam0 = grid[0] - shift * step
    gain = _aliasing_gain(squares, k, n_pts, np.exp(-1j * n_pts * lam0))
    if gain is None:
        return None
    # C A^(js+i) G: baby rows C A^i times giant columns A^(js) G (Paterson & Stockmeyer).
    level = (n_pts - 1).bit_length() // 2
    s, p = 1 << level, c.shape[0]
    baby = _power_rows(c, squares[:level], s)
    gain_t = np.ascontiguousarray(gain).view(float).T  # G's real columns
    giant = _power_rows(gain_t, [sq.T for sq in squares[level:]], -(-n_pts // s))
    products = (baby @ giant.T).reshape(s, p, -1, len(gain_t)).transpose(2, 0, 1, 3)
    products = products.reshape(-1, p, len(gain_t))[:n_pts]
    markov = products.view(gain.dtype) * np.exp(-1j * lam0 * np.arange(n_pts))[:, None, None]
    h = np.roll(np.fft.fft(markov, axis=0), -shift, axis=0)
    return np.exp(-1j * grid)[:, None, None] * h


def _aliasing_gain(squares, k: np.ndarray, n_pts: int, omega: complex) -> np.ndarray | None:
    """G = (I - w A^N)^{-1} K from squares = [A, A^2, ..., A^(2^j)], 2^j <= N,
    or None when it is not finite.

    A^N is the product of the squares at the set bits of N.  Once
    ||A^N||_1 <= eps, G = K to working precision (||G - K||_1 <= eps ||G||_1),
    and it is returned without the excess chain or the solve.  Otherwise the
    excesses A^(2^j) - I are kept apart, E_2b = E_b (A^b + I), so that a root
    near +-1 keeps its small 1 - mu^N, A^N - I folds over the set bits of N
    by A^(a+b) - I = (A^a - I) A^b + (A^b - I), and one complex solve gives G.
    """
    with np.errstate(all="ignore"):
        power = functools.reduce(np.matmul, [sq for j, sq in enumerate(squares) if n_pts >> j & 1])
        if np.abs(power).sum(axis=0).max(initial=0.0) <= _EPS:
            return k
        eye = np.eye(len(k))
        ex, excess = squares[0] - eye, np.zeros_like(eye)
        for j, sq in enumerate(squares):
            if j:
                ex = ex @ (squares[j - 1] + eye)
            if n_pts >> j & 1:
                excess = excess @ sq + ex
    if not np.isfinite(excess).all():
        return None
    return np.linalg.solve((1.0 - omega) * eye - omega * excess, k)


def _transfer_dense(a: np.ndarray, c: np.ndarray, k: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """C (e^{j lambda} I - A)^{-1} K by one resolvent solve per grid point.

    The (chunk, n, n) complex stacks hold at most DENSE_CHUNK_BYTES, or one matrix.
    """
    n = a.shape[0]
    chunk = max(1, DENSE_CHUNK_BYTES // max(1, 16 * n * n))
    diag = np.arange(n)
    h = np.empty((len(grid), c.shape[0], k.shape[1]), dtype=complex)
    for start in range(0, len(grid), chunk):
        z = np.exp(1j * grid[start : start + chunk])  # L^{-1} on the unit circle
        m = np.empty((len(z), n, n), dtype=complex)
        m[:] = -a
        m[:, diag, diag] += z[:, None]
        try:
            x = np.linalg.solve(m, np.broadcast_to(k, (len(z), *k.shape)))
        except np.linalg.LinAlgError as exc:  # unreachable for stable A
            message = "pole on the grid: e^{j lambda} is an eigenvalue of A"
            raise PreconditionError(message) from exc
        h[start : start + chunk] = c @ x
    return h


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class JointPartition:
    """Split of a p-dimensional output into a leading X block and a trailing Y block.

    The one reader of block and direction names: ``block("x" | "y")`` is a block's
    rows, ``direction("y->x" | "x->y")`` the (target, source) rows of a measure.
    """

    px: int
    py: int

    def __post_init__(self) -> None:
        if not (_is_int(self.px) and _is_int(self.py)):
            raise ValueError("partition block sizes must be integers")
        if self.px < 1 or self.py < 1:
            raise ValueError("both blocks of a partition must be non-empty")
        object.__setattr__(self, "px", int(self.px))
        object.__setattr__(self, "py", int(self.py))

    @property
    def p(self) -> int:
        return self.px + self.py

    @property
    def x(self) -> slice:
        return slice(0, self.px)

    @property
    def y(self) -> slice:
        return slice(self.px, self.px + self.py)

    def block(self, name: str) -> slice:
        if name not in ("x", "y"):
            raise ValueError("block must be 'x' or 'y'")
        return self.x if name == "x" else self.y

    def direction(self, d: str) -> tuple[slice, slice]:
        if d not in ("y->x", "x->y"):
            raise ValueError("direction must be 'y->x' or 'x->y'")
        return (self.x, self.y) if d == "y->x" else (self.y, self.x)


# Shape of each model matrix in the state dimension n (rows of A) and the
# output dimension p (rows of C).
_SHAPES = {"A": "nn", "C": "pn", "K": "np", "V": "pp", "Q": "nn", "R": "pp", "S": "np"}
_COVARIANCES = ("V", "Q", "R")


class _StateSpace:
    """The reader, builder and dimensions that SSModel and ISSModel share.

    Arguments are read once, where they enter the package: the public
    constructor reads each matrix field with ``_as_matrix``, each covariance
    (V, Q, R) also with ``_check_symmetric``, checks the shapes against
    _SHAPES and the partition against p.  A model of arrays the package
    computed is made by ``_build``, which reads nothing again.
    """

    def __post_init__(self) -> None:
        fields = {}
        for f in self._MATRICES:
            m = _as_matrix(getattr(self, f), f)
            fields[f] = _check_symmetric(m, f) if f in _COVARIANCES else m
        dims = {"n": len(fields["A"]), "p": len(fields["C"])}
        for f, m in fields.items():
            shape = tuple(dims[d] for d in _SHAPES[f])
            if m.shape != shape:
                raise ValueError(f"{f} must have shape {shape}, got {m.shape}")
            object.__setattr__(self, f, m)
        if self.partition is not None and self.partition.p != dims["p"]:
            raise ValueError("partition does not match the output dimension")

    @classmethod
    def _build(cls, *matrices: np.ndarray, partition: JointPartition | None = None):
        """The model of arrays the package computed, in the constructor's order.

        The arrays are frozen in place, not copied or read; the covariances
        are symmetrized, and ValueError names one that is not finite (a
        product such as K V K^T can overflow).
        """
        model = object.__new__(cls)
        for f, m in zip(cls._MATRICES, matrices):
            if f in _COVARIANCES:
                m = 0.5 * (m + m.T)
                if not np.isfinite(m).all():
                    raise ValueError(f"{f} contains non-finite entries")
            m.setflags(write=False)
            object.__setattr__(model, f, m)
        object.__setattr__(model, "partition", partition)
        return model

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class SSModel(_StateSpace):
    """State-space model with general process/measurement noise.

    x[t+1] = A x[t] + w[t],  z[t] = C x[t] + v[t], with joint noise covariance
    [[Q, S], [S^T, R]].  Input form for the Riccati solver.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    partition: JointPartition | None = None
    _MATRICES = ("A", "C", "Q", "R", "S")  # the matrix fields, in constructor order

    @classmethod
    def _driven(cls, a, c, g, d, w, partition: JointPartition | None = None) -> SSModel:
        """The one noise rule: the driven model x[t+1] = A x + G w, z = C x + D w,
        cov(w) = W, as (A, C, [G W G^T, D W D^T, G W D^T]), built by ``_build``.

        D is a matrix, or a slice that selects rows of the identity: then
        R = W[d, d] and S = (G W)[:, d] are read off, not multiplied.
        """
        gw = g @ w
        if isinstance(d, slice):
            return cls._build(a, c, gw @ g.T, w[d, d], gw[:, d], partition=partition)
        return cls._build(a, c, gw @ g.T, d @ w @ d.T, gw @ d.T, partition=partition)


@dataclass(frozen=True, eq=False)
class ISSModel(_StateSpace):
    """Innovations state-space model (A, C, K, V).

    x[t+1] = A x[t] + K e[t], z[t] = C x[t] + e[t], cov(e) = V.  The transfer
    function is H(L) = I + C (L^{-1} I - A)^{-1} K with spectrum H V H*.
    """

    A: np.ndarray
    C: np.ndarray
    K: np.ndarray
    V: np.ndarray
    partition: JointPartition | None = None
    _MATRICES = ("A", "C", "K", "V")  # the matrix fields, in constructor order

    def require_partition(self) -> JointPartition:
        if self.partition is None:
            raise ValueError("this operation needs a model with a two-block partition")
        return self.partition

    def frequency_response(self, grid: np.ndarray) -> np.ndarray:
        """Transfer function H(e^{-j lambda}) at each grid frequency, shape (N, p, p).

        Two rules give the same H.  On one period of a uniform grid,
        lambda_m = lambda_0 + 2 pi m / N (spacing 2 pi / N to within rounding),
        with A stable, H is the DFT of the aliased impulse response
        (frequency sampling, Oppenheim & Schafer):

            H_m = I + e^{-j lambda_m} FFT_k[C A^k (I - w A^N)^{-1} K e^{-j k lambda_0}],

        w = e^{-j N lambda_0}, k = 0..N-1.  It is exact, not truncated.  The
        Markov parameters C A^k G, G = (I - w A^N)^{-1} K, are split k = j s + i
        with s ~ sqrt(N) (baby steps C A^i, giant steps A^(j s) G, one product),
        in O(sqrt(N) p n^2 + N p^2 n + n^3 log N) time and
        O(sqrt(N) p n + N p^2 + n^2 log N) memory, never an (N p, n) stack of
        rows C A^k nor an (N, n, n) stack.  A^N is the product of the
        squares at the set bits of N; once ||A^N||_1 <= eps (machine
        epsilon), G = K to working precision (||G - K||_1 <= eps ||G||_1),
        and the rule skips the excess chain A^N - I (one n x n product per
        squaring) and the complex n x n solve, which leaves the squarings as
        its only n x n steps.  Otherwise (a root near the unit circle, a
        non-normal A, a short grid) it forms A^N - I by that chain, which
        keeps a root near +-1 accurate, and solves for G.  Stability must be
        proved by the squaring verdict of the one stability rule, continued
        from the last square A^(2^j), 2^j <= N (``_squarings``), that the
        rule computes anyway: some A^(2^j) of 1-norm below
        (1 - STABILITY_MARGIN)^(2^j).  Every other input (a non-uniform
        grid, or an A without that proof) takes the pointwise resolvent
        solve C (e^{j lambda} I - A)^{-1} K, in chunks of at most
        DENSE_CHUNK_BYTES of complex (n, n) matrices (one point at a time once
        a single matrix is larger).  The grid must pass the checks every
        spectral curve's grid passes (1-D, not empty, finite, strictly
        increasing, within one period), else ValueError.  A model with a pole
        on the grid (e^{j lambda} an eigenvalue of A at a grid frequency
        lambda) raises PreconditionError.

        H is remembered (``_remembered``) for this model object and grid only:
        the next call on the same model with a bit-identical grid, as in the
        two directions of ``gem_frequency``, copies it instead of evaluating
        again, and a call on another model or grid replaces it, so at most
        one H (N p^2 complex entries, 16 N p^2 bytes) is held, in pages of
        its own (``_off_heap``).  The grid is checked on every call, and the
        caller owns the returned array.
        """
        grid = _check_grid(grid)
        return _remembered("transfer", self, grid, lambda: self._transfer(grid)).copy()

    def _transfer(self, grid: np.ndarray) -> np.ndarray:
        """``frequency_response`` on a checked grid, evaluated afresh; the
        memo's frozen copy (``_off_heap``)."""
        h = _transfer_uniform(self.A, self.C, self.K, grid)
        if h is None:
            h = _transfer_dense(self.A, self.C, self.K, grid)
        h[:, np.arange(self.p), np.arange(self.p)] += 1.0
        return _off_heap(h)

    def as_ss(self) -> SSModel:
        """Equivalent general-noise form (A, C, [K V K^T, V, K V]): G = K, D = I, W = V."""
        return SSModel._driven(self.A, self.C, self.K, slice(None), self.V, self.partition)


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """Spectral values sampled on a frequency grid.

    Values are either a stack of Hermitian PSD matrices, shape (N, p, p), or a
    1-D array of nonnegative scalars (used for log-spectral ratio curves), and
    every value is finite.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        # Freeze copies, never the caller's arrays: _check_grid copies the grid, astype the values.
        grid = _check_grid(self.grid)
        values = _read_array(self.values, "values")
        if not (values.ndim == 1 or (values.ndim == 3 and values.shape[1] == values.shape[2])):
            raise ValueError("values must be (N,) scalars or an (N, p, p) matrix stack")
        if len(grid) != len(values):
            raise ValueError("grid and values must have matching leading length")
        if values.ndim == 1 and values.dtype.kind == "c":
            raise ValueError("values contain complex entries")
        values = values.astype(float if values.ndim == 1 else complex)
        if not np.isfinite(values).all():
            raise ValueError("values contain non-finite entries")
        if values.ndim == 1 and values.min(initial=0.0) < -1e-10:
            raise ValueError("scalar curve has a significantly negative value")
        if values.ndim == 3:
            scale = max(1.0, float(np.abs(values).max(initial=0.0)))
            herm_dev = np.abs(values - values.conj().transpose(0, 2, 1)).max(initial=0.0)
            if herm_dev > 1e-12 * scale:
                raise ValueError("matrix curve is not Hermitian within tolerance")
            values = 0.5 * (values + values.conj().transpose(0, 2, 1))
            min_eig = float(np.linalg.eigvalsh(values).min())
            if min_eig < -1e-10 * scale:
                raise ValueError("matrix curve is not positive semi-definite within tolerance")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def is_scalar(self) -> bool:
        return self.values.ndim == 1

    def __len__(self) -> int:
        return len(self.grid)


@dataclass(frozen=True, eq=False)
class AutocovarianceSequence:
    """Autocovariances Gamma(0), ..., Gamma(h_max) of a stationary process."""

    gammas: np.ndarray  # (h_max + 1, p, p)

    def __post_init__(self) -> None:
        g = _as_matrix(self.gammas, "gammas", 3)
        if g.shape[1] != g.shape[2]:
            raise ValueError("gammas must have shape (h_max + 1, p, p)")
        object.__setattr__(self, "gammas", g)

    @property
    def h_max(self) -> int:
        return self.gammas.shape[0] - 1

    def __getitem__(self, h: int) -> np.ndarray:
        """Gamma(h); negative lags resolve through Gamma(-h) = Gamma(h)^T."""
        if h < 0:
            return self.gammas[-h].T
        return self.gammas[h]


class Check(NamedTuple):
    name: str
    passed: bool
    witness: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on an ISS model."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name:<28s} {status:<5s} (witness {c.witness:.6g})")
        return "\n".join(lines)


class PbhResult(NamedTuple):
    passed: bool
    witness: complex | None
    margin: float


def _reachable_basis(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Orthonormal basis of the subspace reachable from b under a, and its margin.

    Orthogonal staircase (Paige 1981, Van Dooren 1981), one SVD per Krylov block.
    The first block is b itself, deflated at tol * max(1, ||b||_2), read off its own
    singular values; each later block is a times the directions just kept,
    orthogonalized twice against the basis and deflated at tol * max(1, ||a||_2),
    computed only when a second block is needed.  A pair whose first block spans
    the state therefore costs one SVD.  The margin is the least singular value
    kept, or the largest dropped (0.0 if none).
    """
    basis, block, margin = np.zeros((a.shape[0], 0)), b, np.inf
    while basis.shape[1] < a.shape[0]:
        u, sing, _ = np.linalg.svd(block, full_matrices=False)
        if block is b:
            floor = tol * max(1.0, float(sing.max(initial=0.0)))
        keep = sing > floor
        if not keep.any():
            return basis, float(sing.max(initial=0.0))
        basis = np.hstack([basis, u[:, keep]])
        margin = min(margin, float(sing[keep].min()))
        if basis.shape[1] == a.shape[0]:
            break
        if block is b:
            floor = tol * max(1.0, float(np.linalg.norm(a, 2)))
        block = a @ u[:, keep]
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
    return basis, margin


def pbh_test(a, b, mode: str = "controllable") -> PbhResult:
    """PBH test of a matrix pair, by ``gc_classify``'s orthogonal staircase.

    Parameters
    ----------
    a, b : array_like
        System pair. For ``mode="detectable"`` pass b = C^T of the pair (A, C).
    mode : {"controllable", "stabilizable", "detectable"}
        Controllability asks that the subspace reachable from b span the state
        space; stabilizability that every eigenvalue of the unreachable Kalman
        block (a compressed onto the complement of that subspace) have modulus
        below 1 - 1e-12, and detectability is that on the transposed pair.

    Returns
    -------
    PbhResult
        ``passed`` flag, the largest-modulus eigenvalue of the unreachable block
        as ``witness`` (None when the test passes) and the staircase margin.
        Stabilizability and detectability pass at once, with margin inf, when a
        has no eigenvalue of modulus >= 1 - 1e-12; that premise is decided by
        the one stability rule ``_is_stable``, as stationarity is (a squaring
        certificate, or the trace bound's disproof, else the eigenvalues), so
        a certified stable a, or an a whose squarings' trace proves it
        unstable, costs no eigenvalue computation.
    """
    a, b = _as_matrix(a, "a"), _as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ValueError("a must be a square matrix")
    if b.shape[0] != a.shape[0]:
        raise ValueError("b must have as many rows as a")
    if mode not in ("controllable", "stabilizable", "detectable"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "detectable":
        a = a.T
    if mode != "controllable" and _is_stable(a):
        return PbhResult(True, None, np.inf)  # no unstable eigenvalue to inspect
    basis, margin = _reachable_basis(a, b, PBH_TOL)
    if basis.shape[1] == a.shape[0]:
        return PbhResult(True, None, margin)
    comp = np.linalg.qr(np.hstack([basis, np.eye(a.shape[0])]))[0][:, basis.shape[1] :]
    modes = np.linalg.eigvals(comp.T @ a @ comp)  # the unreachable Kalman block
    worst = complex(modes[np.argmax(np.abs(modes))])
    if mode != "controllable" and abs(worst) < 1.0 - STABILITY_MARGIN:
        return PbhResult(True, None, margin)
    return PbhResult(False, worst, margin)


def validate_iss(model: ISSModel) -> ValidationReport:
    """Structural validity report for an ISS model.

    Checks V positive definite, stability of A - K C (minimum phase),
    detectability of (A, C), controllability of (A, K), and stability of A.
    rho(A), which the report carries, is computed first: a stable A makes
    detectability the vacuous pass (margin inf) that ``pbh_test`` would
    return, without its squaring certificate, and its verdict fills the
    memo's stationarity slot (``require_stationary``), so an analysis of
    the same model object certifies nothing again.  An unstable A is still
    tested by ``pbh_test``, with its witness.
    """
    rho_a = spectral_radius(model.A)
    stable = rho_a < 1.0 - STABILITY_MARGIN
    _remembered("stationary", model, None, lambda: stable)
    checks: list[Check] = []

    min_eig = float(np.linalg.eigvalsh(model.V).min())
    checks.append(Check("V positive definite", min_eig > 0.0, min_eig))

    rho_err = spectral_radius(model.A - model.K @ model.C)
    checks.append(Check("A - KC stable", rho_err < 1.0 - STABILITY_MARGIN, rho_err))

    det = PbhResult(True, None, np.inf) if stable else pbh_test(model.A, model.C.T, "detectable")
    checks.append(Check("(A, C) detectable", det.passed, det.margin))

    ctr = pbh_test(model.A, model.K, "controllable")
    checks.append(Check("(A, K) controllable", ctr.passed, ctr.margin))

    checks.append(Check("A stable", stable, rho_a))

    return ValidationReport(tuple(checks))


def require_stationary(model: ISSModel) -> None:
    """Raise unless the state transition matrix is stable.

    Stability is the one rule ``_is_stable``, so the eigenvalues of A are
    computed only when the squaring verdict decides nothing, or for the
    error message, which names the spectral radius.  The verdict is
    remembered (``_remembered``) for the last model object asked about, so
    the repeated checks of one analysis (both submodels of
    ``gem_time_domain``, both directions of ``gem_frequency``) decide it
    once; ``validate_iss`` fills the same slot from the eigenvalues it
    reports, so an analysis after it decides nothing.  An unstable model
    raises the same error on every call.
    """
    if not _remembered("stationary", model, None, lambda: _is_stable(model.A)):
        rho = spectral_radius(model.A)
        raise PreconditionError(f"model is not stationary: spectral radius(A) = {rho:.6g}")


def var_to_iss(
    coefficients,
    sigma,
    partition: JointPartition | None = None,
) -> ISSModel:
    """Convert a stable VAR(r) to its companion-form ISS model.

    Parameters
    ----------
    coefficients : sequence of (p, p) arrays
        Lag coefficient matrices A_1, ..., A_r.
    sigma : (p, p) array
        Positive definite innovation covariance.
    partition : JointPartition, optional
        Output partition to attach to the resulting model.

    Returns
    -------
    ISSModel
        Model with companion state matrix, C = [A_1 ... A_r] and K = [I; 0].

    Raises
    ------
    ValueError
        If a lag or sigma is not a real, finite 2-D array (``_as_matrix``), the
        shapes disagree, sigma is not symmetric, or the partition does not
        match the output dimension.
    PreconditionError
        If the companion matrix is unstable or sigma is not positive definite.
    """
    c, sigma, _ = _read_var(coefficients, sigma)
    if partition is not None and partition.p != len(sigma):
        raise ValueError("partition does not match the output dimension")
    return _companion_iss(c, sigma, partition)


def _read_var(coefficients, sigma) -> tuple[np.ndarray, np.ndarray, int]:
    """The one reader of a VAR(r) argument: (C, sigma, r), C = [A_1 ... A_r]
    the (p, rp) stacked lags.  Each lag is read as ``coefficients[i]`` and
    sigma as a symmetric matrix (``_as_matrix``); ValueError when there is no
    lag or a lag does not have sigma's square shape."""
    lags = [_as_matrix(a, f"coefficients[{i}]") for i, a in enumerate(coefficients)]
    if not lags:
        raise ValueError("need at least one lag coefficient matrix")
    sigma = _check_symmetric(_as_matrix(sigma, "sigma"), "sigma")
    for i, a in enumerate(lags):
        if a.shape != sigma.shape:
            raise ValueError(f"coefficients[{i}] has shape {a.shape}, not sigma's {sigma.shape}")
    return np.hstack(lags), sigma, len(lags)


def _companion_iss(c: np.ndarray, sigma: np.ndarray, partition: JointPartition | None) -> ISSModel:
    """``var_to_iss`` on stacked lags C = [A_1 ... A_r], a sigma and a partition
    already read and checked."""
    _cholesky(sigma, "sigma must be positive definite")
    p, n = c.shape
    companion = np.eye(n, k=-p)  # the shift rows [I 0] below the lag rows C
    companion[:p] = c
    if not _is_stable(companion):
        rho = spectral_radius(companion)
        raise PreconditionError(f"VAR is unstable: companion spectral radius = {rho:.6g}")
    return ISSModel._build(companion, c, np.eye(n, p), sigma, partition=partition)


def spectrum_of_iss(model: ISSModel, grid: np.ndarray | None = None) -> SpectralCurve:
    """Spectral density matrix f(lambda) = H V H* on a frequency grid.

    The model must be stationary. The default grid is the uniform 4096-point
    grid on [-pi, pi).
    """
    require_stationary(model)
    grid = default_grid() if grid is None else _check_grid(grid)
    h = model.frequency_response(grid)
    return SpectralCurve(grid, np.einsum("nij,jk,nlk->nil", h, model.V, h.conj()))


def _converged(step: np.ndarray, p: np.ndarray, tol: float) -> bool:
    return np.linalg.norm(step) <= tol * max(1.0, np.linalg.norm(p))


def _doubling(a_k, g, x_next, shift, tol, done, history=None):
    """The one doubling loop (Chu, Fan & Lin 2005): (shift + X, A_k, steps).

    W = I + G_k H_k, A_{k+1} = A_k W^{-1} A_k, G_{k+1} = G_k + A_k W^{-1} G_k A_k^T
    and H_{k+1} = H_k + A_k^T H_k W^{-1} A_k from (a_k, g, x_next).  g None is
    G = 0: W = I, no solve, H_k is Smith's 2^k-term sum of X = A_0^T X A_0 + H_0
    and A_k = A_0^(2^k).  Step done + 1 takes X = H_0, each later one a doubling,
    until consecutive X differ by at most tol * max(1, ||shift + X||_F); history
    gets shift + X per step.  ConvergenceError after step _MAX_DOUBLINGS, read
    at call time, or when a step overflows or meets a singular W.
    """
    n = len(x_next)
    x, eye = np.zeros((n, n)), np.eye(n)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(done + 1, _MAX_DOUBLINGS + 1):
                if step > done + 1:
                    if g is None:
                        w_inv_a = a_k
                    else:
                        # One solve gives W^{-1} [A_k, G_k].
                        w_inv = np.linalg.solve(eye + g @ x, np.concatenate((a_k, g), axis=1))
                        w_inv_a, w_inv_g = w_inv[:, :n], w_inv[:, n:]
                        g = g + a_k @ w_inv_g @ a_k.T
                        g = 0.5 * (g + g.T)
                    x_next = x + a_k.T @ x @ w_inv_a
                    x_next = 0.5 * (x_next + x_next.T)
                    a_k = a_k @ w_inv_a
                diff = x_next - x
                x = x_next
                p = shift + x
                if history is not None:
                    history.append(p.copy())
                if _converged(diff, p, tol):
                    return p, a_k, step
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"doubling diverged at step {step}") from exc
    raise ConvergenceError(f"doubling did not converge in {_MAX_DOUBLINGS} steps")


def solve_lyapunov(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve P = A P A^T + W for stable A, rho(A) < 1 - STABILITY_MARGIN.

    Smith's iteration, the G = 0 case of the one doubling loop, to the
    relative tolerance LYAPUNOV_TOL.  Stability is then decided by the one
    rule ``_is_stable``, its squaring verdict continuing from the loop's
    last square A^(2^j) (from A when the loop fails).  Raises
    PreconditionError naming the spectral radius (computed for that message
    only) of an unstable A, even one that W never reaches, and
    ConvergenceError ("Lyapunov doubling ...") when the loop fails on a
    stable A.  ValueError unless a and w are real,
    finite 2-D arrays (``_as_matrix``), then unless a is square and w of its
    shape.
    """
    a, w = _as_matrix(a, "a"), _as_matrix(w, "w")
    if a.shape[0] != a.shape[1] or w.shape != a.shape:
        raise ValueError("a must be a square matrix and w of the same shape")
    failure, power, j = None, None, 0
    try:
        p, power, steps = _doubling(a.T, None, 0.5 * (w + w.T), 0.0, LYAPUNOV_TOL, 0)
        power, j = power.T, steps - 1
    except ConvergenceError as exc:
        failure = exc
    if not _is_stable(a, power, j):
        rho = spectral_radius(a)
        msg = f"Lyapunov equation needs stable A, spectral radius = {rho:.6g}"
        raise PreconditionError(msg) from failure
    if failure is not None:
        raise ConvergenceError(f"Lyapunov {failure}") from failure
    return p


def autocovariance_of_iss(model: ISSModel, h_max: int) -> AutocovarianceSequence:
    """Autocovariances Gamma(0..h_max) of a stationary ISS model.

    Uses the state covariance Pi of the Lyapunov equation on Q = K V K^T (``as_ss``):
    Gamma(0) = C Pi C^T + V and Gamma(h) = C A^{h-1} (A Pi C^T + K V), h >= 1.
    """
    if not _is_int(h_max) or h_max < 0:
        raise ValueError("h_max must be a nonnegative integer")
    h_max = int(h_max)
    require_stationary(model)
    noise = model.as_ss()
    pi = solve_lyapunov(model.A, noise.Q)
    gammas = np.empty((h_max + 1, model.p, model.p))
    g0 = model.C @ pi @ model.C.T + model.V
    gammas[0] = 0.5 * (g0 + g0.T)
    x = model.A @ pi @ model.C.T + noise.S
    for h in range(1, h_max + 1):
        gammas[h] = model.C @ x
        x = model.A @ x
    return AutocovarianceSequence(gammas)
