"""Exact linear algebra over a prime field F_q on int64 numpy arrays.

Every dense product mod q goes through ``matmul_mod``: the operands, residues
in [0, q), are multiplied in float64 (numpy hands that to BLAS), with the
inner dimension cut into slices short enough that every partial sum is an
integer below 2^53, so each product is exact; the slices are reduced and
added in int64.  Eliminations reduce mod q after each step.  Everything is
deterministic: pivots are chosen first-nonzero, roots are listed ascending.

Left eigenspaces come from one block Krylov pass per matrix
(``left_eigenspaces_mod``).  Each root's multiplicity is read off the
characteristic polynomial, and the block has as many rows as the largest
multiplicity, one more where misses would be frequent, capped so that the
pass stays within a few matrix products.  A root whose block image falls
short of its multiplicity is reported on its own, and the caller takes a
null space (``nullspace_mod``) for that root alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, InputError


def matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """A @ B mod q as int64, for a matrix A and a vector or matrix B with
    integer entries in [0, q).

    The inner dimension is summed in float64, in slices of at most
    (2^53 - 1) // (q - 1)^2 terms.  Every term is a nonnegative integer, so
    every partial sum of a slice is an integer below 2^53, which float64
    holds exactly, in whatever order BLAS adds the terms.
    """
    if q < 2 or (q - 1) ** 2 >= 2**53:
        raise InputError(f"matmul_mod needs 1 < q and (q - 1)^2 < 2^53, not q = {q}")
    step = (2**53 - 1) // (q - 1) ** 2
    out = (A[:, :step].astype(np.float64) @ B[:step].astype(np.float64)).astype(np.int64) % q
    for s in range(step, A.shape[1], step):
        out += (A[:, s:s + step].astype(np.float64) @ B[s:s + step].astype(np.float64)).astype(np.int64)
        out %= q
    return out


def rref_mod(A: np.ndarray, q: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod q; returns (nonzero rows, pivot columns)."""
    try:
        R = np.mod(np.asarray(A, dtype=np.int64), q)
    except ValueError as exc:  # ragged rows
        raise InputError("rref_mod needs a matrix") from exc
    if R.ndim != 2:
        raise InputError("rref_mod needs a matrix")
    rows, cols = R.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            if not R[r:].any():
                break
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, q) % q
        col = R[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            R[hit] = (R[hit] - np.outer(col[hit], R[r])) % q
        pivots.append(c)
        r += 1
    return R[:r], pivots


def nullspace_mod(A: np.ndarray, q: int) -> np.ndarray:
    """Row basis of the right null space {v : A v = 0} mod q, in RREF order."""
    R, pivots = rref_mod(A, q)
    cols = A.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(R[i, fc])) % q
    return basis


def charpoly_mod(A: np.ndarray, q: int) -> np.ndarray:
    """Coefficients of det(xI - A) mod q, lowest degree first, monic.

    Reduces A to upper Hessenberg form by similarity transforms, then runs the
    leading-minor recurrence on the Hessenberg matrix.
    """
    H = np.mod(np.asarray(A, dtype=np.int64), q)
    n = H.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    for c in range(n - 2):
        nz = np.nonzero(H[c + 1:, c])[0]
        if nz.size == 0:
            continue
        piv = c + 1 + int(nz[0])
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), -1, q)
        for r in range(c + 2, n):
            if H[r, c] != 0:
                f = int(H[r, c]) * inv % q
                H[r] = (H[r] - f * H[c + 1]) % q
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % q
    # p_k = charpoly of the leading k-by-k block; subdiagonal products feed the
    # correction terms of the Hessenberg determinant expansion.
    polys: List[np.ndarray] = [np.array([1], dtype=np.int64)]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        # (x - H[k-1,k-1]) * prev
        pk = np.zeros(k + 1, dtype=np.int64)
        pk[1:] += prev
        pk[:-1] -= int(H[k - 1, k - 1]) * prev
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * int(H[i, i - 1]) % q
            coeff = int(H[i - 1, k - 1]) * prod % q
            if coeff:
                pk[: i] -= coeff * polys[i - 1]
            if prod == 0:
                break
        polys.append(np.mod(pk, q))
    return polys[n]


def _quotients_by_roots(F: np.ndarray, lam: np.ndarray, q: int, times: int = 1
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Divide F[i] (one polynomial per root, low first) by t - lam[i] ``times``
    times over, for every i at once; returns the last quotients as rows and
    the remainders of the successive divisions, mod q.  Step s rewrites
    coefficient n-1-s+p of each division p <= s, once division p-1 has left it
    and division p has rewritten the one above, so the loop takes n steps."""
    A = F % q
    n = A.shape[1] - 1
    for s in range(n):
        lo, hi = n - 1 - s, n - s + min(s, times - 1)
        A[:, lo:hi] = (A[:, lo:hi] + lam[:, None] * A[:, lo + 1:hi + 1]) % q
    return A[:, times:], A[:, :times]


def _root_multiplicities(coeffs: np.ndarray, roots: List[int], q: int) -> np.ndarray:
    """Multiplicity of each given root of the monic polynomial (low first):
    the number of divisions by t - lam that leave remainder zero, which holds
    in every characteristic, also for multiplicities of q or more."""
    n = len(coeffs) - 1
    d = len(roots)
    if d == n:
        return np.ones(d, dtype=np.int64)
    # The other roots leave each one a multiplicity of at most n - d + 1, so
    # its first nonzero remainder is among the first n - d + 2.
    F = np.tile(np.asarray(coeffs, dtype=np.int64), (d, 1))
    R = _quotients_by_roots(F, np.asarray(roots, dtype=np.int64), q, n - d + 2)[1]
    return (R != 0).argmax(axis=1)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise on uint64 (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _block_for(B: np.ndarray, b: int, q: int) -> np.ndarray:
    """A b by s block of pseudo-random residues mod q, seeded by the entries of B.

    The seed makes the block differ between the many restricted matrices of
    one split, so a block that misses an eigenvector of one of them does not
    miss it in all of them.
    """
    s = B.shape[0]
    gold = np.uint64(0x9E3779B97F4A7C15)
    seed = (_mix(np.arange(1, s * s + 1, dtype=np.uint64) * gold)
            * np.mod(B, q).ravel().astype(np.uint64)).sum(dtype=np.uint64)
    z = _mix((np.arange(1, b * s + 1, dtype=np.uint64) + seed) * gold)
    return (z % np.uint64(q)).astype(np.int64).reshape(b, s)


def left_eigenspaces_mod(
    B: np.ndarray, charpoly: np.ndarray, roots: List[int], q: int
) -> List[Optional[np.ndarray]]:
    """RREF row bases of the left eigenspaces {x : x B = lam x}, one per root.

    roots are the distinct roots in F_q of the characteristic polynomial f of
    the s by s matrix B, and their multiplicities are read off f.  With
    m(t) = prod_j (t - roots[j]) and g_i = m / (t - roots[i]), g_i(B) maps
    onto the i-th eigenspace when B is diagonalizable, so the rows of
    X_i = Y g_i(B) span that eigenspace for a generic block Y of at least as
    many rows as its multiplicity.  All X_i come from one block Krylov pass
    Y B^k (k < len(roots)) and one product with the coefficients of the g_i:
    a few matrix products for all roots together, not one elimination each.

    The block Y is pseudo-random, seeded by the entries of B, not a
    structured vector: for a class algebra with q = s + 1, y = (1, ..., s) has
    no component along the trivial character, as 1 + ... + s = 0 mod q.  With
    b rows it misses part of an eigenspace of multiplicity mu with chance
    about q^-(b - mu + 1).  b is the largest multiplicity, plus one spare row
    when more than q/3 roots have it (a miss per three matrices or more
    without it, and each miss costs a null space); b is at most
    4s / len(roots).

    The basis E for roots[i] is kept only if it has as many rows as the
    multiplicity and E B = roots[i] E; the eigenspace has at most that
    dimension, so E then spans all of it.  Otherwise that root's entry is
    None and the caller takes its null space alone.  That happens when the
    block misses part of the eigenspace or the multiplicity exceeds b, or
    when B is not diagonalizable.
    """
    if not roots:
        return []
    s = B.shape[0]
    d = len(roots)
    lam = np.asarray(roots, dtype=np.int64)
    mult = _root_multiplicities(charpoly, roots, q)
    top = int(mult.max())
    # The cap keeps the pass within a few s by s products, and K within 4 s^2
    # entries, when one root of large multiplicity sits among many others.
    spare = 3 * int((mult == top).sum()) > q
    b = min(top + spare, 4 * s // d)
    if d == s:
        m = np.asarray(charpoly, dtype=np.int64)  # s distinct roots: m = f
    else:
        m = np.array([1], dtype=np.int64)
        for r in roots:
            m = (np.concatenate(([0], m)) - r * np.concatenate((m, [0]))) % q
    g = _quotients_by_roots(np.broadcast_to(m, (d, len(m))), lam, q)[0]
    K = np.empty((d, b, s), dtype=np.int64)
    K[0] = _block_for(B, b, q)
    for k in range(1, d):
        K[k] = matmul_mod(K[k - 1], B, q)
    X = matmul_mod(g, K.reshape(d, b * s), q).reshape(d, b, s)
    out: List[Optional[np.ndarray]] = [None] * d
    # A simple root's basis is its first nonzero row of X scaled to a leading
    # 1, for all simple roots at once; a repeated root's is the RREF of X_i.
    one = np.flatnonzero(mult == 1)
    if one.size:
        V = X[one, X[one].any(axis=2).argmax(axis=1)]
        lead = V[np.arange(one.size), (V != 0).argmax(axis=1)]
        V = V * np.array([pow(int(x), -1, q) if x else 0 for x in lead])[:, None] % q
        good = V.any(axis=1) & ~((matmul_mod(V, B, q) - lam[one, None] * V) % q).any(axis=1)
        for i, v in zip(one[good], V[good]):
            out[i] = v[None, :]
    for i in np.flatnonzero(mult > 1):
        E = rref_mod(X[i], q)[0]
        if E.shape[0] == mult[i] and not ((matmul_mod(E, B, q) - lam[i] * E) % q).any():
            out[i] = E
    return out


# The benchmark's tracer binds the eigenvector routine under its earlier name.
simple_left_eigenvectors_mod = left_eigenspaces_mod


def poly_roots_mod(coeffs: np.ndarray, q: int) -> List[int]:
    """Distinct roots in F_q of the polynomial with the given low-first coefficients.

    Exhaustive vectorized Horner scan over the field; fine for q up to ~10^6.
    """
    xs = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in np.asarray(coeffs, dtype=np.int64)[::-1]:
        acc = (acc * xs + int(c)) % q
    return [int(x) for x in np.nonzero(acc == 0)[0]]


def sqrt_mod(a: int, q: int) -> int:
    """A square root of a modulo an odd prime q (Tonelli-Shanks); a must be a QR."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        raise DomainError(f"{a} is not a quadratic residue mod {q}")
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, s, q)
    t = pow(a, s, q)
    r = pow(a, (s + 1) // 2, q)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m = i
        c = b * b % q
        t = t * c % q
        r = r * b % q
    return r
