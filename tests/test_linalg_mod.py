"""The one exact product mod q, ``matmul_mod``, against Python-integer
products, a guard that no other dense product mod q is written inline, and
root multiplicities of polynomials with known factors."""

import ast
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from acdlab import chartab, linalg_mod
from acdlab.errors import InputError
from acdlab.linalg_mod import _quotients_by_roots, _root_multiplicities, matmul_mod, poly_roots_mod


def integer_product(A, B, q):
    return [[sum(int(x) * int(y) for x, y in zip(a, b)) % q for b in zip(*B)] for a in A]


class TestMatmulMod:
    # k = 4 in the split-prime rule: the largest q whose slices hold four terms.
    q = chartab._split_primes(1, 4, 1)[0]

    def test_slices_against_integer_products(self):
        q = self.q
        assert (2**53 - 1) // (q - 1) ** 2 == 4
        rng = np.random.default_rng(3)
        A = rng.integers(0, q, size=(3, 10))
        B = rng.integers(0, q, size=(10, 4))
        assert matmul_mod(A, B, q).tolist() == integer_product(A, B, q)
        # All entries q - 1: an unsliced float64 sum of ten terms passes 2^53.
        full = np.full((2, 10), q - 1)
        assert 10 * (q - 1) ** 2 > 2**53
        assert matmul_mod(full, full.T, q).tolist() == integer_product(full, full.T, q)

    def test_vector_right_operand(self):
        q = self.q
        rng = np.random.default_rng(5)
        A = rng.integers(0, q, size=(3, 10))
        b = rng.integers(0, q, size=10)
        got = matmul_mod(A, b, q)
        assert got.shape == (3,) and got.dtype == np.int64
        assert got.tolist() == [row[0] for row in integer_product(A, b[:, None], q)]

    def test_empty_inner_dimension(self):
        A = np.zeros((3, 0), dtype=np.int64)
        assert matmul_mod(A, np.zeros((0, 4), dtype=np.int64), 7).tolist() == [[0] * 4] * 3
        assert matmul_mod(A, np.zeros(0, dtype=np.int64), 7).tolist() == [0] * 3

    def test_modulus_beyond_float64_raises(self):
        top = 1 + isqrt(2**53 - 1)  # the largest q with (q - 1)^2 < 2^53
        A = np.ones((1, 1), dtype=np.int64)
        assert matmul_mod(A, A, top).tolist() == [[1]]
        for q in (top + 1, 2**31 - 1, 1):
            with pytest.raises(InputError, match="matmul_mod"):
                matmul_mod(A, A, q)


def test_pipelined_divisions_match_one_at_a_time():
    def divide(f, lam, q):  # f / (t - lam), low first: quotient and remainder
        quotient, acc = [0] * (len(f) - 1), f[-1]
        for k in range(len(f) - 2, -1, -1):
            quotient[k], acc = acc, (f[k] + lam * acc) % q
        return quotient, acc

    q, lam = 101, np.array([0, 5, 100])
    F = np.random.default_rng(11).integers(0, q, size=(3, 9))
    for times in (1, 2, 5, 8, 9):  # 9: the last division is of a constant
        Q, R = _quotients_by_roots(F, lam, q, times)
        for i in range(3):
            f, remainders = F[i].tolist(), []
            for _ in range(times):
                f, r = divide(f, int(lam[i]), q)
                remainders.append(r)
            assert Q[i].tolist() == f and R[i].tolist() == remainders


# Multiplicities of q or more, where f^(j)(lam) / j! is not defined mod q;
# the quadratic factor has no root in F_q, so f does not split.
@pytest.mark.parametrize("q, mults, quadratic", [
    (2, {0: 3, 1: 2}, [1, 1, 1]),
    (2, {1: 5}, [1, 1, 1]),
    (3, {0: 3, 1: 1, 2: 7}, [1, 0, 1]),
    (5, {0: 1, 1: 6, 2: 2, 4: 5}, [2, 0, 1]),
    (101, {3: 1, 50: 2, 100: 1}, [99, 0, 1]),
    (101, {7: 1, 9: 1, 60: 1}, []),
])
def test_root_multiplicities_of_expanded_products(q, mults, quadratic):
    roots = sorted(mults)
    f = np.array([1], dtype=np.int64)
    for g in [[-lam % q, 1] for lam in roots for _ in range(mults[lam])] + [quadratic or [1]]:
        f = np.convolve(f, g) % q
    assert poly_roots_mod(f, q) == roots
    assert _root_multiplicities(f, roots, q).tolist() == [mults[lam] for lam in roots]


def test_only_matmul_mod_multiplies_matrices():
    # Every dense product mod q in the table engine goes through matmul_mod;
    # an inline `X @ Y` there would run int64 products off BLAS, or float64
    # products that may round.
    outside = []
    for module in (chartab, linalg_mod):
        tree = ast.parse(Path(module.__file__).read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "matmul_mod":
                inside.update(map(id, ast.walk(node)))
        outside += [f"{module.__name__}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    and id(node) not in inside]
    assert outside == []
