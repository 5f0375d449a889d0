import dataclasses
import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import psifrac.calculus
import psifrac.operators
from oracles import (
    classical_e,
    form_matrix,
    right_integral_reference,
    stiffness_reference,
    tent_energy_reference,
    tent_form_reference,
)
from psifrac import (
    assemble_composed,
    build_pair,
    energy,
    make_spec,
    principal_eigenpair,
    solve_e,
    verify_weak_inequality,
)
from psifrac.core import PsiFunction
from psifrac.operators import energies

PI2 = math.pi**2


class TestFactoredAssembly:
    """At every alpha the form K is the tent form, checked against a
    reference summed tent by tent (steps at alpha = 1)."""

    @pytest.mark.parametrize("n", [33, 129])
    @pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
    def test_matches_right_matrix_times_left(self, psi, n):
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                spec = make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=n)
                op = assemble_composed(spec)
                got = form_matrix(op)
                # the midpoint rule of one plain product: 1.1e-13 of max|K|
                # at square psi, where the first cells are tiny; the value
                # at node 0 enters neither
                want = tent_form_reference(spec)
                assert np.all(got[:, 0] == 0.0) and np.all(want[:, 0] == 0.0)
                assert np.abs(got - want).max() <= 5e-13 * np.abs(want).max(), (alpha, beta)

    @pytest.mark.parametrize("alpha", [0.9, 0.75, 0.6])
    def test_no_nodal_derivative_below_alpha_one(self, alpha, monkeypatch):
        # the energy reads the operator's own tent table: no n x n nodal
        # D_left is built
        calls = []
        for module in (psifrac.calculus, psifrac.operators):
            for name in ("hilfer_derivative_matrix", "_left_derivative_entries"):
                if hasattr(module, name):
                    real = getattr(module, name)

                    def spy(*args, _real=real, _name=name, **kwargs):
                        calls.append(_name)
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(module, name, spy)
        for beta in (0.0, 0.5, 1.0):
            op = assemble_composed(make_spec(alpha=alpha, beta=beta, grid_n=65))
            energy(np.sin(np.pi * op.grid.x), op)
        assert calls == []


PSIS = ["identity", "exp_minus_one", "square", "log1p"]


class TestBandedInterior:
    """At alpha = 1 the interior block K_int is tridiagonal, the P1
    stiffness: products are two difference passes and solves two
    cumulative sums, with no LAPACK call.  Below, the tent table is K's
    triangular factor: solves and products go through it."""

    @pytest.mark.parametrize("n", [33, 129, 769])
    @pytest.mark.parametrize("psi", PSIS)
    def test_band_solve_and_products_match_dense(self, psi, n):
        op = assemble_composed(make_spec(alpha=1.0, psi=psi, grid_n=n))
        assert op.factorization == "stiffness"
        k = form_matrix(op)
        block = k[:, 1:-1]
        assert np.array_equal(block, np.triu(np.tril(block, 1), -1))
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n - 2)
        # normwise backward stable for the dense block: 1.5 eps at most here
        x = op.solve_form(b)
        scale = np.abs(block).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
        assert np.abs(block @ x - b).max() <= 4 * np.finfo(float).eps * scale
        # A's solve is K's of the right side times the tent masses
        got = op.solve_interior(b)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert _bitwise(got[1:-1], op.solve_form(op.w * b))
        u = rng.standard_normal(n)
        assert np.all(np.abs(op.form(u) - k @ u) <= 1e-14 * (np.abs(k) @ np.abs(u)))

    @pytest.mark.parametrize("n", [8, 9, 33, 129, 1025])
    @pytest.mark.parametrize("psi", PSIS)
    def test_stiffness_solve_by_backward_error(self, psi, n):
        # the solve's accuracy, not its bits, against K_int, the P1 stiffness
        # from its three diagonals.  Measured on this data: componentwise at most
        # 517 eps (log1p, n = 1025) and 41 eps at n = 129, at the rows next
        # to the walls, where x is a long cumulative sum that nearly
        # vanishes; normwise at most 0.94 eps.  Not worst-case bounds: over
        # 101 other right-hand sides the componentwise error reached
        # 8474 eps at n = 1025 and 529 eps at n = 33, the normwise 3.4 eps
        eps = np.finfo(float).eps
        spec = make_spec(alpha=1.0, psi=psi, grid_n=n)
        op = assemble_composed(spec)
        k = stiffness_reference(spec)
        w = psifrac.operators.tent_masses(op.grid.u)[1:-1]
        rhs = w * np.stack([np.random.default_rng(n).standard_normal(n - 2), np.ones(n - 2)])
        solved = op.solve_form(rhs)
        for b, x in zip(rhs, solved):
            assert _bitwise(x, op.solve_form(b.copy()))
            res = np.abs(k @ x - b)
            assert np.all(res <= n * eps * (np.abs(k) @ np.abs(x) + np.abs(b)))
            assert res.max() <= 2 * eps * (np.abs(k).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
        # the form is the two difference passes' own: s_{i-1} - s_i with s
        # the slopes of the field, the first f_1 / du_0
        f = np.random.default_rng(n + 1).standard_normal(n)
        f[-1] = 0.0
        du = np.diff(op.grid.u)
        s = np.diff(f) / du
        s[0] = f[1] / du[0]
        want = s[:-1] - s[1:]
        assert _bitwise(op.form(f), want)
        assert np.all(np.abs(k @ f[1:-1] - want) <= 4 * eps * (np.abs(k) @ np.abs(f[1:-1])))

    @pytest.mark.parametrize("alpha", [0.9, 0.75, 0.6])
    def test_fractional_block_stays_dense_and_bitwise(self, alpha):
        # the interior block is full.  Its solve, two block triangular solves
        # with V = table[1:] (K = V V^T) followed by the elimination of the
        # half tent at T with g = K^-1 e_last, has a normwise backward error
        # within twice that of the same steps by LAPACK's triangular solves
        # (1.62 times at most here, 1.2 eps), and the rows of a block are
        # bitwise single solves.  On a non-uniform grid: a uniform one keeps
        # the table's row 1 alone
        op = assemble_composed(make_spec(alpha=alpha, beta=0.5, psi="square", grid_n=129))
        assert op.factorization == "tent table"
        assert np.all(form_matrix(op)[:, 1:-1] != 0.0)
        table = op._a.table

        def k_solve(r):
            y = scipy.linalg.solve_triangular(table[1:].T, r, lower=True, trans=1)
            return scipy.linalg.solve_triangular(table[1:].T, y, lower=True, trans=0)

        g = k_solve(np.append(np.zeros(op.n - 2), 1.0))
        k_int = table[1:-1] @ table[1:-1].T
        bs = op.w * np.random.default_rng(7).standard_normal((3, op.n - 2))
        got = op.solve_form(bs)
        errors = []
        for b, x in zip(bs, got):
            z = k_solve(np.append(b, 0.0))
            want = z[:-1] - (z[-1] / g[-1]) * g[:-1]
            errors.append([_normwise_backward_error(k_int, y, b) for y in (x, want)])
            assert _bitwise(op.solve_form(b.copy()), x)
        ours, lapack = np.max(errors, axis=0)
        assert ours <= 2 * lapack

    @pytest.mark.parametrize("alpha", [0.9, 0.75, 0.6])
    def test_fractional_solve_matches_reference_by_backward_error(self, alpha):
        # below alpha = 1 the interior block is solved through the tent
        # table, with no LU.  Against the reference's block the normwise
        # backward error is at most 57 eps, the rounding by which the two
        # blocks differ.  Against the table's own block it is at most
        # 11.5 eps, measured as below
        eps = np.finfo(float).eps
        for psi in PSIS:
            for beta in (0.0, 0.5, 1.0):
                for n in (9, 33, 129):
                    spec = make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=n)
                    op = assemble_composed(spec)
                    # the uniform grid's solves are FFTs with row 1's series
                    # inverse, and meet the same bounds
                    want = "toeplitz" if psi == "identity" else "tent table"
                    assert op.factorization == want
                    b = op.w * np.random.default_rng(n).standard_normal(n - 2)
                    x = op.solve_form(b)
                    ref = tent_form_reference(spec)[:, 1:-1]
                    scale = np.abs(ref).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
                    assert np.abs(ref @ x - b).max() <= 256 * eps * scale, (psi, beta, n)
                    own = form_matrix(op)[:, 1:-1]
                    scale = (np.abs(own) @ np.abs(x) + np.abs(b)).max()
                    assert np.abs(own @ x - b).max() <= 16 * eps * scale, (psi, beta, n)
                    # the product is two passes over the table: 4.7 eps at most
                    v = np.concatenate(([0.0], b[::-1], [0.0]))
                    bound = 1e-14 * (np.abs(own) @ np.abs(v[1:-1]))
                    assert np.all(np.abs(op.form(v) - own @ v[1:-1]) <= bound), (psi, beta, n)

    def test_factorization_follows_the_band(self, monkeypatch):
        # no LAPACK solve or inverse at any alpha: cumulative sums at
        # alpha = 1; below, on a non-uniform grid, the tent table and the
        # inverses of its diagonal blocks, built at assembly in numpy, and
        # no dense LU, K or A; on a uniform grid, FFTs with the table's row 1
        for name in ("lu_factor", "lu_solve", "dlauum", "dsyr", "dgbtrf", "dgbtrs", "dtrtrs"):
            assert not hasattr(psifrac.operators, name), name
        calls = []
        for name in ("inv", "solve", "cholesky", "lstsq", "pinv"):
            real = getattr(np.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        for psi in ("square", "identity"):
            for alpha, n in [(1.0, 8), (1.0, 129), (0.9, 33), (0.75, 129), (0.75, 258)]:
                op = assemble_composed(make_spec(alpha=alpha, psi=psi, grid_n=n))
                principal_eigenpair(op, tol=1e-9)
                solve_e(op)
                if alpha == 1.0:
                    assert op.factorization == "stiffness"
                elif psi == "identity":
                    assert op.factorization == "toeplitz"
                else:
                    assert op.factorization == "tent table"
                    assert op._a.inv.shape == (-(-(n - 1) // 128), 128, 128)
        assert calls == []

    def test_non_finite_table_is_refused_at_assembly(self, monkeypatch):
        real = psifrac.operators._tent_table

        def with_nan(u, alpha):
            table = real(u, alpha)
            table[5, 9] = np.nan
            return table

        monkeypatch.setattr(psifrac.operators, "_tent_table", with_nan)
        with pytest.raises(ValueError, match="infs or NaNs"):
            assemble_composed(make_spec(alpha=0.75, psi="square", grid_n=33))


def _normwise_backward_error(k: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """||k x - b|| / (||k|| ||x|| + ||b||) in the max norm, in units of eps."""
    scale = np.abs(k).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(k @ x - b).max() / scale / np.finfo(float).eps)


def _tents(n: int, alpha: float, psi: str):
    """The tent-table operator on n uniform nodes of [0, 1], built from its parts (any n >= 3)."""
    u = PsiFunction.from_name(psi)(np.linspace(0.0, 1.0, n))
    table = psifrac.operators._tent_table(u, alpha)
    return psifrac.operators._Tents.of(table, psifrac.operators.tent_masses(u)[1:-1], np.diff(u))


def _lapack_k_solve(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b, K = v v^T, by LAPACK's triangular solves (dtrtrs)."""
    y, info = scipy.linalg.lapack.dtrtrs(v.T, b, lower=1, trans=1)
    assert info == 0
    x, info = scipy.linalg.lapack.dtrtrs(v.T, y, lower=1, trans=0)
    assert info == 0
    return x


class TestBlockTriangularSolve:
    """K^-1 b below alpha = 1 by block back-substitution with the inverses
    of V's diagonal blocks of 128 rows, against LAPACK's triangular solves
    by the normwise backward error for K = V V^T."""

    def _errors(self, t, bs) -> np.ndarray:
        v = t.table[1:]
        k = v @ v.T
        return np.array(
            [
                [
                    _normwise_backward_error(k, x, b)
                    for x in (psifrac.operators._k_solve(v, t.inv, b), _lapack_k_solve(v, b))
                ]
                for b in bs
            ]
        )

    @pytest.mark.parametrize("n", [65, 257, 1025])
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_within_twice_lapack(self, n, alpha):
        # measured: at most 1.39 times LAPACK's error, and 8.7 eps at most
        # (LAPACK's 8.5 eps there)
        for psi in PSIS:
            t = _tents(n, alpha, psi)
            bs = np.random.default_rng(n).standard_normal((4, n - 1))
            ours, lapack = self._errors(t, bs).max(axis=0)
            assert ours <= 2 * lapack, psi

    @pytest.mark.parametrize("n", [3, 4, 128, 129, 130, 257])
    @pytest.mark.parametrize("psi", PSIS)
    def test_block_edges(self, n, psi):
        # n - 1 rows: one short of, equal to, one over and twice the block
        # size, and the smallest tables; the last block is padded with the
        # identity, and its inverse keeps the padding
        t = _tents(n, 0.75, psi)
        v, inv = t.table[1:], t.inv
        m, nb = n - 1, -(-(n - 1) // 128)
        assert inv.shape == (nb, 128, 128)
        for k in range(nb):
            lo, hi = 128 * k, min(128 * k + 128, m)
            block = np.eye(128)
            block[: hi - lo, : hi - lo] = v[lo:hi, lo:hi]
            assert np.array_equal(inv[k], np.triu(inv[k]))
            assert np.abs(inv[k] @ block - np.eye(128)).max() <= 1e-12
        assert np.array_equal(inv[-1, m - 128 * (nb - 1) :, m - 128 * (nb - 1) :], np.eye(128 * nb - m))
        bs = np.random.default_rng(n).standard_normal((3, m))
        ours, lapack = self._errors(t, bs).max(axis=0)
        assert ours <= 2 * lapack + 2.0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 300),
        alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        psi=st.sampled_from(PSIS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, n, alpha, psi, seed):
        # within twice LAPACK's error plus 2 eps: on the smallest tables
        # LAPACK's can be exactly 0 and ours a fraction of eps
        t = _tents(n, alpha, psi)
        b = np.random.default_rng(seed).standard_normal((1, n - 1))
        ours, lapack = self._errors(t, b)[0]
        assert ours <= 2 * lapack + 2.0


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape and the same bytes: signed zeros count."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _toeplitz_table(u: np.ndarray, alpha: float) -> np.ndarray:
    """The table the Toeplitz class stands for: row i is the symbol shifted i - 1 cells right."""
    n = len(u)
    r, h = psifrac.operators._symbol(u, alpha)
    table = np.zeros((n, n - 1))
    for i in range(1, n - 1):
        table[i, i - 1 :] = r[: n - i]
    table[-1, -1] = h
    return table


def _dense(spec, table: np.ndarray):
    """The operator of spec kept as the given tent table, solved by block back-substitution."""
    u = spec.grid.u
    w = psifrac.operators.tent_masses(u)[1:-1]
    return dataclasses.replace(assemble_composed(spec), _a=psifrac.operators._Tents.of(table, w, np.diff(u)))


def _gaps(op, dense, seed: int) -> dict[str, float]:
    """form, apply_left, solve_form and energies of op against dense, in units of n eps of the sup."""
    n = op.n
    f = np.random.default_rng(seed).standard_normal((3, n))
    calls = {
        "form": lambda o: o.form(f),
        "left": lambda o: o.apply_left(f),
        "solve": lambda o: o.solve_form(f[:, 1:-1]),
        "energy": lambda o: energies(f, o),
    }
    gaps = {}
    for name, call in calls.items():
        got, want = call(op), call(dense)
        gaps[name] = float(np.abs(got - want).max() / np.abs(want).max() / (n * np.finfo(float).eps))
    return gaps


# The FFT products and solves against the same table's dense ones:
# measured at most 0.53 n eps (the solve) at exact progressions up to
# n = 1025, and 1.39 n eps (the solve; products 0.88, energies 0.90) over
# 11000 random specs of the property's range.
_FFT_BOUND = 2.0

# Against the block loop's table at a uniform grid that is not an exact
# progression, whose entries part from the symbol's shifts by about n eps
# of the sup: products and energies measured at most 1.61 n eps, the solve,
# which this spreads by K_int's conditioning, 48 n eps (n = 1000,
# alpha = 0.9) and 39 n eps over the property's range.
_TABLE_BOUND = {"form": 4.0, "left": 4.0, "energy": 4.0, "solve": 100.0}


def _symbol_is_the_block_loops(u: np.ndarray, alpha: float) -> bool:
    table = psifrac.operators._tent_table(u, alpha)
    r, h = psifrac.operators._symbol(u, alpha)
    return _bitwise(r, table[1]) and h == table[-1, -1]


class TestToeplitzTable:
    """On a uniform grid the operator keeps the tent table's row 1, its
    symbol, and its corner, and makes every product and solve an FFT."""

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", [9, 33, 65, 129, 257, 1025])
    @pytest.mark.parametrize("T", [1.0, 2.0, 7.0])
    def test_exact_progression_is_the_block_loop(self, T, n, alpha):
        # there the block loop's table is the Toeplitz one bit for bit, so
        # the two classes keep the same numbers
        u = np.linspace(0.0, T, n)
        assert np.all(np.diff(u) == u[1])
        assert _bitwise(psifrac.operators._tent_table(u, alpha), _toeplitz_table(u, alpha))
        assert _symbol_is_the_block_loops(u, alpha)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", [100, 769, 1000])
    @pytest.mark.parametrize("T", [0.3, 1.0])
    def test_other_uniform_grids_within_bound(self, T, n, alpha):
        spec = make_spec(alpha=alpha, grid_n=n, T=T)
        u = spec.grid.u
        assert not np.all(np.diff(u) == u[1])
        assert _symbol_is_the_block_loops(u, alpha)
        op = assemble_composed(spec)
        assert op.factorization == "toeplitz"
        for name, gap in _gaps(op, _dense(spec, psifrac.operators._tent_table(u, alpha)), n).items():
            assert gap <= _TABLE_BOUND[name], name
        for name, gap in _gaps(op, _dense(spec, _toeplitz_table(u, alpha)), n).items():
            assert gap <= _FFT_BOUND, name

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 300),
        alpha=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
        T=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uniform_property(self, n, alpha, T, seed):
        # built from its parts, since a spec wants n >= 8
        u = np.linspace(0.0, T, n)
        assert _symbol_is_the_block_loops(u, alpha)
        w, du = psifrac.operators.tent_masses(u)[1:-1], np.diff(u)
        toeplitz = psifrac.operators._Toeplitz.of(*psifrac.operators._symbol(u, alpha), w, du)
        op = _Parts(n, toeplitz, du)
        for table, bound in [
            (psifrac.operators._tent_table(u, alpha), _TABLE_BOUND),
            (_toeplitz_table(u, alpha), dict.fromkeys(_TABLE_BOUND, _FFT_BOUND)),
        ]:
            dense = _Parts(n, psifrac.operators._Tents.of(table, w, du), du)
            for name, gap in _gaps(op, dense, seed).items():
                assert gap <= bound[name], name

    @pytest.mark.parametrize("n", [65, 129, 257, 513, 769, 1025])
    def test_shifts_only_at_identity(self, n, monkeypatch):
        # only identity psi, the uniform grid, takes the Toeplitz class,
        # built from the 3-row table of the symbol; the other psi build
        # every row by the block loop and keep the table
        real = psifrac.operators._fill_tents
        rows = []

        def spy(table, u, alpha, m):
            rows.append((len(table), m))
            return real(table, u, alpha, m)

        monkeypatch.setattr(psifrac.operators, "_fill_tents", spy)
        for psi in PSIS:
            rows.clear()
            op = assemble_composed(make_spec(alpha=0.75, psi=psi, grid_n=n))
            if psi == "identity":
                assert op.factorization == "toeplitz" and rows == [(3, 1)], psi
            else:
                assert op.factorization == "tent table" and rows == [(n, n - 2)], psi

    def test_three_kernel_rows_raised_at_identity(self, monkeypatch):
        # the block loop raised about 574k kernel values at n = 1025
        real = np.power
        raised = []

        def spy(t, *args, **kwargs):
            where = kwargs.get("where", True)
            raised.append(np.count_nonzero(np.broadcast_to(where, np.shape(t))))
            return real(t, *args, **kwargs)

        monkeypatch.setattr(np, "power", spy)
        n = 1025
        assemble_composed(make_spec(alpha=0.75, grid_n=n))
        assert 0 < sum(raised) <= 3 * n


@dataclasses.dataclass(frozen=True)
class _Parts:
    """What `_gaps` reads of an operator, for one kept as the given K class (any n >= 3)."""

    n: int
    _a: object
    cell_widths: np.ndarray

    def form(self, f):
        return self._a.form(f)

    def apply_left(self, f):
        return self._a.left(f)

    def solve_form(self, b):
        return self._a.solve(b)


class TestToeplitzOperator:
    """The uniform grid's FFT products and solves against the dense table's."""

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", [9, 65, 257, 1025])
    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_matches_dense(self, T, n, alpha):
        spec = make_spec(alpha=alpha, beta=0.5, grid_n=n, T=T)
        op = assemble_composed(spec)
        assert op.factorization == "toeplitz"
        dense = _dense(spec, psifrac.operators._tent_table(spec.grid.u, alpha))
        for name, gap in _gaps(op, dense, n).items():
            assert gap <= _FFT_BOUND, name

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("n", [65, 257, 1025])
    def test_k_solve_within_twice_lapack(self, n, alpha):
        # K = T(r) T(r)^T, the Toeplitz matrix of the symbol, by FFTs with
        # its series inverse against LAPACK's triangular solves with T(r):
        # measured at most 1.18 times LAPACK's error here (1.44 over three
        # other seeds), and 8.3 eps at most
        u = np.linspace(0.0, 1.0, n)
        r, h = psifrac.operators._symbol(u, alpha)
        t = psifrac.operators._Toeplitz.of(r, h, np.ones(n - 2), np.diff(u))
        v = np.triu(scipy.linalg.toeplitz(r[:1].repeat(n - 1), r))
        k = v @ v.T
        errors = [
            [
                _normwise_backward_error(k, x, b)
                for x in (psifrac.operators._toeplitz_k_solve(t.s_hat, b), _lapack_k_solve(v, b))
            ]
            for b in np.random.default_rng(n).standard_normal((4, n - 1))
        ]
        ours, lapack = np.max(errors, axis=0)
        assert ours <= 2 * lapack

    @pytest.mark.parametrize("n", [8, 9, 65, 1025])
    def test_block_rows_are_single_calls(self, n):
        # numpy's FFTs transform each row of a block alone, and every
        # reduction is the row's own
        op = assemble_composed(make_spec(alpha=0.75, grid_n=n))
        f = np.random.default_rng(n).standard_normal((5, n))
        for call, x in [(op.solve_form, f[:, 1:-1]), (op.form, f), (op.apply_left, f)]:
            block = call(x)
            for j in range(len(x)):
                assert _bitwise(block[j], call(x[j].copy()))
        assert _bitwise(energies(f, op), np.array([energy(row, op) for row in f]))

    def test_assembly_at_scale(self):
        # the series inverse is O(n log n) and nothing n x n is built:
        # 36 ms and 16 n floats traced at n = 2^16 + 1, where an np.convolve
        # Newton takes about a second and the table 34 GB
        spec = make_spec(alpha=0.75, grid_n=2**16 + 1)
        start = time.perf_counter()
        op = assemble_composed(spec)
        assert time.perf_counter() - start < 0.5
        assert op.factorization == "toeplitz"
        tracemalloc.start()
        try:
            assemble_composed(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 8 * spec.grid.n, peak

    def test_zero_on_the_diagonal_names_row_one(self, monkeypatch):
        real = psifrac.operators._symbol

        def singular(u, alpha):
            r, h = real(u, alpha)
            return np.concatenate(([0.0], r[1:])), h

        monkeypatch.setattr(psifrac.operators, "_symbol", singular)
        with pytest.raises(np.linalg.LinAlgError, match=r"zero on its diagonal \(row 1\)"):
            assemble_composed(make_spec(alpha=0.75, grid_n=33))

    @pytest.mark.parametrize("where", ["row", "corner"])
    def test_non_finite_symbol_is_refused_at_assembly(self, where, monkeypatch):
        real = psifrac.operators._symbol

        def with_nan(u, alpha):
            r, h = real(u, alpha)
            if where == "corner":
                return r, np.nan
            return np.concatenate((r[:9], [np.inf], r[10:])), h

        monkeypatch.setattr(psifrac.operators, "_symbol", with_nan)
        with pytest.raises(ValueError, match="infs or NaNs"):
            assemble_composed(make_spec(alpha=0.75, grid_n=33))


class TestBandConstruction:
    """At alpha = 1, K is kept as the cell widths and the tent masses, and
    its dense form is bit for bit the three diagonals of the P1 stiffness;
    no n x n array is formed.  Below, on a non-uniform grid, the tent table
    is the only one, and on a uniform grid there is none."""

    @pytest.mark.parametrize("n", [8, 9, 10, 33, 129, 769])
    @pytest.mark.parametrize("psi", PSIS)
    def test_matches_dense_composition_bitwise(self, psi, n):
        spec = make_spec(alpha=1.0, psi=psi, grid_n=n)
        op = assemble_composed(spec)
        u = op.grid.u
        assert op.factorization == "stiffness"
        assert _bitwise(op._a.du, np.diff(u))
        assert _bitwise(op._a.w, psifrac.operators.tent_masses(u)[1:-1])
        assert op._a.span == u[-1] - u[0]
        k = form_matrix(op)
        assert _bitwise(np.ascontiguousarray(k[:, 1:-1]), stiffness_reference(spec))
        # and, to rounding, the tent form V V^T composed densely from the
        # step derivatives, the half tent at T included
        want = tent_form_reference(spec)
        assert np.abs(k - want).max() <= 1e-14 * np.abs(want).max()

    def test_no_square_array_at_alpha_one(self):
        self._check_no_square_array(make_spec(alpha=1.0, grid_n=2049, lam=50.0))

    def test_no_square_array_on_a_uniform_grid(self):
        # below alpha = 1 the tent table's row 1 alone: 0.73 MB traced
        self._check_no_square_array(make_spec(alpha=0.75, beta=0.5, grid_n=2049, lam=50.0))

    @staticmethod
    def _check_no_square_array(spec):
        # one 2049 x 2049 float64 array is 33.6 MB
        tracemalloc.start()
        try:
            op = assemble_composed(spec)
            eig = principal_eigenpair(op, tol=1e-9)
            e = solve_e(op)
            pair = build_pair(spec, eig, e, 0.8)
            reports = [
                verify_weak_inequality(pair.phi, spec, op, "sub"),
                verify_weak_inequality(pair.xi, spec, op, "super"),
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.margins.shape == (2047,) for r in reports)
        assert peak < 4e6, peak

    def test_table_is_the_only_square_array_below_alpha_one(self):
        # the n x (n-1) tent table of a non-uniform grid is 8.4 MB at
        # n = 1025; no K, dense A or LU factors are built next to it
        spec = make_spec(alpha=0.75, beta=0.5, psi="square", grid_n=1025, lam=50.0)
        table_bytes = 8.0 * spec.grid.n * (spec.grid.n - 1)
        tracemalloc.start()
        try:
            op = assemble_composed(spec)
            eig = principal_eigenpair(op, tol=1e-9)
            e = solve_e(op)
            pair = build_pair(spec, eig, e, 0.8)
            reports = [
                verify_weak_inequality(pair.phi, spec, op, "sub"),
                verify_weak_inequality(pair.xi, spec, op, "super"),
            ]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.margins.shape == (1023,) for r in reports)
        assert peak < 1.5 * table_bytes, peak / table_bytes


class TestAssembly:
    def test_form_has_interior_rows_only(self):
        # one row per interior tent, where A had unit boundary rows; the
        # value at node 0 enters no row, and the one at node n-1 enters
        # through the half tent at T
        for alpha in (1.0, 0.75):
            op = assemble_composed(make_spec(alpha=alpha, grid_n=17))
            k = form_matrix(op)
            assert k.shape == (op.n - 2, op.n) and op.w.shape == (op.n - 2,)
            assert np.all(k[:, 0] == 0.0) and k[-1, -1] != 0.0
            assert np.all(op.w > 0.0)

    def test_classical_interior_stencil(self):
        # on a uniform grid the P1 stiffness over the tent mass is the
        # classical second difference: row i = -(f[i+1] - 2 f[i] + f[i-1]) / h^2
        spec = make_spec(alpha=1.0, grid_n=9)
        op = assemble_composed(spec)
        h = spec.grid.x[1] - spec.grid.x[0]
        a = form_matrix(op) / op.w[:, None]
        for i in range(1, 8):
            row = np.zeros(9)
            row[i - 1] = row[i + 1] = -1.0 / (h * h)
            row[i] = 2.0 / (h * h)
            row[0] = 0.0  # node 0 enters nothing
            assert a[i - 1] == pytest.approx(row, rel=1e-14, abs=0.0)

    def test_sturm_liouville_identity(self, catalog_spec, catalog_op):
        x = catalog_spec.grid.x
        f = np.sin(np.pi * x)
        got = catalog_op.form(f) / catalog_op.w
        want = PI2 * f[1:-1]
        assert np.abs(got - want).max() / PI2 <= 1e-2

    def test_zero_maps_to_zero(self, small_op):
        out = small_op.form(np.zeros(small_op.n))
        assert out.shape == (small_op.n - 2,) and np.all(out == 0.0)

    @pytest.mark.parametrize("psi", PSIS)
    @pytest.mark.parametrize("alpha", [1.0, 1.0 - 1e-6])
    def test_value_at_zero_enters_nothing(self, alpha, psi):
        # on both sides of alpha = 1 the form and D_left read the interior
        # values and the one at T, never the one at 0: the first slope at
        # alpha = 1 is f_1 / du_0, as the tent table's zero row 0 below
        op = assemble_composed(make_spec(alpha=alpha, beta=0.5, psi=psi, grid_n=33))
        f = np.random.default_rng(11).standard_normal(op.n)
        for f0 in (0.0, 1.0, -3e5):
            g = f.copy()
            g[0] = f0
            assert _bitwise(op.form(g), op.form(f)), f0
            assert _bitwise(op.apply_left(g), op.apply_left(f)), f0
            assert energy(g, op) == energy(f, op), f0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            assemble_composed(make_spec(alpha=0.3))

    # one spec per factorization: (alpha, psi) -> the factorization it assembles
    FACTORIZATIONS = [(1.0, "identity"), (0.75, "identity"), (0.75, "square")]
    KINDS = {(1.0, "identity"): "stiffness", (0.75, "identity"): "toeplitz"}

    @pytest.mark.parametrize("alpha, psi", FACTORIZATIONS)
    def test_wrong_length_refused(self, alpha, psi):
        # the FFT convolutions would pad or truncate a wrong length in silence
        op = assemble_composed(make_spec(alpha=alpha, psi=psi, grid_n=65))
        assert op.factorization == self.KINDS.get((alpha, psi), "tent table")
        for method, length in (("form", 65), ("apply_left", 65), ("solve_form", 63)):
            for bad in (length - 1, length + 1):
                for shape in ((bad,), (2, bad)):
                    with pytest.raises(ValueError, match=f"does not hold {length} entries"):
                        getattr(op, method)(np.ones(shape))

    @pytest.mark.parametrize("alpha, psi", FACTORIZATIONS)
    def test_only_the_grid_and_alpha_enter(self, alpha, psi):
        # beta, lambda, nu, h and M reach the callers that take the spec, never the operator
        ops = [
            assemble_composed(make_spec(alpha=alpha, psi=psi, grid_n=65)),
            assemble_composed(
                make_spec(
                    alpha=alpha, psi=psi, grid_n=65, beta=1.0, lam=7.0, nu=0.25,
                    h="log1p", m="affine", zeta0=0.5, zeta_inf=3.0,
                )
            ),
        ]  # fmt: skip
        assert ops[0].grid == ops[1].grid
        rng = np.random.default_rng(65)
        fields, rhs = rng.standard_normal((3, 65)), rng.standard_normal((3, 63))
        for method, arg in (("form", fields), ("apply_left", fields), ("solve_form", rhs)):
            got = [getattr(op, method)(arg) for op in ops]
            assert _bitwise(*got), method


class TestEigenpair:
    def test_classical_eigenvalue_and_vector(self, catalog_spec, catalog_eig):
        assert abs(catalog_eig.lambda1 - PI2) / PI2 < 0.01
        x = catalog_spec.grid.x
        assert np.abs(catalog_eig.psi1 - np.sin(np.pi * x)).max() < 5e-2
        assert catalog_eig.positive_interior
        assert np.abs(catalog_eig.psi1).max() == pytest.approx(1.0, abs=1e-14)
        assert catalog_eig.psi1[0] == 0.0 and catalog_eig.psi1[-1] == 0.0

    def test_residual_within_tolerance_budget(self, catalog_op):
        tol = 1e-9
        eig = principal_eigenpair(catalog_op, tol=tol)
        assert eig.residual <= 10.0 * tol * eig.lambda1

    def test_domain_scaling(self):
        spec = make_spec(alpha=1.0, grid_n=257, T=2.0)
        eig = principal_eigenpair(assemble_composed(spec), tol=1e-9)
        assert abs(eig.lambda1 - PI2 / 4.0) / (PI2 / 4.0) < 0.01

    def test_fractional_regression_baseline(self):
        # frozen at the first run of the tent form at this configuration
        spec = make_spec(alpha=0.9, beta=0.5, grid_n=129, lam=1.0)
        eig = principal_eigenpair(assemble_composed(spec), tol=1e-9)
        assert eig.lambda1 > 0
        assert eig.lambda1 == pytest.approx(7.059013069286783, rel=1e-6)
        assert eig.positive_interior is True

    def test_fractional_lambda1_falls_with_refinement(self):
        # the midpoint form approaches its limit from above, at order about
        # 0.5: 4.2060, 4.1929, 4.1836
        lams = [
            principal_eigenpair(
                assemble_composed(make_spec(alpha=0.75, beta=0.5, grid_n=n)), tol=1e-10
            ).lambda1
            for n in (129, 257, 513)
        ]
        assert lams[0] > lams[1] > lams[2] > 4.17
        assert lams[1] - lams[2] < lams[0] - lams[1]

    def test_lambda1_monotone_in_T(self):
        for psi in ("identity", "exp_minus_one"):
            lams = []
            for T in (0.5, 1.0, 2.0):
                spec = make_spec(alpha=1.0, psi=psi, T=T, grid_n=129)
                lams.append(principal_eigenpair(assemble_composed(spec), tol=1e-9).lambda1)
            assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=1.0, psi="identity", grid_n=257),
            dict(alpha=1.0, psi="exp_minus_one", grid_n=257),
            dict(alpha=0.75, beta=0.5, grid_n=257),
            dict(alpha=0.75, beta=1.0, grid_n=257),
            dict(alpha=0.9, beta=0.5, grid_n=129),
        ],
    )
    def test_matches_dense_eigensolver(self, kw):
        # oracle: the smallest-|lambda| eigenpair of the dense interior
        # block, oriented and sup-normalized like principal_eigenpair; at
        # alpha = 1 the bottom pair is only 0.2% apart, which a loose
        # stopping rule would hide
        op = assemble_composed(make_spec(**kw))
        eig = principal_eigenpair(op, tol=1e-10)
        vals, vecs = scipy.linalg.eig(form_matrix(op)[:, 1:-1] / op.w[:, None])
        k = int(np.argmin(np.abs(vals)))
        lam, vec = vals[k].real, vecs[:, k].real
        vec = vec / vec[np.argmax(np.abs(vec))]
        assert abs(eig.lambda1 - lam) <= 1e-10 * abs(lam)
        assert np.abs(eig.psi1[1:-1] - vec).max() <= 1e-8

    def test_lu_solve_count_is_bounded(self):
        # a count, not a timing: at alpha = 1 the bottom eigenvalue ratio is
        # 1.002, so plain inverse iteration would need hundreds of solves;
        # the Lanczos pass stops once its Ritz residual bound is a tenth of
        # the threshold (8 to 10 steps here) and the inverse-iteration step is one
        for kw in (dict(alpha=1.0), dict(alpha=0.75, beta=0.5)):
            op = assemble_composed(make_spec(grid_n=1025, **kw))
            assert principal_eigenpair(op, tol=1e-10).iterations <= 11, kw

    @pytest.mark.parametrize("psi", PSIS)
    def test_every_catalog_corner_stops_early_well_inside_the_bound(self, psi):
        # the stop rule asks a tenth of the acceptance threshold of the Ritz
        # residual bound, so the accepted residual keeps that margin, and
        # no corner needs the full pass of min(20, n - 2) + 1 = 21 solves
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                op = assemble_composed(make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=129))
                eig = principal_eigenpair(op, tol=1e-10)
                assert eig.iterations <= 12, (alpha, beta)
                assert eig.threshold == 10.0 * 1e-10 * abs(eig.lambda1)
                assert eig.residual <= 0.1 * eig.threshold, (alpha, beta)

    def test_nonconvergence_raises(self, small_op):
        # no pair meets a residual bound of 10 * 1e-20 * lambda1, far below
        # rounding; the pass stops at its cap or once its bound stalls
        lam = principal_eigenpair(small_op, tol=1e-9).lambda1
        with pytest.raises(RuntimeError, match=r"did not converge in \d+ interior solves") as err:
            principal_eigenpair(small_op, tol=1e-20)
        msg = str(err.value)
        assert int(msg.split(" in ")[1].split()[0]) <= min(20, small_op.n - 2) + 1
        assert f"above {10.0 * 1e-20 * lam:.3g}" in msg
        assert float(msg.split("residual ")[1].split()[0]) > 10.0 * 1e-20 * lam

    def test_invariant_krylov_space_stops_the_pass_early(self):
        # masses w = (K s) / s, s the start vector (the interior nodes; K s > 0
        # at square psi), make s an eigenvector of A = W^-1 K with eigenvalue
        # 1: the Krylov space is invariant after one step, so the pass stops
        # there and the polishing solve is the second
        op = assemble_composed(make_spec(alpha=1.0, psi="square", grid_n=16))
        s = op.grid.x[1:-1]
        ks = op.form(np.concatenate(([0.0], s, [0.0])))
        assert ks.min() > 0.0
        k = op._a
        pencil = dataclasses.replace(op, _a=dataclasses.replace(k, w=ks / s))
        eig = principal_eigenpair(pencil, tol=1e-10)
        assert eig.iterations == 2 and eig.lambda2 is None
        assert eig.lambda1 == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n, want", [(8, 36.898), (10, 37.901), (12, 38.417)])
    def test_lambda2_is_the_first_antisymmetric_mode(self, n, want):
        # at alpha = 1, identity psi, A is symmetric about the midpoint and
        # its second mode antisymmetric; the start vector has both parities,
        # so lambda2 is the dense pencil's second eigenvalue
        op = assemble_composed(make_spec(alpha=1.0, grid_n=n))
        eig = principal_eigenpair(op, tol=1e-10)
        dense = scipy.linalg.eigh(form_matrix(op)[:, 1:-1], np.diag(op.w), eigvals_only=True)
        assert eig.lambda2 == pytest.approx(dense[1], rel=1e-10)
        assert eig.lambda2 == pytest.approx(want, abs=5e-4)

    @pytest.mark.parametrize("psi", PSIS)
    def test_every_catalog_corner_has_a_real_positive_bottom(self, psi):
        # a real lambda1 > 0 at every (alpha, beta), and e > 0 on the
        # interior at beta = 1 (Caputo type; alpha = 1 included)
        for alpha in (1.0, 0.9, 0.75, 0.6):
            for beta in (0.0, 0.5, 1.0):
                op = assemble_composed(make_spec(alpha=alpha, beta=beta, psi=psi, grid_n=33))
                assert principal_eigenpair(op, tol=1e-9).lambda1 > 0.0, (alpha, beta)
                if beta == 1.0:
                    assert solve_e(op)[1:-1].min() > 0.0, alpha


class TestEProblem:
    def test_classical_closed_form(self, catalog_spec, catalog_e):
        x = catalog_spec.grid.x
        want = classical_e(x, 1.0)
        assert np.abs(catalog_e - want).max() < 1e-3
        assert abs(catalog_e.max() - 0.125) / 0.125 < 0.01

    def test_domain_scaling(self):
        spec = make_spec(alpha=1.0, grid_n=257, T=2.0)
        e = solve_e(assemble_composed(spec))
        assert abs(e.max() - 0.5) / 0.5 < 0.01

    def test_boundary_exactly_zero(self, catalog_e, small_e):
        for e in (catalog_e, small_e):
            assert e[0] == 0.0 and e[-1] == 0.0

    @pytest.mark.parametrize("psi", ["identity", "exp_minus_one", "square", "log1p"])
    def test_positivity_all_psi_classical(self, psi):
        spec = make_spec(alpha=1.0, psi=psi, grid_n=65)
        e = solve_e(assemble_composed(spec))
        assert e[1:-1].min() > 0.0

    def test_fractional_positivity_is_reported_not_assumed(self):
        # e's positivity is a computed outcome, which build_pair checks
        # (refusing a sign-changing e) instead of assuming it
        spec = make_spec(alpha=0.9, grid_n=129)
        e = solve_e(assemble_composed(spec))
        assert np.isfinite(e).all()


class TestEnergy:
    def test_zero_field(self, small_op):
        assert energy(np.zeros(small_op.n), small_op) == 0.0

    def test_classical_sine_energy(self, catalog_spec, catalog_op):
        u = np.sin(np.pi * catalog_spec.grid.x)
        assert energy(u, catalog_op) == pytest.approx(PI2 / 2.0, rel=1e-3)

    def test_quadratic_homogeneity(self, catalog_spec, catalog_op):
        rng = np.random.default_rng(3)
        u = np.sin(np.pi * catalog_spec.grid.x) * rng.uniform(0.5, 1.5)
        c = 3.7
        assert energy(c * u, catalog_op) == pytest.approx(c**2 * energy(u, catalog_op), rel=1e-12)

    def test_dimension_check(self, small_op):
        with pytest.raises(ValueError, match="length"):
            energy(np.ones(small_op.n + 1), small_op)

    @pytest.mark.parametrize("alpha", [1.0, 0.75, 0.6])
    def test_fractional_closed_form(self, alpha):
        # f = x - x^2 at identity psi: D_left f = x^(1-a)/G(2-a) - 2 x^(2-a)/G(3-a),
        # whose square integrates term by term
        a, b = 1.0 / math.gamma(2.0 - alpha), 2.0 / math.gamma(3.0 - alpha)
        want = a * a / (3 - 2 * alpha) - 2 * a * b / (4 - 2 * alpha) + b * b / (5 - 2 * alpha)
        errors = []
        for n in (65, 257, 1025):
            op = assemble_composed(make_spec(alpha=alpha, beta=0.5, grid_n=n))
            x = op.grid.x
            errors.append(abs(energy(x - x * x, op) - want) / want)
        # 4.5e-5 at alpha = 0.75 and 1.6e-4 at 0.6, n = 257; at alpha = 1
        # the difference quotients are exact at the midpoints, and the error
        # is the midpoint rule's, 2.4e-4 at n = 65
        assert errors[1] <= 1e-3
        assert errors[0] > errors[1] > errors[2], errors

    @pytest.mark.parametrize("psi", PSIS)
    def test_energy_is_continuous_at_alpha_one(self, psi):
        # one rule on both sides of alpha = 1: E(x - x^2) moves by 3.5e-6
        # relative at identity psi (1.6e-5 at square psi) from alpha = 1 to
        # 1 - 1e-6; a second rule at alpha = 1 would show as a jump
        energies = []
        for alpha in (1.0, 1.0 - 1e-6):
            op = assemble_composed(make_spec(alpha=alpha, beta=0.5, psi=psi, grid_n=65))
            x = op.grid.x
            energies.append(energy(x - x * x, op))
        assert abs(energies[0] - energies[1]) <= 1e-4 * energies[0], energies

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.9, 0.75, 0.6])
    def test_fractional_energy_is_the_operators_form(self, alpha, beta):
        # the discrete Rayleigh identity E(u) = u_int^T (K u)_int at identity psi
        op = assemble_composed(make_spec(alpha=alpha, beta=beta, grid_n=129))
        rng = np.random.default_rng(int(100 * alpha))
        for _ in range(5):
            u = rng.standard_normal(op.n)
            u[0] = u[-1] = 0.0
            form = u[1:-1] @ op.form(u)
            assert abs(energy(u, op) - form) <= 1e-12 * form

    @pytest.mark.parametrize("psi", PSIS)
    @pytest.mark.parametrize("alpha", [1.0, 0.9, 0.75, 0.6])
    def test_fractional_energy_matches_tent_reference(self, alpha, psi):
        # the midpoint rule in x of the tent derivatives, for every psi
        # (1.7e-14 relative at the worst case, square psi); at alpha = 1
        # they are steps, and D_left f is the difference quotients of f
        spec = make_spec(alpha=alpha, beta=0.5, psi=psi, grid_n=129)
        op = assemble_composed(spec)
        u = np.random.default_rng(5).standard_normal(op.n)
        u[0] = u[-1] = 0.0
        for f in (u, np.sin(np.pi * spec.grid.x / spec.grid.T)):
            want = tent_energy_reference(spec, f)
            assert abs(energy(f, op) - want) <= 1e-12 * want


class TestIntegrationByParts:
    """The adjoint identity behind the eigenvalue argument holds only
    approximately on the grid; its size is measured, never assumed zero."""

    @pytest.mark.parametrize("alpha,budget", [(1.0, 1e-3), (0.75, 1e-1)])
    def test_deviation_is_small_but_nonzero(self, alpha, budget):
        spec = make_spec(alpha=alpha, grid_n=257)
        op = assemble_composed(spec)
        x = spec.grid.x
        f = np.sin(np.pi * x)
        g = (x * (1.0 - x)) ** 2

        def apply(v):
            # A v = W^-1 K v on the interior, 0 at both ends
            return np.concatenate(([0.0], op.form(v) / op.w, [0.0]))

        lhs = np.trapezoid(apply(f) * g, x)
        rhs = np.trapezoid(f * apply(g), x)
        assert abs(lhs - rhs) < budget


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.0), (0.75, 0.5), (0.9, 1.0), (1.0, 0.5)])
def test_composed_inverts_double_integral_in_bulk(alpha, beta):
    # A(I_left^a (I_right^a f)) = f follows from applying the one-sided
    # inverse identities twice; discretely it holds away from the ends,
    # while the fractional boundary rows are wild (same mechanism that
    # loses positivity at alpha < 1)
    from psifrac import frac_integral_matrix

    spec = make_spec(alpha=alpha, beta=beta, grid_n=513)
    op = assemble_composed(spec)
    g = spec.grid
    il = frac_integral_matrix(g, g.psi, alpha).entries
    ir = right_integral_reference(g.u, alpha)
    f = np.sin(np.pi * g.u)
    got = op.form(il @ (ir @ f)) / op.w
    collar = max(2, int(np.ceil(0.05 * g.n)))
    assert np.abs(got - f[1:-1])[collar:-collar].max() < 5e-3


@functools.cache
def _block_op(alpha, n):
    return assemble_composed(make_spec(alpha=alpha, grid_n=n))


class TestBlockContract:
    """Each row of a block through the operator is bitwise that row alone."""

    @pytest.mark.parametrize("k", [1, 2, 25])
    @pytest.mark.parametrize("n", [65, 257, 769])
    @pytest.mark.parametrize("alpha", [1.0, 0.75])
    def test_rows_match_single_calls(self, alpha, n, k):
        op = _block_op(alpha, n)
        rng = np.random.default_rng(n + k)
        x = op.grid.x
        # positive fields with zero boundary values, one per row of a C-ordered
        # (k, n) block, as the Picard block holds its iterates
        scale = rng.uniform(0.1, 50.0, (k, 1))
        fields = scale * np.sin(np.pi * x) ** rng.uniform(0.5, 2.0, (k, 1))
        fields[:, 1:-1] *= 1.0 + 0.01 * rng.standard_normal((k, n - 2))
        rhs = fields[:, 1:-1] / rng.uniform(1.0, 2.0, (k, 1))
        solved = op.solve_form(rhs)
        formed = op.form(fields)
        left = op.apply_left(fields)
        energy_rows = energies(fields, op)
        assert solved.shape == (k, n - 2) and formed.shape == (k, n - 2)
        for j in range(k):
            # fresh copies, as a solve of one field holds them
            field = fields[j].copy()
            assert _bitwise(solved[j], op.solve_form(rhs[j].copy()))
            assert _bitwise(formed[j], op.form(field))
            assert _bitwise(left[j], op.apply_left(field))
            assert energy_rows[j] == energy(field, op)
