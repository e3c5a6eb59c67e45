"""Transition tables: block structure, stationary vectors, limits, Birkhoff terms."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from qcorr import markov
from qcorr.cli import main
from qcorr.errors import NotPrimitiveError
from qcorr.fixtures import (
    P1,
    P1_PERRON_DERIVED,
    P2_PRINTED,
    P2_REPAIRED,
    PA_PRINTED,
    PA_REPAIRED,
    PB_PRINTED,
    PB_REPAIRED,
    fourier_basis,
    measurement_from_stochastic,
    p1_p2_block,
    stochastic_channel,
    trine_povm,
)
from qcorr.linalg import DEFAULT_TOL, ZERO_TOL, dagger, require
from qcorr.markov import (
    StochasticMatrix,
    basis_change_transition,
    birkhoff_decompose,
    block_decompose,
    ergodic_limit,
    is_irreducible,
    is_primitive,
    perron_vector,
    stochastic_checks,
    transition_matrix,
)
from qcorr.sampling import haar_unitary, random_stochastic
from qcorr.structure import cc_type_extract

CYCLE3 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _wielandt(d: int) -> np.ndarray:
    """Cycle plus one chord: primitive with the worst-case exponent."""
    m = np.zeros((d, d))
    for j in range(d - 1):
        m[j + 1, j] = 1.0
    m[0, d - 1] = 0.5
    m[1, d - 1] = 0.5
    return m


# -- StochasticMatrix ----------------------------------------------------------------


def test_stochastic_matrix_validation():
    with pytest.raises(ValueError):
        StochasticMatrix(P2_PRINTED)  # third column sums to 9/8
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.2, 0.5], [-0.2, 0.5]]))
    rect = StochasticMatrix(np.array([[0.25, 0.5], [0.75, 0.5], [0.0, 0.0]]))
    assert rect.n_rows == 3 and rect.n_cols == 2 and not rect.is_square


def test_transition_matrix_from_povm():
    table = transition_matrix(trine_povm(), np.eye(2))
    assert table.matrix.shape == (3, 2)
    assert np.allclose(table.matrix.sum(axis=0), [1.0, 1.0], atol=1e-12)
    assert table.matrix[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)


# -- irreducibility and primitivity --------------------------------------------------


def test_fixture_connectivity_facts():
    assert is_irreducible(P1) and is_primitive(P1)
    # the two "reducible" fixtures are in fact strongly connected as printed
    assert is_irreducible(PA_PRINTED)
    assert is_irreducible(PB_PRINTED)
    assert not is_irreducible(PA_REPAIRED)
    assert not is_irreducible(PB_REPAIRED)
    assert is_irreducible(CYCLE3) and not is_primitive(CYCLE3)
    assert not is_irreducible(np.eye(3))
    assert is_primitive(_wielandt(4))


def test_irreducibility_matches_scipy_strong_connectivity():
    rng = np.random.default_rng(47)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        support = rng.random((d, d)) < 0.35
        support[rng.integers(0, d), np.arange(d)] = True  # no empty columns
        weights = rng.random((d, d)) * support
        table = weights / weights.sum(axis=0, keepdims=True)
        n_comp, _ = connected_components(csr_matrix(table > 0), connection="strong")
        assert is_irreducible(table) == (n_comp == 1)


# -- Perron vectors ------------------------------------------------------------------


def test_perron_vector_of_p1():
    v = perron_vector(P1)
    assert np.allclose(v, P1_PERRON_DERIVED, atol=1e-10)
    assert np.allclose(P1 @ v, v, atol=1e-12)


def test_perron_vector_property_suite():
    rng = np.random.default_rng(53)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        p = random_stochastic(d, d, rng)  # strictly positive, hence primitive
        v = perron_vector(p)
        assert float(np.min(v)) >= -1e-12
        assert float(np.sum(v)) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(p @ v, v, atol=1e-10)


def test_perron_vector_on_reducible_block():
    v = perron_vector(PA_REPAIRED, block=(1, 2))
    assert np.allclose(v, [0.0, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("leak, closed", [(ZERO_TOL, True), (2 * ZERO_TOL, False)])
def test_perron_vector_refuses_a_block_that_leaks_above_zero_tol(leak, closed):
    # state 1 of the block (1, 2) sends ``leak`` to state 0, outside it
    table = PA_REPAIRED.copy()
    table[0, 1] = leak
    table[2, 1] -= leak
    if closed:
        assert np.allclose(perron_vector(table, block=(1, 2)), [0.0, 0.5, 0.5], atol=1e-12)
    else:
        with pytest.raises(ValueError, match="block is not recurrent"):
            perron_vector(table, block=(1, 2))


def test_perron_vector_refuses_a_block_of_two_classes():
    with pytest.raises(ValueError, match="block is not a single communicating class"):
        perron_vector(PA_REPAIRED, block=(0, 1, 2))


@pytest.mark.parametrize("eps",[1e-3, 1e-4, 1e-5, 1e-7, 1e-9])
def test_nearly_decomposable_chain(eps):
    # 1 - eps rounds, so B - I built as B - np.eye(2) loses the chain's
    # relative accuracy; both routes must still give (2/3, 1/3)
    chain = np.array([[1.0 - eps, 2.0 * eps], [eps, 1.0 - 2.0 * eps]])
    exact = np.array([2.0 / 3.0, 1.0 / 3.0])
    assert float(np.max(np.abs(perron_vector(chain) - exact))) <= 1e-12
    analysis = block_decompose(chain)
    assert analysis.degeneracy == 1
    assert float(np.max(np.abs(analysis.perron_vectors[0] - exact))) <= 1e-12


def _nearly_decomposable(n_blocks: int, h: int, eps: float, seed: int = 0) -> np.ndarray:
    """``n_blocks`` dense ``h``-state blocks of uniform draws (first block
    first), columns normalized and scaled by ``1 - eps``; every cross entry
    is ``eps / (n - h)``, so each column leaks ``eps`` and sums to one."""
    rng = np.random.default_rng(seed)
    n = n_blocks * h
    chain = np.full((n, n), eps / (n - h))
    for b in range(n_blocks):
        block = slice(b * h, (b + 1) * h)
        draws = rng.uniform(size=(h, h))
        chain[block, block] = draws / draws.sum(axis=0) * (1.0 - eps)
    return chain


def _gth_reference(chain: np.ndarray) -> np.ndarray:
    """Stationary vector by unblocked GTH elimination in ``np.longdouble``."""
    a = np.array(chain, dtype=np.longdouble).T  # row-stochastic
    k = len(a)
    for n in range(k - 1, 0, -1):
        a[:n, n] /= a[n, :n].sum()
        a[:n, :n] += np.outer(a[:n, n], a[n, :n])
    x = np.zeros(k, dtype=np.longdouble)
    x[0] = 1
    for n in range(1, k):
        x[n] = x[:n] @ a[:n, n]
    return x / x.sum()


def _assert_matches_reference(chain: np.ndarray, ref: np.ndarray | None = None) -> None:
    """Both stationary routes are within 1e-12 of ``ref`` (by default the
    extended-precision GTH vector) in the 1-norm and relative to each entry;
    the 1-norm alone cannot see entries below 1e-12."""
    ref = _gth_reference(chain) if ref is None else ref
    analysis = block_decompose(chain)
    assert analysis.degeneracy == 1
    for v in (perron_vector(chain), analysis.perron_vectors[0]):
        assert float(np.abs(v - ref).sum()) <= 1e-12
        assert float(np.max(np.abs(v - ref) / ref)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_nearly_decomposable_blocks_match_extended_precision(data):
    # each cross entry eps / (n - h) >= eps / (2 h) stays above ZERO_TOL
    n_blocks = data.draw(st.integers(2, 3), label="blocks")
    h = data.draw(st.integers(2, 400 // n_blocks), label="block size")
    low = np.log10(10 * h * ZERO_TOL)
    eps = 10.0 ** data.draw(st.floats(low, -2.0), label="log10 eps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_matches_reference(_nearly_decomposable(n_blocks, h, eps, seed))


@pytest.mark.parametrize("h, eps", [(50, 1e-6), (200, 1e-6), (200, 1e-9)])
def test_nearly_decomposable_regressions(h, eps):
    # n = 2h; the generator's null vector is ill-conditioned here (second singular value ~ 2 eps)
    _assert_matches_reference(_nearly_decomposable(2, h, eps))


def _birth_death(n: int, up: float, down: float) -> np.ndarray:
    """Chain on ``0..n-1`` stepping up with probability ``up`` and down with
    ``down``, held at both ends; its stationary vector is proportional to
    ``(up / down) ** i``."""
    chain = np.diag(np.full(n, 1.0 - up - down))
    chain[0, 0] += down
    chain[-1, -1] += up
    chain[np.arange(1, n), np.arange(n - 1)] = up
    chain[np.arange(n - 1), np.arange(1, n)] = down
    return chain


@pytest.mark.parametrize("n, up, down", [(60, 0.1, 0.9), (200, 0.05, 0.6)])
def test_drifting_birth_death_chain_matches_closed_form(n, up, down):
    # smallest entries 4.5e-57 and 1.6e-215: only an entrywise bound sees them
    ref = (up / down) ** np.arange(n)
    _assert_matches_reference(_birth_death(n, up, down), ref / ref.sum())


@pytest.mark.parametrize("n", [2, 5, 17, 70, 150])
def test_stationary_vectors_never_read_the_diagonal(n):
    # GTH sums each pivot from off-diagonal entries and the certificate's
    # generator rebuilds its diagonal from them, so moving only the diagonal,
    # within COLUMN_SUM_TOL, leaves every vector bit for bit
    rng = np.random.default_rng(n)
    table = rng.dirichlet(np.ones(n), size=n).T
    moved = table + np.diag(rng.uniform(-0.5, 0.5, n) * markov.COLUMN_SUM_TOL)
    assert np.array_equal(perron_vector(moved), perron_vector(table))
    assert np.array_equal(block_decompose(moved).perron_vectors[0], block_decompose(table).perron_vectors[0])


def test_uncertified_stationary_vector_is_refused_with_its_residual(monkeypatch):
    # no valid table is known to reach the bound, so the bound is lowered below
    # this table's residual to read the refusal
    chain = _nearly_decomposable(2, 20, 1e-3)
    monkeypatch.setattr(markov, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(ValueError, match=r"residual \|\|G v\|\|_1 = \d\.\d{3}e-\d+ exceeds 0$"):
        perron_vector(chain)


def test_validate_and_markov_agree_on_a_nearly_decomposable_chain(capsys, tmp_path):
    path = tmp_path / "chain.json"
    doc = {"schema": "qcorr/1", "kind": "stochastic", "data": _nearly_decomposable(2, 50, 1e-6).tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "markov"):
        assert main([command, str(path)]) == 0, capsys.readouterr().err
    capsys.readouterr()


# -- block decomposition --------------------------------------------------------------


def test_block_decompose_direct_sum():
    analysis = block_decompose(p1_p2_block())
    assert analysis.degeneracy == 2
    recurrent = [c for c in analysis.classes if c.recurrent]
    assert [c.indices for c in recurrent] == [(0, 1, 2), (3, 4, 5)]
    assert np.allclose(analysis.perron_vectors[0][:3], P1_PERRON_DERIVED, atol=1e-10)
    assert np.allclose(analysis.perron_vectors[1][3:], np.full(3, 1.0 / 3.0), atol=1e-10)


def test_block_decompose_repaired_fixtures():
    for matrix, expected in (
        (PA_REPAIRED, [(1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]),
        (PB_REPAIRED, [(0.5, 0.0, 0.5), (0.0, 1.0, 0.0)]),
    ):
        analysis = block_decompose(matrix)
        assert analysis.degeneracy == 2
        got = [tuple(np.round(v, 12)) for v in analysis.perron_vectors]
        assert sorted(got) == sorted(expected)


def test_block_decompose_transient_class():
    # state 0 leaks into the absorbing pair {1, 2}
    m = np.array([[0.5, 0.0, 0.0], [0.25, 0.5, 0.5], [0.25, 0.5, 0.5]])
    analysis = block_decompose(m)
    assert analysis.degeneracy == 1
    flags = {c.indices: c.recurrent for c in analysis.classes}
    assert flags[(0,)] is False and flags[(1, 2)] is True


def _stationary_simplex(analysis, weights) -> np.ndarray:
    """Convex combination of the per-block stationary vectors."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(w) != analysis.degeneracy:
        raise ValueError(f"expected {analysis.degeneracy} weights, got {len(w)}")
    require(stochastic_checks(w[:, None]))
    return w @ np.array(analysis.perron_vectors)


def test_stationary_simplex():
    analysis = block_decompose(p1_p2_block())
    v = _stationary_simplex(analysis, [0.25, 0.75])
    assert np.allclose(p1_p2_block() @ v, v, atol=1e-10)
    assert float(np.sum(v)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        _stationary_simplex(analysis, [0.5, 0.6])


# -- support digraph against boolean matrix powers -----------------------------------


def _bool_power(b: np.ndarray, k: int) -> np.ndarray:
    """Boolean semiring power by repeated squaring."""
    result = np.eye(b.shape[0], dtype=bool)
    base = b.copy()
    while k > 0:
        if k & 1:
            result = (result.astype(np.int64) @ base.astype(np.int64)) > 0
        base = (base.astype(np.int64) @ base.astype(np.int64)) > 0
        k >>= 1
    return result


def _wielandt_exponent(d: int) -> int:
    return d * d - 2 * d + 2


def _matrix_power_structure(m: np.ndarray) -> dict:
    """Irreducibility, primitivity, classes and class flags from powers of
    the support: ``(I + S)^(d-1)`` is reachability and a class is
    primitive when ``S_class^(k^2 - 2k + 2)`` is entrywise positive."""
    d = m.shape[0]
    support = m > 1e-12
    reach = _bool_power(support | np.eye(d, dtype=bool), max(d - 1, 0))
    mutual = reach & reach.T
    classes = sorted({tuple(np.flatnonzero(mutual[i]).tolist()) for i in range(d)})
    flags = []
    for c in classes:
        outside = np.setdiff1d(np.arange(d), c)
        sub = support[np.ix_(c, c)]
        flags.append(
            (
                not bool(support[np.ix_(outside, c)].any()),
                bool(np.all(_bool_power(sub, _wielandt_exponent(len(c))))),
            )
        )
    return {
        "irreducible": bool(np.all(reach)),
        "primitive": bool(np.all(_bool_power(support, _wielandt_exponent(d)))),
        "classes": classes,
        "flags": flags,
    }


@st.composite
def _tables(draw) -> np.ndarray:
    """Column-stochastic tables with n <= 30 whose supports are random,
    block-cyclic (periodic), or reducible with transient singletons."""
    n = draw(st.integers(1, 30))
    family = draw(st.sampled_from(["random", "cyclic", "reducible"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.02, 0.6))
    sparse = rng.random((n, n)) < density
    target = np.arange(n)  # one guaranteed edge per column, so no column is empty
    if family == "random":
        support = sparse
        target = rng.integers(0, n, size=n)
    elif family == "cyclic":
        # group g moves only to group g + 1 (mod the period)
        period = draw(st.integers(2, 5))
        group = np.arange(n) % period
        support = sparse & (group[:, None] == (group[None, :] + 1) % period)
        for j in range(n):
            nxt = np.flatnonzero(group == (group[j] + 1) % period)
            target[j] = rng.choice(nxt) if nxt.size else j
    else:
        # closed blocks first; every later state is a singleton without a
        # self-loop that moves only to lower-numbered states
        n_closed = draw(st.integers(1, n))
        cuts = np.sort(rng.choice(np.arange(1, n_closed), size=min(2, n_closed - 1), replace=False))
        block = np.searchsorted(cuts, np.arange(n), side="right")
        closed = np.arange(n) < n_closed
        same_block = (block[:, None] == block[None, :]) & closed[:, None]
        lower = np.arange(n)[:, None] < np.arange(n)[None, :]
        support = sparse & np.where(closed[None, :], same_block, lower)
        for j in range(n):
            if j < n_closed:
                members = np.flatnonzero(block[:n_closed] == block[j])
                target[j] = members[(np.flatnonzero(members == j)[0] + 1) % members.size]
            else:
                target[j] = rng.integers(0, j)
    support[target, np.arange(n)] = True
    perm = rng.permutation(n)
    support = support[np.ix_(perm, perm)]
    weights = rng.uniform(0.1, 1.0, size=(n, n)) * support
    return weights / weights.sum(axis=0, keepdims=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tables())
def test_support_structure_matches_matrix_powers(table):
    want = _matrix_power_structure(table)
    assert is_irreducible(table) == want["irreducible"]
    assert is_primitive(table) == want["primitive"]
    analysis = block_decompose(table)
    assert [c.indices for c in analysis.classes] == want["classes"]
    assert [(c.recurrent, c.primitive) for c in analysis.classes] == want["flags"]
    assert analysis.degeneracy == sum(recurrent for recurrent, _ in want["flags"])
    for v in analysis.perron_vectors:
        assert float(np.abs(table @ v - v).sum()) <= 1e-12


def _chorded_ring(n: int) -> np.ndarray:
    """Directed ring with three half-weight chords and one lazy state."""
    p = np.zeros((n, n))
    p[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    for j in (0, n // 3, 2 * n // 3):
        p[:, j] *= 0.5
        p[(j + n // 2) % n, j] += 0.5
    p[:, n - 1] *= 0.5
    p[n - 1, n - 1] += 0.5
    return p


def _built_structure(kind: str, n: int, rng) -> tuple[np.ndarray, list, list, int]:
    """A table of ``kind`` before relabelling, with its classes, their
    (recurrent, primitive) flags and the period of its first class, all read
    off how it is built."""
    everything = [list(range(n))]
    if kind == "dense":
        return random_stochastic(n, n, rng), everything, [(True, True)], 1
    if kind == "ring":
        return _chorded_ring(n), everything, [(True, True)], 1
    if kind == "cyclic":
        # group g moves only to group g + 1 (mod 3)
        group = np.arange(n) % 3
        p = rng.uniform(0.1, 1.0, (n, n)) * (group[:, None] == (group[None, :] + 1) % 3)
        return p / p.sum(axis=0), everything, [(True, False)], 3
    if kind == "dag":
        # upper triangular: j moves to j - 1 and to random lower states, and
        # even states also stay; state 0 absorbs
        support = np.triu(rng.random((n, n)) < 0.1, k=1)
        support[np.arange(n - 1), np.arange(1, n)] = True
        support[np.arange(0, n, 2), np.arange(0, n, 2)] = True
        p = rng.uniform(0.1, 1.0, (n, n)) * support
        flags = [(j == 0, j % 2 == 0) for j in range(n)]
        return p / p.sum(axis=0), [[j] for j in range(n)], flags, 1
    # two dense closed blocks, fed by a transient tail: tail state j moves to
    # j - 1 and into both blocks, and even tail states also stay
    k = n // 4
    p = np.zeros((n, n))
    p[:k, :k] = random_stochastic(k, k, rng)
    p[k : 2 * k, k : 2 * k] = random_stochastic(k, k, rng)
    tail = np.arange(2 * k, n)
    p[: 2 * k, tail] = random_stochastic(2 * k, len(tail), rng)
    p[tail[:-1], tail[1:]] = 1.0
    p[tail[::2], tail[::2]] = 1.0
    p = p / p.sum(axis=0)
    classes = [list(range(k)), list(range(k, 2 * k))] + [[j] for j in tail]
    flags = [(True, True), (True, True)] + [(False, j % 2 == 0) for j in tail]
    return p, classes, flags, 1


@pytest.mark.parametrize("kind", ["dense", "ring", "cyclic", "dag", "tail"])
@pytest.mark.parametrize("n", [200, 1000])
def test_support_structure_of_built_tables(kind, n):
    rng = np.random.default_rng(n)
    built, classes, flags, period = _built_structure(kind, n, rng)
    perm = rng.permutation(n)  # state a of the table is state perm[a] as built
    table = built[np.ix_(perm, perm)]
    where = np.argsort(perm)
    relabelled = sorted((sorted(where[c].tolist()), f) for c, f in zip(classes, flags))
    analysis = block_decompose(table)
    assert [list(c.indices) for c in analysis.classes] == [c for c, _ in relabelled]
    assert [(c.recurrent, c.primitive) for c in analysis.classes] == [f for _, f in relabelled]
    assert is_irreducible(table) == (len(classes) == 1)
    assert is_primitive(table) == (flags == [(True, True)])
    if len(classes) == 1:
        assert markov._period(markov._irreducible_levels(*markov._digraph(table))) == period
    for v in analysis.perron_vectors:
        assert float(np.abs(table @ v - v).sum()) <= 1e-12


def test_only_block_decompose_searches_for_classes(monkeypatch):
    calls = []
    search = markov._class_labels
    monkeypatch.setattr(markov, "_class_labels", lambda *args: calls.append(1) or search(*args))
    for table in (P1, PA_REPAIRED, CYCLE3, _wielandt(6)):
        is_irreducible(table)
        is_primitive(table)
    perron_vector(P1)
    perron_vector(PA_REPAIRED, (1, 2))
    assert calls == []
    block_decompose(PA_REPAIRED)
    assert calls == [1]


# -- ergodic limits -------------------------------------------------------------------


def test_ergodic_limit_of_p1():
    lim = ergodic_limit(P1)
    assert lim.r_converged >= 1
    for j in range(3):
        assert np.allclose(lim.matrix[:, j], lim.perron, atol=1e-10)
    assert np.allclose(lim.perron, P1_PERRON_DERIVED, atol=1e-10)
    direct = np.linalg.matrix_power(P1, lim.r_converged)
    assert float(np.max(np.abs(direct - lim.matrix))) <= 1e-10


def _first_power(p: np.ndarray, limit: np.ndarray) -> int:
    """First r with max |P^r - limit| <= LIMIT_TOL, one product ``P @ Q`` and
    one test per power."""
    q = p.copy()
    r = 1
    while float(np.max(np.abs(q - limit))) > markov.LIMIT_TOL:
        q = p @ q
        r += 1
    return r


def _eps_chain(eps: float) -> np.ndarray:
    return np.array([[1.0 - eps, 2.0 * eps], [eps, 1.0 - 2.0 * eps]])


def _lazy_ring(n: int) -> np.ndarray:
    """Directed ring that steps with probability 0.9 and stays with 0.1."""
    return 0.1 * np.eye(n) + 0.9 * np.roll(np.eye(n), 1, axis=0)


@pytest.mark.parametrize(
    "table, r",
    [
        (_eps_chain(1e-2), 743),
        (_eps_chain(1e-3), 7529),
        (_lazy_ring(30), 10309),
        (random_stochastic(2, 2, np.random.default_rng(2)), None),
        (random_stochastic(25, 25, np.random.default_rng(25)), None),
        (random_stochastic(100, 100, np.random.default_rng(100)), None),
    ],
    ids=["eps-1e-2", "eps-1e-3", "lazy-ring-30", "dense-2", "dense-25", "dense-100"],
)
def test_ergodic_limit_finds_the_first_power_of_a_one_power_scan(table, r):
    lim = ergodic_limit(table)
    assert lim.r_converged == _first_power(table, lim.matrix)
    assert r is None or lim.r_converged == r


def _symmetric_chain(lam: float) -> np.ndarray:
    """Two-state chain whose second eigenvalue is ``lam``: max |P^r - P^inf| = lam^r / 2."""
    return np.array([[1.0 + lam, 1.0 - lam], [1.0 - lam, 1.0 + lam]]) / 2.0


@pytest.mark.parametrize(
    "table",
    [_eps_chain(1e-3), _symmetric_chain(1e-5), _symmetric_chain(1e-3), _symmetric_chain(0.3)],
    ids=["eps-1e-3", "lambda-1e-5", "lambda-1e-3", "lambda-0.3"],
)
def test_ergodic_limit_scans_exactly_max_power_powers(monkeypatch, table):
    r = _first_power(table, ergodic_limit(table).matrix)
    # 2r/3 stops the eps-chain scan inside a batch; r = 2 and r = 4 follow a
    # batch that ends at r - 1
    for cap in sorted({1, max(1, 2 * r // 3), max(1, r - 1), r, r + 1}):
        monkeypatch.setattr(markov, "MAX_POWER", cap)
        if cap < r:
            with pytest.raises(ValueError, match=f"^no convergence within {cap} powers$"):
                ergodic_limit(table)
        else:
            assert ergodic_limit(table).r_converged == r


def test_ergodic_limit_diagnostics():
    with pytest.raises(NotPrimitiveError) as periodic:
        ergodic_limit(CYCLE3)
    assert periodic.value.reason == "periodic"
    with pytest.raises(NotPrimitiveError) as reducible:
        ergodic_limit(p1_p2_block())
    assert reducible.value.reason == "reducible"


# -- Birkhoff decomposition ----------------------------------------------------------


def test_birkhoff_on_permutation_matrix():
    perm = np.eye(4)[:, [2, 0, 3, 1]]
    decomp = birkhoff_decompose(perm)
    assert len(decomp.weights) == 1
    assert decomp.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(decomp.reconstruction(), perm, atol=1e-12)


@st.composite
def _doubly_stochastic(draw):
    """A doubly stochastic matrix at d <= 12, possibly perturbed entrywise
    inside the acceptance of ``birkhoff_decompose``; returns (matrix, perturbed)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["haar", "permutations", "uniform", "circulant"]))
    if kind == "haar":
        m = np.abs(haar_unitary(d, rng)) ** 2
    elif kind == "permutations":
        k = draw(st.integers(1, 3 * d * d))
        w = rng.dirichlet(np.ones(k)) if draw(st.booleans()) else np.full(k, 1.0 / k)
        m = np.zeros((d, d))
        for wi in w:
            m[rng.permutation(d), np.arange(d)] += wi
    elif kind == "uniform":
        m = np.full((d, d), 1.0 / d)
    else:
        c = rng.dirichlet(np.ones(d))
        m = sum(c[k] * np.roll(np.eye(d), k, axis=0) for k in range(d))
    if not draw(st.booleans()):
        return m, False
    # scale a random perturbation to 0.99 of the largest one the line-sum and
    # negative-entry tests of the acceptance allow
    e = rng.uniform(-1.0, 1.0, (d, d))
    scale = DEFAULT_TOL / max(np.abs(e.sum(axis=0)).max(), np.abs(e.sum(axis=1)).max())
    lowering = e < 0
    if lowering.any():
        scale = min(scale, float(np.min((m[lowering] + DEFAULT_TOL) / -e[lowering])))
    return m + 0.99 * scale * e, True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=_doubly_stochastic())
def test_birkhoff_property_suite(drawn):
    """Greedy extraction alone stays within the Caratheodory bound. An exact
    input is rebuilt within 1e-10; a perturbed one, which no mixture of
    permutations rebuilds exactly, within the dust the extraction may leave."""
    m, perturbed = drawn
    d = m.shape[0]
    decomp = birkhoff_decompose(m)
    weights = np.array(decomp.weights)
    assert decomp.n_terms <= (d - 1) ** 2 + 1
    assert float(np.min(weights)) > 0.0
    assert abs(float(np.sum(weights)) - 1.0) <= 1e-10
    gap = float(np.max(np.abs(decomp.reconstruction() - m)))
    assert gap <= (10 * DEFAULT_TOL if perturbed else 1e-10)


def test_birkhoff_rejects_non_doubly_stochastic():
    with pytest.raises(ValueError):
        birkhoff_decompose(P1)  # rows do not sum to one
    with pytest.raises(ValueError):
        birkhoff_decompose(np.ones((2, 3)) / 2.0)


# -- basis change --------------------------------------------------------------------


def test_basis_change_commuting_route():
    rng = np.random.default_rng(61)
    cc = cc_type_extract(stochastic_channel(P2_REPAIRED))
    u = haar_unitary(3, rng)
    got = basis_change_transition(cc, u)
    # two-path oracle: composition with the doubly stochastic overlap table
    phi = cc.eigenbasis
    doubly = np.abs(dagger(phi) @ u @ phi) ** 2
    composed = cc.transition.matrix @ doubly
    assert float(np.max(np.abs(got.matrix - composed))) <= 1e-10
    direct = transition_matrix(cc.measurement.povm, u @ phi)
    assert float(np.max(np.abs(got.matrix - direct.matrix))) <= 1e-12


def test_basis_change_general_route_with_coherent_part():
    rng = np.random.default_rng(67)
    mm = measurement_from_stochastic(P2_REPAIRED, basis=fourier_basis(3))
    for _ in range(5):
        u = haar_unitary(3, rng)
        got = basis_change_transition(mm, u, basis=np.eye(3))
        # independent assembly: permutation mixture plus coherent cross terms
        table = transition_matrix(mm.povm, np.eye(3)).matrix
        doubly = np.abs(u) ** 2
        mixture = table @ birkhoff_decompose(doubly).reconstruction()
        coherent = np.zeros((3, 3))
        for i, e in enumerate(mm.povm):
            for j in range(3):
                col = u[:, j]
                full = float(np.real(np.vdot(col, e @ col)))
                diag_part = float(np.real(np.diag(e)) @ (np.abs(col) ** 2))
                coherent[i, j] = full - diag_part
        assert float(np.max(np.abs(got.matrix - (mixture + coherent)))) <= 1e-9
        direct = transition_matrix(mm.povm, u).matrix
        assert float(np.max(np.abs(got.matrix - direct))) <= 1e-12


def test_basis_change_validation():
    cc = cc_type_extract(stochastic_channel(P2_REPAIRED))
    with pytest.raises(ValueError):
        basis_change_transition(cc, np.eye(3), basis=np.eye(3))
    with pytest.raises(ValueError):
        basis_change_transition(cc, np.ones((3, 3)))
