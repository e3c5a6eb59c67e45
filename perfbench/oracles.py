"""Reference checks that do not call qcorr.

Every check here recomputes the expected property from the raw numpy
inputs with plain linear algebra or graph search, so a bug shared by the
library and its own tests cannot make the benchmark accept a wrong output.
Each check returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

from math import gcd

import numpy as np

SUPPORT_TOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def fro(a) -> float:
    return float(np.linalg.norm(a))


# -- bipartite operator families ---------------------------------------------


def side_family(rho: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """Operators ``<m|rho|n>`` on ``side``, one per bra/ket pair on the other side."""
    d_a, d_b = dims
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    if side == "B":
        return r4.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b, d_b)
    return r4.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a, d_a)


def noncommuting_certificate(family: np.ndarray) -> float:
    """Largest ``||[F_0, F_k]||`` against the largest member, with adjoints.

    A value well above roundoff proves the family has no common eigenbasis;
    it needs only one row of the pairwise table.
    """
    norms = np.linalg.norm(family, axis=(1, 2))
    big = family[int(np.argmax(norms))]
    worst = 0.0
    for other in (big, dagger(big)):
        prod = np.einsum("ab,kbc->kac", other, family) - np.einsum("kab,bc->kac", family, other)
        worst = max(worst, float(np.max(np.linalg.norm(prod, axis=(1, 2)))))
    return worst


def check_diagonalizes(basis, family: np.ndarray, tol: float = 1e-8) -> str | None:
    u = np.asarray(basis, dtype=np.complex128)
    d = family.shape[1]
    if u.shape != (d, d) or fro(dagger(u) @ u - np.eye(d)) > 1e-8 * np.sqrt(d):
        return "basis is not unitary"
    rotated = np.einsum("ab,kbc,cd->kad", dagger(u), family, u)
    off = rotated.copy()
    idx = np.arange(d)
    off[:, idx, idx] = 0.0
    worst = float(np.max(np.linalg.norm(off, axis=(1, 2))))
    scale = max(1.0, float(np.max(np.linalg.norm(family, axis=(1, 2)))))
    if worst > tol * scale:
        return f"basis leaves off-diagonal norm {worst:.3e}"
    return None


# -- channels ----------------------------------------------------------------


def choi_from_map(povm, pointer) -> np.ndarray:
    """``(1/d_in) sum_i E_i^T (x) |e_i><e_i|``."""
    effects = [np.asarray(e, dtype=np.complex128) for e in povm]
    ptr = np.asarray(pointer, dtype=np.complex128)
    d_in = effects[0].shape[0]
    d_out = ptr.shape[0]
    w = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for e, col in zip(effects, ptr.T):
        w += np.kron(e.T, np.outer(col, np.conj(col)))
    return w / d_in


def apply_map(povm, pointer, rho: np.ndarray) -> np.ndarray:
    """``sum_i Tr(rho E_i) |e_i><e_i|``."""
    ptr = np.asarray(pointer, dtype=np.complex128)
    q = np.array([np.real(np.trace(rho @ e)) for e in povm])
    return (ptr * q) @ dagger(ptr)


def apply_map_on_b(povm, pointer, rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """``(1 (x) L)(rho) = sum_i Tr_B[rho (1 (x) E_i)] (x) |e_i><e_i|``."""
    d_a, d_b = dims
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    ptr = np.asarray(pointer, dtype=np.complex128)
    d_out = ptr.shape[0]
    out = np.zeros((d_a * d_out, d_a * d_out), dtype=np.complex128)
    for e, col in zip(povm, ptr.T):
        block = np.einsum("abcd,db->ac", r4, e)
        out += np.kron(block, np.outer(col, np.conj(col)))
    return out


def apply_choi(w: np.ndarray, dims: tuple[int, int], a: np.ndarray) -> np.ndarray:
    """``L(A) = d_in Tr_in[W (A^T (x) 1)]``."""
    d_in, d_out = dims
    w4 = w.reshape(d_in, d_out, d_in, d_out)
    return d_in * np.einsum("iajb,ij->ab", w4, a)


def check_rebuilds_choi(mm, w: np.ndarray, tol: float = 1e-9) -> str | None:
    rebuilt = choi_from_map(list(mm.povm), mm.pointer_basis)
    if rebuilt.shape != w.shape:
        return f"rebuilt Choi shape {rebuilt.shape} != {w.shape}"
    dev = fro(rebuilt - w)
    if dev > tol:
        return f"extracted map rebuilds the Choi state only to {dev:.3e}"
    return None


def bases_match(u, v, tol: float = 1e-6) -> bool:
    a = np.asarray(u, dtype=np.complex128)
    b = np.asarray(v, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    big = np.abs(dagger(a) @ b) >= 1.0 - tol
    return bool(np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1))


def effects_commute(povm, tol: float = 1e-6) -> bool:
    effects = [np.asarray(e) for e in povm]
    for i in range(len(effects)):
        for j in range(i + 1, len(effects)):
            if fro(effects[i] @ effects[j] - effects[j] @ effects[i]) > tol:
                return False
    return True


# -- Markov tables -----------------------------------------------------------


def edges(p: np.ndarray) -> list[list[int]]:
    """Adjacency lists of the support digraph: ``j -> i`` when ``P[i, j] > 1e-12``."""
    mask = p > SUPPORT_TOL
    return [list(np.nonzero(mask[:, j])[0]) for j in range(p.shape[0])]


def strong_components(adj: list[list[int]]) -> list[tuple[int, ...]]:
    """Iterative Tarjan; classes sorted internally and by smallest member."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, k = work.pop()
            if k == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            while k < len(adj[v]):
                w = adj[v][k]
                k += 1
                if index[w] < 0:
                    work.append((v, k))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sorted(out, key=lambda c: c[0])


def period(adj: list[list[int]], members: tuple[int, ...]) -> int:
    """gcd of ``level[u] + 1 - level[v]`` over edges inside a class (0: no edges)."""
    inside = set(members)
    level = {members[0]: 0}
    frontier = [members[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in inside and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in members:
        for v in adj[u]:
            if v in inside:
                g = gcd(g, abs(level[u] + 1 - level[v]))
    return g


def markov_structure(p: np.ndarray) -> dict:
    """Classes, recurrence and primitivity of a column-stochastic table."""
    adj = edges(p)
    classes = strong_components(adj)
    info = []
    for c in classes:
        inside = set(c)
        recurrent = all(v in inside for u in c for v in adj[u])
        info.append({"indices": c, "recurrent": recurrent, "primitive": period(adj, c) == 1})
    irreducible = len(classes) == 1
    return {
        "classes": info,
        "irreducible": irreducible,
        "primitive": irreducible and info[0]["primitive"],
    }


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible table by least squares on ``[P - I; 1]``."""
    n = p.shape[0]
    a = np.vstack([p - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    v, *_ = np.linalg.lstsq(a, b, rcond=None)
    return v


def check_stationary(p: np.ndarray, v, block=None, tol: float = 1e-10) -> str | None:
    v = np.asarray(v, dtype=float)
    if v.shape != (p.shape[0],):
        return f"vector shape {v.shape}"
    if float(np.min(v)) < 0.0:
        return f"negative entry {float(np.min(v)):.3e}"
    if abs(float(v.sum()) - 1.0) > tol:
        return f"sum {float(v.sum()):.15g}"
    res = float(np.abs(p @ v - v).sum())
    if res > tol:
        return f"||Pv - v||_1 = {res:.3e}"
    if block is not None:
        outside = np.ones(p.shape[0], dtype=bool)
        outside[list(block)] = False
        if np.any(v[outside] != 0.0):
            return "mass outside the requested block"
    return None


def first_power(p: np.ndarray, limit: np.ndarray, threshold: float, cap: int) -> int | None:
    """First ``r`` with ``max |P^r - limit| <= threshold``, multiplying as ``P @ Q``."""
    q = p.copy()
    r = 1
    while float(np.max(np.abs(q - limit))) > threshold:
        if r >= cap:
            return None
        q = p @ q
        r += 1
    return r


def check_birkhoff(bd, target: np.ndarray, tol: float = 1e-9) -> str | None:
    d = target.shape[0]
    w = np.asarray(bd.weights, dtype=float)
    if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > tol:
        return "weights are not a probability vector"
    if len(w) > (d - 1) ** 2 + 1:
        return f"{len(w)} terms exceed the Caratheodory bound"
    rebuilt = np.zeros((d, d))
    for wt, perm in zip(w, bd.permutations):
        if sorted(perm) != list(range(d)):
            return f"{perm} is not a permutation"
        rebuilt[list(perm), np.arange(d)] += wt
    dev = float(np.max(np.abs(rebuilt - target)))
    if dev > tol:
        return f"reconstruction deviates by {dev:.3e}"
    return None
