"""Acceptance criteria, one test per criterion, zero-tolerance arithmetic.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
captured summary) and enforces its stated runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from _corpus import (
    aug_vector,
    augmented_couple,
    basis_vector,
    block_parabolic_basis,
    criterion_2_chains,
    criterion_9_corpus,
    diagonal_basis,
    direct_sum_basis,
    embed_block,
    gl_basis,
    mat_span,
    member,
    random_basis_subspaces,
    random_chain,
    random_element,
    random_plain_couple,
    rank_one,
    row_space_basis,
    sample_nilradical,
    sample_pminus,
    sample_pplus,
    scale_vector,
    sl_basis,
    strict_upper_basis,
    trivial_couple,
    unit_matrix,
    upper_triangular_basis,
)
from _dense import Dense, flat, of_flat, poly_is_squarefree, solve
from flagforge.coherence import compare, compare_couple, compare_element, compare_subspace
from flagforge.exactnum import (
    is_nilpotent,
    jordan_chevalley,
    kernel,
    minpoly,
    poly_eval_matrix,
)
from flagforge.finitary import (
    in_joint_stabilizer,
    in_nilradical,
    in_pminus,
    perp_parabolic_member,
)
from flagforge.finoracle import (
    CertificationFailed,
    FdLieAlgebra,
    bracket_span,
    cartan_queries,
    flag_formula_spans,
    flag_stabilizer_brute,
    invariant_taut_couple,
    levi_component,
    lie_close,
    linear_nilradical,
    solvable_radical,
)
from flagforge.genflag import flag_from_chain, make_taut_couple, pair_leq
from flagforge.pairedspace import (
    SIDE_V,
    SIDE_W,
    perp,
)

F = Fraction


def _announce(idx, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[acceptance {idx}] {label}: {status} ({elapsed:.1f}s / budget {budget}s)"
    )
    assert ok
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s"


def test_criterion_1_stabilizer_formula():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for trial in range(200):
        n = rng.randrange(2, 7) if trial < 190 else rng.randrange(7, 9)
        chain = random_chain(n, rng)
        brute = flag_stabilizer_brute(n, chain)
        formula, _ = flag_formula_spans(n, chain)
        if brute.dim != formula.dim or not brute.contains(formula):
            ok = False
            break
        if brute != formula:
            ok = False
            break
    _announce(1, "stabilizer formula equals brute force on 200 flags", ok,
              time.monotonic() - start, 60)


def test_criterion_2_block_decomposition():
    start = time.monotonic()
    ok = True
    for trial, (n, chain) in enumerate(criterion_2_chains()):
        full_chain = chain + [row_space_basis(
            [[F(1) if j == i else F(0) for j in range(n)] for i in range(n)], n
        )]
        brute = flag_stabilizer_brute(n, chain)
        _, n_formula = flag_formula_spans(n, full_chain)
        p_alg = FdLieAlgebra(n, brute.matrices())
        n_oracle = linear_nilradical(p_alg, seed=trial)
        if n_formula != n_oracle:
            ok = False
            break
        dims = [0] + [len(lvl) for lvl in full_chain]
        blocks = [b - a for a, b in zip(dims, dims[1:])]
        expected = n_oracle.dim + sum(d * d for d in blocks)
        if brute.dim != expected:
            ok = False
            break
    _announce(2, "dim p+ = dim n_p + sum of block squares on 50 couples", ok,
              time.monotonic() - start, 120)


def _strict_lower_element(t, bound=12):
    """A rank-one aligned tensor placed strictly below the diagonal."""
    model = t.model
    for i in range(bound):
        for j in range(bound):
            ei = basis_vector(model, SIDE_V, i)
            fj = basis_vector(model, SIDE_W, j)
            a = next(
                (
                    idx
                    for idx in range(t.f_flag.n_pairs())
                    if member(t.f_flag.chain[idx + 1], ei)
                    and not member(t.f_flag.chain[idx], ei)
                ),
                None,
            )
            b = next(
                (
                    idx
                    for idx in range(t.g_flag.n_pairs())
                    if member(t.g_flag.chain[idx + 1], fj)
                    and not member(t.g_flag.chain[idx], fj)
                ),
                None,
            )
            if a is None or b is None:
                continue
            if not pair_leq(t, a, b):
                return rank_one(ei, fj)
    return None


def test_criterion_3_sandwich_and_normalizer():
    start = time.monotonic()
    rng = random.Random(303)
    couples = [augmented_couple()]
    while len(couples) < 21:
        couples.append(random_plain_couple(rng))
    ok = True
    for t in couples:
        for _ in range(500 // 4):
            for x in (
                sample_nilradical(t, rng),
                sample_pminus(t, rng),
                sample_pplus(t, rng),
                random_element(t.model, rng),
            ):
                nil = in_nilradical(x, t)
                pm = in_pminus(x, t)
                jt = in_joint_stabilizer(x, t)
                if nil and not pm:
                    ok = False
                if pm and not jt:
                    ok = False
        low = _strict_lower_element(t)
        if low is not None and in_joint_stabilizer(low, t):
            ok = False
    # p+ strictly inside p' in the augmented model, witnessed explicitly
    t_aug = couples[0]
    vtilde = aug_vector(t_aug.model, SIDE_V, 0)
    witness = rank_one(
        vtilde, basis_vector(t_aug.model, SIDE_W, 0)
    )
    if in_joint_stabilizer(witness, t_aug) or not perp_parabolic_member(witness, t_aug):
        ok = False
    for _ in range(20):
        y = sample_pplus(t_aug, rng)
        if not perp_parabolic_member(y, t_aug):
            ok = False
    _announce(3, "nilradical => pminus => joint; strict-lower fails normalizer; "
                 "p+ proper in p'", ok, time.monotonic() - start, 120)


def test_criterion_4_sl_infinity_parabolic():
    start = time.monotonic()
    rng = random.Random(404)
    t = trivial_couple()
    m = t.model
    ok = True
    e0, f0 = basis_vector(m, SIDE_V, 0), basis_vector(m, SIDE_W, 0)
    for i in range(1000):
        x = random_element(m, rng, terms=rng.randrange(1, 4))
        if i % 2:  # force tracelessness half the time
            x = x.sub(rank_one(scale_vector(e0, x.trace()), f0))
        if in_pminus(x, t) != (x.trace() == 0):
            ok = False
            break
    _announce(4, "pminus of the trivial couple is exactly the traceless part "
                 "(1000 elements)", ok, time.monotonic() - start, 60)


def test_criterion_5_jordan_chevalley():
    start = time.monotonic()
    rng = random.Random(505)
    ok = True
    for _ in range(500):
        n = rng.randrange(1, 7)
        m = Dense(
            [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        )
        ss_row, nil_row = jordan_chevalley(flat(m), n)
        ss, nil = of_flat(ss_row, n), of_flat(nil_row, n)
        if ss + nil != m or ss * nil != nil * ss or not is_nilpotent(nil_row, n):
            ok = False
            break
        if not poly_is_squarefree(minpoly(ss_row, n)):
            ok = False
            break
        powers = [Dense.identity(n)]
        for _ in range(n):
            powers.append(powers[-1] * m)
        cols = [p.flatten() for p in powers]
        coeff = Dense(list(zip(*cols)))
        x = solve(coeff, ss.flatten())
        if x is None or of_flat(poly_eval_matrix(list(x), flat(m), n), n) != ss:
            ok = False
            break
    _announce(5, "Jordan decomposition checks on 500 random matrices", ok,
              time.monotonic() - start, 60)


def _levi_battery():
    algebras = []
    # parabolics and Borels
    for sizes in ([2, 1], [1, 2], [2, 2], [1, 1, 2], [3, 1]):
        algebras.append(FdLieAlgebra(sum(sizes), block_parabolic_basis(sizes)))
    for n in (2, 3, 4):
        algebras.append(FdLieAlgebra(n, upper_triangular_basis(n)))
        algebras.append(FdLieAlgebra(n, strict_upper_basis(n)))
        algebras.append(FdLieAlgebra(n, gl_basis(n)))
        algebras.append(FdLieAlgebra(n, sl_basis(n)))
    # direct sums of gl blocks
    algebras.append(
        FdLieAlgebra(3, direct_sum_basis([(gl_basis(2), 2), (gl_basis(1), 1)]))
    )
    algebras.append(
        FdLieAlgebra(4, direct_sum_basis([(gl_basis(2), 2), (gl_basis(2), 2)]))
    )
    algebras.append(
        FdLieAlgebra(4, direct_sum_basis([(sl_basis(2), 2), (gl_basis(2), 2)]))
    )
    # abelian and toral examples
    algebras.append(FdLieAlgebra(3, diagonal_basis(3)))
    algebras.append(FdLieAlgebra(2, [Dense.identity(2)]))
    # the trace-linked pair of gl2 blocks (tr A = 2 tr B)
    link = embed_block(Dense.identity(2).scale(2), 4, 0) + embed_block(
        Dense.identity(2), 4, 2
    )
    algebras.append(
        FdLieAlgebra(4, direct_sum_basis([(sl_basis(2), 2), (sl_basis(2), 2)]) + [link])
    )
    # semidirect examples
    algebras.append(FdLieAlgebra(3, block_parabolic_basis([2, 1])[:-1]))
    algebras.append(FdLieAlgebra(2, [unit_matrix(2, 0, 1), unit_matrix(2, 0, 0)]))
    # more mixed shapes
    algebras.append(FdLieAlgebra(4, block_parabolic_basis([1, 3])))
    algebras.append(FdLieAlgebra(5, block_parabolic_basis([2, 2, 1])))
    algebras.append(
        FdLieAlgebra(4, direct_sum_basis([(sl_basis(2), 2), (sl_basis(2), 2)]))
    )
    algebras.append(
        FdLieAlgebra(
            4, direct_sum_basis([(upper_triangular_basis(2), 2), (gl_basis(2), 2)])
        )
    )
    algebras.append(
        FdLieAlgebra(3, direct_sum_basis([(sl_basis(2), 2), (diagonal_basis(1), 1)]))
    )
    return algebras


def _four_block_parabolic():
    """sl2 (+) sl2 inside gl4 with the linked trace conditions."""
    n = 4
    upper = []
    for offset in (0, 2):
        upper.append(embed_block(unit_matrix(2, 0, 1), n, offset))
    h1 = embed_block(unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1), n, 0)
    h2 = embed_block(unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1), n, 2)
    link = h1 + h2  # diag(X, -X, X, -X) with tr X != 0
    p = FdLieAlgebra(n, upper + [link])
    g1 = mat_span(n, [embed_block(b, n, 0) for b in sl_basis(2)])
    g2 = mat_span(n, [embed_block(b, n, 2) for b in sl_basis(2)])
    return p, g1, g2


def test_criterion_6_levi_radical_suite():
    start = time.monotonic()
    ok = True
    battery = _levi_battery()
    assert len(battery) >= 29
    for g in battery:
        rad = solvable_radical(g)
        nil = linear_nilradical(g)
        levi = levi_component(g)
        dg = bracket_span(g.span, g.span)
        meet = rad.intersect(dg)
        # Levi definition: [g,g] = (r cap [g,g]) (+) levi
        if meet.sum(levi.span).dim != dg.dim or meet.intersect(levi.span).dim:
            ok = False
        if not dg.contains(levi.span):
            ok = False
        # nilradical identity: n cap [g,g] = r cap [g,g]
        if nil.intersect(dg) != meet:
            ok = False
        # locally semisimple iff levi is everything
        semisimple = rad.dim == 0 and dg.dim == g.dim
        if semisimple != (levi.dim == g.dim):
            ok = False
    # the four-block example is not a direct sum of summand parabolics
    p, g1, g2 = _four_block_parabolic()
    inter = p.span.intersect(g1).dim + p.span.intersect(g2).dim
    if inter != p.dim - 1:
        ok = False
    rad = solvable_radical(p)
    nil = linear_nilradical(p)
    dg = bracket_span(p.span, p.span)
    if nil.intersect(dg) != rad.intersect(dg):
        ok = False
    _announce(6, "Levi and nilradical identities on 30 algebras; four-block "
                 "example does not split", ok, time.monotonic() - start, 120)


def test_criterion_7_invariant_taut_couples():
    start = time.monotonic()
    rng = random.Random(707)
    ok = True
    done = 0
    while done < 50:
        n = rng.randrange(2, 7)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            m = Dense(
                [
                    [
                        F(rng.randrange(-2, 3)) if rng.random() < 0.4 else F(0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            if not m.is_zero():
                gens.append(m)
        k = lie_close(n, gens)
        for attempt in range(4):
            try:
                report = invariant_taut_couple(k, seed=rng.randrange(10000))
                break
            except CertificationFailed:
                continue
        else:
            ok = False
            break
        # the report constructor already asserts n_k = n_p cap k and the
        # formula/oracle agreement; re-check the bookkeeping here
        dims = report.block_dims
        if sum(dims) != n:
            ok = False
        expected = report.nilradical_oracle.dim + sum(d * d for d in dims)
        if report.stabilizer.dim != expected:
            ok = False
        done += 1
    _announce(7, "invariant taut couples with irreducible quotients and "
                 "n_k = n_p cap k on 50 subalgebras", ok,
              time.monotonic() - start, 180)


def _cartan_battery():
    cases = []
    for n in (2, 3):
        k = FdLieAlgebra(n, gl_basis(n))
        cases.append((k, diagonal_basis(n)))
        cases.append((k, [unit_matrix(n, 0, 1)]))
        cases.append((k, gl_basis(n)))
    for n in (2, 3):
        k = FdLieAlgebra(n, upper_triangular_basis(n))
        cases.append((k, diagonal_basis(n)))
        cases.append((k, strict_upper_basis(n)))
    k = FdLieAlgebra(3, block_parabolic_basis([2, 1]))
    cases.append((k, diagonal_basis(3)))
    cases.append((k, [unit_matrix(3, 0, 0), unit_matrix(3, 1, 1) + unit_matrix(3, 2, 2)]))
    p = Dense([[1, 1], [0, 1]])
    pinv = Dense([[1, -1], [0, 1]])
    k = FdLieAlgebra(2, gl_basis(2))
    cases.append((k, [p * d * pinv for d in diagonal_basis(2)]))
    cases.append((k, [p * diagonal_basis(2)[0] * pinv]))
    k = FdLieAlgebra(4, direct_sum_basis([(gl_basis(2), 2), (gl_basis(2), 2)]))
    cases.append((k, diagonal_basis(4)))
    cases.append((k, [unit_matrix(4, 0, 1) + unit_matrix(4, 2, 3)]))
    k = FdLieAlgebra(2, sl_basis(2))
    cases.append((k, [unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1)]))
    cases.append((k, [unit_matrix(2, 0, 1)]))
    k4 = FdLieAlgebra(4, direct_sum_basis([(sl_basis(2), 2), (sl_basis(2), 2)]))
    cases.append((k4, [
        embed_block(unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1), 4, 0),
        embed_block(unit_matrix(2, 0, 0) - unit_matrix(2, 1, 1), 4, 2),
    ]))
    k5 = FdLieAlgebra(3, diagonal_basis(3))
    cases.append((k5, diagonal_basis(3)))
    cases.append((k5, diagonal_basis(3)[:1]))
    k6 = FdLieAlgebra(3, strict_upper_basis(3))
    cases.append((k6, strict_upper_basis(3)))
    cases.append((k6, [unit_matrix(3, 0, 1)]))
    k7 = FdLieAlgebra(2, upper_triangular_basis(2))
    cases.append((k7, [Dense.identity(2)]))
    cases.append((k7, [unit_matrix(2, 0, 0)]))
    cases.append((k7, upper_triangular_basis(2)))
    k8 = FdLieAlgebra(4, block_parabolic_basis([2, 2]))
    cases.append((k8, diagonal_basis(4)))
    cases.append((k8, [unit_matrix(4, 0, 0)]))
    cases.append((k8, strict_upper_basis(4)))
    k9 = FdLieAlgebra(2, [Dense.identity(2)])
    cases.append((k9, [Dense.identity(2)]))
    k10 = FdLieAlgebra(3, gl_basis(3))
    cases.append((k10, [unit_matrix(3, 0, 0), unit_matrix(3, 1, 1)]))
    return cases


def test_criterion_8_cartan_routes_agree():
    start = time.monotonic()
    cases = _cartan_battery()
    assert len(cases) >= 30
    ok = True
    for k, h in cases:
        # cartan_queries asserts route agreement and, on positive verdicts,
        # the self-normalizing and nilpotency properties
        try:
            cartan_queries(k, mat_span(k.n, h))
        except AssertionError:
            ok = False
            break
    _announce(8, "Cartan conditions D and F agree on 30 splittable algebras",
              ok, time.monotonic() - start, 120)


def test_criterion_9_truncation_coherence():
    start = time.monotonic()
    subspaces, couples, elements = criterion_9_corpus()
    ok = True
    for s in subspaces:
        report = compare_subspace(s)
        if not report.ok:
            ok = False
    for x in elements:
        if not compare_element(x).ok:
            ok = False
    for idx, t in enumerate(couples):
        if not compare_couple(t, seed=idx).ok:
            ok = False
    _announce(9, "truncated outputs match finite recomputation at the "
                 "certified window levels", ok, time.monotonic() - start, 120)
