"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed lines and
measured numbers.
"""

import random
import time

from fuzzbound import (
    compose_rel_rel,
    compute_dbbisim,
    compute_dbsim,
    constant_pool_for,
    eval_formula,
    formula_bound_relation,
    generate_automaton,
    greatest_fixpoint,
    hm_check_bisim,
    hm_check_sim,
    inverse,
    naive_dbsim,
    parse_formula,
    prefix_norm,
    random_formula,
    rel_leq,
    structure,
    verify_language_invariance,
    verify_language_preservation,
)
from fuzzbound.oracle import RandomAutomatonSpec

from conftest import chain_pair, loop_pair, relation

STRUCTURES = ("godel", "lukasiewicz", "product")


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def rel2(entries):
    return relation(
        2, 2, [(r, c, v) for (r, c), v in entries.items()])


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def rel_close(actual, expected, tol=1e-9):
    return all(
        abs(av - ev) <= tol
        for arow, erow in zip(actual.degrees, expected.degrees)
        for av, ev in zip(arow, erow))


def random_pair(seed, max_states=6, max_symbols=2, density=0.5):
    rng = random.Random(seed)
    num_symbols = rng.randint(1, max_symbols)
    a = generate_automaton(RandomAutomatonSpec(
        num_states=rng.randint(2, max_states), num_symbols=num_symbols,
        transition_density=density, seed=seed * 2 + 1))
    b = generate_automaton(RandomAutomatonSpec(
        num_states=rng.randint(2, max_states), num_symbols=num_symbols,
        transition_density=density, seed=seed * 2 + 2))
    return a, b


def test_criterion_01_golden_simulation_tables():
    a, b = chain_pair()
    started = time.perf_counter()
    godel = compute_dbsim(structure("godel"), a, b, 8, trace=True)
    luk = compute_dbsim(structure("lukasiewicz"), a, b, 8, trace=True)
    prod = compute_dbsim(structure("product"), a, b, 10, trace=True)
    elapsed = time.perf_counter() - started

    ok = rel_close(godel.component(0), rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.8}))
    for n in range(1, 9):
        ok = ok and rel_close(godel.component(n),
                              rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.4}))
    ok = ok and close(min(godel.norms), 1.0)

    luk_table = {
        0: rel2({(0, 0): 1.0, (0, 1): 1.0, (1, 1): 0.8}),
        1: rel2({(0, 0): 0.9, (0, 1): 0.8, (1, 1): 0.7}),
        2: rel2({(0, 0): 0.8, (0, 1): 0.7, (1, 1): 0.6}),
        3: rel2({(0, 0): 0.7, (0, 1): 0.6, (1, 1): 0.5}),
    }
    for n, expected in luk_table.items():
        ok = ok and rel_close(luk.component(n), expected)
    plateau = rel2({(0, 0): 0.6, (0, 1): 0.6, (1, 1): 0.5})
    for n in range(4, 9):
        ok = ok and rel_close(luk.component(n), plateau)
    ok = ok and close(min(luk.norms), 0.6)

    for n in range(1, 11):
        expected = rel2({(0, 0): 0.8 ** (n - 1), (0, 1): 0.8 ** n,
                         (1, 1): 0.8 ** (n + 1)})
        ok = ok and rel_close(prod.component(n), expected)
    ok = ok and all(x >= y - 1e-12 for x, y in zip(prod.norms, prod.norms[1:]))
    ok = ok and close(min(prod.norms), 0.8 ** 9)
    ok = ok and elapsed < 1.0
    report(1, "golden simulation tables", ok, f"{elapsed:.3f}s")


def test_criterion_02_golden_bisimulation_tables():
    a, b = chain_pair()
    started = time.perf_counter()
    godel = compute_dbbisim(structure("godel"), a, b, 8, trace=True)
    luk = compute_dbbisim(structure("lukasiewicz"), a, b, 8, trace=True)
    prod = compute_dbbisim(structure("product"), a, b, 8, trace=True)
    elapsed = time.perf_counter() - started

    ok = rel_close(godel.component(0), rel2({(0, 0): 1, (1, 1): 0.8}))
    for n in range(1, 9):
        ok = ok and rel_close(godel.component(n),
                              rel2({(0, 0): 0.4, (1, 1): 0.4}))
    ok = ok and close(min(godel.norms), 0.4)

    luk_table = {
        0: rel2({(0, 0): 1.0, (0, 1): 0.2, (1, 1): 0.8}),
        1: rel2({(0, 0): 0.7, (0, 1): 0.2, (1, 1): 0.7}),
        2: rel2({(0, 0): 0.6, (0, 1): 0.2, (1, 1): 0.6}),
    }
    for n, expected in luk_table.items():
        ok = ok and rel_close(luk.component(n), expected)
    plateau = rel2({(0, 0): 0.5, (0, 1): 0.2, (1, 1): 0.5})
    for n in range(3, 9):
        ok = ok and rel_close(luk.component(n), plateau)
    ok = ok and close(min(luk.norms), 0.5)

    ok = ok and rel_close(prod.component(0), rel2({(0, 0): 1, (1, 1): 0.8}))
    for n in range(1, 9):
        expected = rel2({(0, 0): 0.8 ** (n + 1), (1, 1): 0.8 ** (n + 1)})
        ok = ok and rel_close(prod.component(n), expected)
    ok = ok and all(x >= y - 1e-12 for x, y in zip(prod.norms, prod.norms[1:]))
    ok = ok and min(prod.norms) <= 0.8 ** 8
    ok = ok and elapsed < 1.0
    report(2, "golden bisimulation tables", ok, f"{elapsed:.3f}s")


def test_criterion_03_almost_equal_loop_pair():
    ok = True
    for eps in (0.1, 0.01):
        a, b = loop_pair(eps)
        luk_steps = int(1 / eps) + 3
        godel = compute_dbsim(structure("godel"), a, b, 5, trace=True)
        luk = compute_dbsim(structure("lukasiewicz"), a, b, luk_steps, trace=True)
        prod = compute_dbsim(structure("product"), a, b, 20, trace=True)
        ok = ok and close(godel.component(0).degrees[0][0], 1.0)
        for n in range(1, 6):
            ok = ok and close(godel.component(n).degrees[0][0], 1.0 - eps)
        for n in range(luk_steps + 1):
            expected = max(0.0, 1.0 - n * eps)
            ok = ok and close(luk.component(n).degrees[0][0], expected)
        for n in range(21):
            ok = ok and close(prod.component(n).degrees[0][0], (1.0 - eps) ** n)
    report(3, "almost-equal loop pair", ok)


def test_criterion_04_greatest_fixpoints():
    a, b = chain_pair()
    ok = True

    godel_sim = greatest_fixpoint(structure("godel"), a, b, "sim")
    ok = ok and godel_sim.status == "fixpoint"
    ok = ok and rel_close(godel_sim.relation,
                          rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.4}))
    ok = ok and close(godel_sim.norms[-1], 1.0)

    godel_bis = greatest_fixpoint(structure("godel"), a, b, "bisim")
    ok = ok and godel_bis.status == "fixpoint"
    ok = ok and rel_close(godel_bis.relation, rel2({(0, 0): 0.4, (1, 1): 0.4}))
    ok = ok and close(godel_bis.norms[-1], 0.4)

    luk_sim = greatest_fixpoint(structure("lukasiewicz"), a, b, "sim")
    ok = ok and luk_sim.status == "fixpoint"
    ok = ok and rel_close(luk_sim.relation,
                          rel2({(0, 0): 0.6, (0, 1): 0.6, (1, 1): 0.5}))
    ok = ok and close(luk_sim.norms[-1], 0.6)

    luk_bis = greatest_fixpoint(structure("lukasiewicz"), a, b, "bisim")
    ok = ok and luk_bis.status == "fixpoint"
    ok = ok and rel_close(luk_bis.relation,
                          rel2({(0, 0): 0.5, (0, 1): 0.2, (1, 1): 0.5}))
    ok = ok and close(luk_bis.norms[-1], 0.5)

    for mode in ("sim", "bisim"):
        result = greatest_fixpoint(structure("product"), a, b, mode,
                                   max_iters=200, tol=1e-6)
        ok = ok and len(result.norms) <= 201
        ok = ok and all(v <= 1e-4 for row in result.relation.degrees for v in row)
    report(4, "greatest fixpoints", ok)


def test_criterion_05_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    pairs_per_structure = 500
    for name in STRUCTURES:
        st = structure(name)
        for seed in range(pairs_per_structure):
            a, b = random_pair(seed)
            for mode, compute in (("sim", compute_dbsim),
                                  ("bisim", compute_dbbisim)):
                expected = naive_dbsim(st, a, b, 8, mode)
                got = compute(st, a, b, 8, trace=True)
                for step, rel in enumerate(expected):
                    comp = got.component(step)
                    for erow, grow in zip(rel.degrees, comp.degrees):
                        for ev, gv in zip(erow, grow):
                            gap = abs(ev - gv)
                            if gap > worst:
                                worst = gap
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 60.0
    report(5, "oracle equivalence", ok,
           f"max gap {worst:.2e}, {elapsed:.1f}s for "
           f"{pairs_per_structure} pairs x {len(STRUCTURES)} structures x 2 modes")


def test_criterion_06_language_preservation_and_invariance():
    violations = 0
    checked = 0
    for seed in range(200):
        st = structure(STRUCTURES[seed % 3])
        a, b = random_pair(seed + 5000, max_states=5)
        depth = seed % 5
        sim_rel = compute_dbsim(st, a, b, depth).relation
        report_sim = verify_language_preservation(st, a, b, sim_rel, depth)
        bis_rel = compute_dbbisim(st, a, b, depth).relation
        report_bis = verify_language_invariance(st, a, b, bis_rel, depth)
        violations += len(report_sim.violations) + len(report_bis.violations)
        checked += 2
    ok = violations == 0
    report(6, "language preservation/invariance", ok,
           f"{checked} reports, {violations} violations")


def test_criterion_07_hennessy_milner_sampling():
    ok = True
    formulas_per_dialect = 200
    for seed in range(10):
        st = structure(STRUCTURES[seed % 3])
        a, b = random_pair(seed + 9000, max_states=5)
        depth = seed % 4 + 1
        pool = constant_pool_for(a, b)
        sim_rel = compute_dbsim(st, a, b, depth).relation
        bis_rel = compute_dbbisim(st, a, b, depth).relation
        for j in range(formulas_per_dialect):
            formula = random_formula("sim", depth, pool, a.alphabet,
                                     seed * 100_000 + j)
            ok = ok and hm_check_sim(st, a, b, sim_rel, formula, depth)
            bound = formula_bound_relation(st, a, b, formula, "sim")
            ok = ok and rel_leq(st, sim_rel, bound)
            formula = random_formula("bisim", depth, pool, a.alphabet,
                                     seed * 100_000 + j)
            ok = ok and hm_check_bisim(st, a, b, bis_rel, formula, depth)
            bound = formula_bound_relation(st, a, b, formula, "bisim")
            ok = ok and rel_leq(st, bis_rel, bound)
        if not ok:
            break
    report(7, "hennessy-milner sampling", ok,
           f"10 instances x 2 dialects x {formulas_per_dialect} formulas")


def test_criterion_08_formula_golden_values():
    a, b = chain_pair()
    formula = parse_formula("(s . (s . (0.9 -> T)))")
    expected = {
        "godel": (0.4, 0.4),
        "lukasiewicz": (0.0, 0.0),
        "product": (0.2, 8 / 45),
    }
    ok = True
    for name, (at_u, at_up) in expected.items():
        st = structure(name)
        ok = ok and close(eval_formula(st, a, formula).degrees[0], at_u, 1e-12)
        ok = ok and close(eval_formula(st, b, formula).degrees[0], at_up, 1e-12)
    report(8, "formula golden values", ok)


def test_criterion_09_structural_properties():
    ok = True
    # Auto-(bi)simulations: preorders / equivalences with norm 1.
    for index in range(100):
        st = structure(STRUCTURES[index % 3])
        a = generate_automaton(RandomAutomatonSpec(
            num_states=random.Random(index).randint(2, 5), num_symbols=2,
            transition_density=0.5, seed=index + 40_000))
        for mode in ("sim", "bisim"):
            result = greatest_fixpoint(st, a, a, mode, max_iters=30,
                                       tol=1e-9, trace=True)
            for rel in result.prefix:
                diag_ok = all(close(rel.degrees[i][i], 1.0)
                              for i in range(a.num_states))
                trans_ok = rel_leq(st, compose_rel_rel(st, rel, rel), rel)
                ok = ok and diag_ok and trans_ok
                if mode == "bisim":
                    ok = ok and rel_close(rel, inverse(rel))
            norm = prefix_norm(st, result.prefix, a, a, mode)
            ok = ok and close(norm, 1.0)
        if not ok:
            break

    # Lattice axioms on 10^5 random triples per structure.
    triples = 100_000
    for name in STRUCTURES:
        st = structure(name)
        tnorm, residuum = st.tnorm, st.residuum
        rng = random.Random(hash(name) % 2**32)
        for _ in range(triples):
            x, y, z = rng.random(), rng.random(), rng.random()
            if tnorm(x, y) <= z:
                ok = ok and x <= residuum(y, z) + 1e-9
            if x <= residuum(y, z):
                ok = ok and tnorm(x, y) <= z + 1e-9
            lo, hi = min(x, y), max(x, y)
            ok = ok and tnorm(lo, z) <= tnorm(hi, z) + 1e-9
            ok = ok and residuum(hi, z) <= residuum(lo, z) + 1e-9
            ok = ok and residuum(z, lo) <= residuum(z, hi) + 1e-9
            ok = ok and tnorm(x, 0.0) == 0.0
            ok = ok and tnorm(x, residuum(x, y)) <= y + 1e-9
            joined = tnorm(x, max(y, z))
            ok = ok and abs(joined - max(tnorm(x, y), tnorm(x, z))) <= 1e-9
            if not ok:
                break
        if not ok:
            break
    report(9, "structural properties", ok,
           f"100 auto-instances, {triples} lattice triples per structure")


def test_criterion_10_complexity_smoke():
    st = structure("godel")
    out_degree = 3.0
    depth = 4

    def pair(n):
        return tuple(generate_automaton(RandomAutomatonSpec(
            num_states=n, num_symbols=1,
            transition_density=min(1.0, out_degree / n), seed=seed))
            for seed in (n, n + 7))

    pairs = {n: pair(n) for n in (100, 200, 400)}
    best = dict.fromkeys(pairs, float("inf"))
    # Each repetition times every size, so a drift in host speed between
    # repetitions moves all three sizes alike instead of one ratio.
    for _ in range(5):
        for n, (a, b) in pairs.items():
            begin = time.perf_counter()
            compute_dbsim(st, a, b, depth)
            best[n] = min(best[n], time.perf_counter() - begin)

    t100, t200, t400 = best[100], best[200], best[400]
    first = t200 / t100
    second = t400 / t200
    # The 4.5x doubling target is advisory; gate only with a noise allowance.
    ok = first <= 4.5 * 1.35 and second <= 4.5 * 1.35
    report(10, "complexity smoke", ok,
           f"t100={t100 * 1e3:.0f}ms t200={t200 * 1e3:.0f}ms "
           f"t400={t400 * 1e3:.0f}ms ratios {first:.2f}/{second:.2f} "
           "(advisory threshold 4.5)")
