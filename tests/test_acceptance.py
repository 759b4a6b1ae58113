"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints ``criterion N [label]: PASS`` (or FAIL) so the suite's
output doubles as the release checklist.  Criteria 1-3 are exact-value
checks against the reference absorbing sets, 4-5 are oracle-equivalence
and property sweeps, 6-7 exercise the designer and the average-count law
end to end, and 8 records what is out of desk-scale reach and what
substitutes for it.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

import numpy as np

import mdreloc as md
from mdreloc.relocation import activity_plans, intact

from conftest import array_host, arrangement_1, arrangement_2, assert_block_layout, k4_host, lift_identity
from reference_activity import is_cycle_active, is_uas_active


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{label}]: FAIL")
        raise
    print(f"criterion {number} [{label}]: PASS")


def reference(name: str):
    fix = md.canonical_uas(name)
    inst = fix.instance()
    basis = md.minimum_cycle_basis(inst.deg2_subgraph())
    return fix, inst, basis


def test_criterion_1_structural_formulas():
    with criterion(1, "structural formulas"):
        t0 = time.perf_counter()
        c42 = md.UasConfig(4, 2, 3)
        assert md.degree2_check_count(c42) == 5
        assert md.basic_cycle_count(c42) == 2
        assert md.cycle_count_bounds(c42) == (3, 3)
        c44 = md.UasConfig(4, 4, 4)
        assert md.degree2_check_count(c44) == 6
        assert md.basic_cycle_count(c44) == 3
        assert md.cycle_count_bounds(c44) == (6, 7)
        # the bounds are attained by the actual cycle counts
        for name, expected in (("4_2_g3", 3), ("4_4_g4", 7)):
            _, inst, _ = reference(name)
            found = md.enumerate_cycles(inst.deg2_subgraph(), 2 * inst.a)
            assert len(found) == expected
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reference_arrangements():
    with criterion(2, "activity and MD shape"):
        t0 = time.perf_counter()
        fix, inst, basis = reference("4_2_g3")

        keep = arrangement_1(fix.incidence)
        assert is_uas_active(basis, keep)
        assert md.md_object_profile(inst, keep) == md.MdObjectProfile(
            12, 6, False, ((4, 2), (4, 2), (4, 2))
        )

        split = arrangement_2(fix.incidence)
        assert not is_uas_active(basis, split)
        assert md.md_object_profile(inst, split) == md.MdObjectProfile(
            12, 6, True, ((12, 6),)
        )
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_fraction_formulas():
    with criterion(3, "closed-form fractions"):
        t0 = time.perf_counter()
        _, _, basis42 = reference("4_2_g3")
        rep = md.fraction_report_for_basis(basis42, 5)
        assert rep.f_basis_inactive == Fr(16, 25)
        assert rep.f_all_cycles_inactive_bound == Fr(12, 25)
        assert rep.f_inactive == Fr(24, 25)
        assert rep.f_deep_inactive == Fr(12, 25)
        s1, _ = md.savings(rep)
        assert s1 == 48

        _, _, basis44 = reference("4_4_g4")
        rep = md.fraction_report_for_basis(basis44, 5)
        assert rep.f_basis_inactive == Fr(64, 125)
        assert rep.f_all_cycles_inactive_bound == Fr(24, 125)
        assert rep.f_inactive == Fr(124, 125)
        assert rep.f_deep_inactive == Fr(100, 125)
        s1, s2 = md.savings(rep)
        assert s1 == 80
        assert s2 == Fr(144, 5)
        assert s2 / 100 == Fr(36, 125)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence"):
        for name in ("4_2_g3", "4_4_g4"):
            _, inst, basis = reference(name)
            for m_copies in (3, 5, 7):
                ex = md.exhaustive_fractions(inst, m_copies)
                rep = md.fraction_report_for_basis(basis, m_copies)
                assert ex.f_active == rep.f_active
                assert ex.f_inactive == rep.f_inactive
                assert ex.f_basis_inactive == rep.f_basis_inactive
                assert ex.f_deep_inactive == rep.f_deep_inactive
                assert ex.f_all_cycles_inactive <= rep.f_all_cycles_inactive_bound

        _, inst42, _ = reference("4_2_g3")
        reduced = md.exhaustive_fractions(inst42, 3)
        full = md.full_enumeration_fractions(inst42, 3)
        assert full.classes == 3**10
        for field in ("f_active", "f_inactive", "f_one_detached",
                      "f_deep_inactive", "f_basis_inactive", "f_all_cycles_inactive"):
            assert getattr(full, field) == getattr(reduced, field), field


def independent_basis(inst, banned):
    """Any valid basis whose cycle set differs from ``banned``."""
    cycles = md.enumerate_cycles(inst.deg2_subgraph(), 4 * inst.a)
    universe = banned.universe
    size = banned.size
    banned_set = set(banned.cycles)
    for combo in itertools.combinations(cycles, size):
        if set(combo) == banned_set:
            continue
        try:
            return md.CycleBasis(tuple(combo), universe)
        except ValueError:
            continue
    raise AssertionError("no alternative basis found")


def turned_variants(cycle):
    shifted = cycle.steps[2:] + cycle.steps[:2]
    return md.Cycle(shifted), md.Cycle(cycle.steps[::-1])


def test_criterion_5_activity_equivalences():
    with criterion(5, "activity equivalences over random maps"):
        for name in ("4_2_g3", "4_4_g4"):
            fix, inst, basis = reference(name)
            alt = independent_basis(inst, basis)
            all_cycles = md.enumerate_cycles(inst.deg2_subgraph(), 4 * inst.a)
            variants = [(c, turned_variants(c)) for c in all_cycles]
            rng = random.Random(20240501)
            plans = activity_plans([inst])
            for m_copies, trials in ((3, 10_000), (5, 2_000)):
                values, verdicts = [], []
                for _ in range(trials):
                    reloc = md.RelocationMap(m_copies, fix.incidence)
                    for r, c in fix.incidence.entries:
                        ell = rng.randrange(m_copies)
                        if ell:
                            reloc.assign_entry(r, c, ell)
                    active = is_uas_active(basis, reloc)
                    beta = md.min_detached_checks(inst, reloc)
                    span_active = all(
                        is_cycle_active(c, reloc) for c in all_cycles
                    )
                    assert active == (beta == 0) == span_active
                    assert is_uas_active(alt, reloc) == active
                    for cyc, (rot, rev) in variants:
                        verdict = is_cycle_active(cyc, reloc)
                        assert is_cycle_active(rot, reloc) == verdict
                        assert is_cycle_active(rev, reloc) == verdict
                    values.append(reloc.values)
                    verdicts.append(active)
                got = intact(plans, np.stack(values, axis=1), m_copies)
                assert got[0].tolist() == verdicts


def test_criterion_6_designer_closure():
    hosts = [
        ("p1 lift", lift_identity(md.canonical_uas("4_2_g3").incidence),
         md.UasConfig(4, 2, 3), 3),
        ("3x3 p3", array_host(3, 3, 3), md.UasConfig(4, 2, 3), 3),
        ("3x3 p5", array_host(3, 3, 5), md.UasConfig(4, 2, 3), 3),
        ("3x5 p5", array_host(3, 5, 5), md.UasConfig(4, 2, 3), 3),
        ("3x5 p7 M5", array_host(3, 5, 7), md.UasConfig(4, 2, 3), 5),
        ("4x4 p5", array_host(4, 4, 5), md.UasConfig(4, 4, 4), 3),
    ]
    with criterion(6, "designer closure on QC hosts"):
        for label, host, config, m_copies in hosts:
            t0 = time.perf_counter()
            res = md.design_md(host, m_copies, config)
            rep = res.report
            assert rep.od_instances > 0, label
            assert rep.final_active == md.enumerate_md_uas(res.h_md, config), label
            assert rep.final_active == 0, label
            assert md.check_regular_gamma(res.h_md) == config.gamma, label
            assert md.check_no_4cycles(md.build_graph(res.h_md)), label

            assert_block_layout(res.h_md, md.expand_qc(host), res.relocation, label)
            assert time.perf_counter() - t0 < 60.0, label


def test_criterion_7_average_count_law():
    with criterion(7, "Monte Carlo average law"):
        host = k4_host()
        config = md.UasConfig(4, 0, 3)
        cls = md.classify_config(config)
        assert cls.non_regenerable and cls.stand_alone
        for m_copies in (3, 5):
            res = md.monte_carlo_avg(host, config, m_copies, trials=10_000, seed=11)
            expected = float(md.expected_md_instances(1, 3, m_copies))
            assert res.expected == md.expected_md_instances(1, 3, m_copies)
            assert abs(res.mean - expected) <= 3 * res.std_error, (m_copies, res)


def test_criterion_8_out_of_scope_statement():
    with criterion(8, "desk-scale substitution"):
        print(
            "\nNot reproducible at desk scale: the published large-code case\n"
            "studies (thousands of absorbing sets removed from externally\n"
            "constructed hosts) and the flash-channel frame-error sweeps,\n"
            "which need a hardware channel model and decoder at >=1e9 frames.\n"
            "Substituted here by the oracle-equivalence and designer-closure\n"
            "criteria (4-6), which exercise the same machinery end to end.\n"
        )
        # the substitute criteria exist and are collectable
        for sub in (
            test_criterion_4_oracle_equivalence,
            test_criterion_5_activity_equivalences,
            test_criterion_6_designer_closure,
        ):
            assert callable(sub)
