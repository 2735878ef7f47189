"""Symbolic fragment: composition, action, differential table."""
import random

import pytest
from models import element_arity, element_degree, one_f_per_path

from einfty.errors import OutsideFragment
from einfty.operads import (act, check_d_squared, compose_i, differential,
                            el_add, el_scale, el_sub, fragment_generators,
                            generator, generator_differential, multi_compose,
                            render, single, symmetric_group, unit, zero)


def test_generator_table():
    assert generator("p").arity == 0 and generator("p").degree == 0
    assert generator("m2_3").degree == 3
    assert generator("m3_1").kind == "operad"
    assert generator("f2_2") == generator("f2_2")
    assert generator("d5").arity == 5 and generator("d5").degree == 3
    assert generator("d2").name == "m2_0"  # alias
    assert generator("d3").name == "m3_1"
    with pytest.raises(OutsideFragment):
        generator("m4_0")
    with pytest.raises(OutsideFragment):
        generator("f3_1")


@pytest.mark.parametrize("name, want", [
    ("p", ("p", 0, 0, "operad")), ("u", ("u", 1, 0, "operad")),
    ("f0", ("f0", 0, 0, "bimodule")), ("f1", ("f1", 1, 0, "bimodule")),
    ("m2_0", ("m2_0", 2, 0, "operad")), ("m3_4", ("m3_4", 3, 4, "operad")),
    ("f2_3", ("f2_3", 2, 3, "bimodule")), ("f3_2", ("f3_2", 3, 2, "bimodule")),
    ("d4", ("d4", 4, 2, "operad")), ("d2", ("m2_0", 2, 0, "operad")),
    ("d3", ("m3_1", 3, 1, "operad")),
    ("m3_0", None), ("f2_0", None), ("f3_1", None), ("d1", None), ("x", None)])
def test_generator_names(name, want):
    if want is None:
        with pytest.raises(OutsideFragment):
            generator(name)
    else:
        g = generator(name)
        assert (g.name, g.arity, g.degree, g.kind) == want


def test_unit_axioms():
    for name in ("m2_0", "m2_2", "m3_1", "f2_1"):
        x = single(name)
        n = element_arity(x)
        assert compose_i(x, unit(), 1) == x
        for i in range(1, n + 1):
            assert compose_i(unit(), x, i) == x


def test_grafting_single_tree():
    m = single("m2_0")
    t = compose_i(m, m, 1)
    assert len(t) == 1
    (tree, labels), coeff = next(iter(t.items()))
    assert coeff == 1 and labels == (1, 2, 3)
    assert render(t) == "m2_0 o1 m2_0"


def test_associativity_on_small_trees():
    # (x o_i y) o_j z agrees with the reassociated composite for all pairs
    # of slots, on every pair of binary/ternary generators
    gens = ["m2_0", "m2_1", "m3_1"]
    for xn in gens:
        for yn in gens:
            x, y = single(xn), single(yn)
            ny = element_arity(y)
            for i in range(1, ny + 1):
                xy = compose_i(x, y, i)
                for zn in ["m2_0", "m2_1"]:
                    z = single(zn)
                    nz = element_arity(z)
                    for j in range(1, nz + 1):
                        lhs = compose_i(xy, z, j)
                        # substitute y into z first, then x into the slot of y
                        yz = compose_i(y, z, j)
                        rhs = compose_i(x, yz, j + i - 1)
                        assert lhs == rhs, (xn, yn, zn, i, j)


def test_action_is_free_left_action():
    x = compose_i(single("m2_0"), single("m2_1"), 2)
    seen = set()
    for s in symmetric_group(3):
        moved = act(s, x)
        key = frozenset(moved.items())
        assert key not in seen  # free action on the tree basis
        seen.add(key)
        for t in symmetric_group(3):
            st = tuple(s[t[k] - 1] for k in range(3))
            assert act(s, act(t, x)) == act(st, x)
    m = single("m2_0")
    swapped = act((2, 1), m)
    assert swapped != m and act((2, 1), swapped) == m


def test_equivariance_of_composition():
    # inner action: (s.x) o_i y = iota_i(s).(x o_i y)
    x, y = single("m2_1"), single("m2_0")
    for s in symmetric_group(2):
        for i in (1, 2):
            lhs = compose_i(act(s, x), y, i)
            # build the block permutation explicitly
            m = 2
            iota = list(range(1, 4))
            for r in range(m):
                iota[i - 1 + r] = i - 1 + s[r]
            rhs = act(tuple(iota), compose_i(x, y, i))
            assert lhs == rhs
    # outer action: x o_i (t.y) = t<i>.(x o_{t^-1(i)} y)
    for t in symmetric_group(2):
        for i in (1, 2):
            lhs = compose_i(x, act(t, y), i)
            tinv = tuple(t.index(k) + 1 for k in (1, 2))
            j = tinv[i - 1]
            base = compose_i(x, y, j)
            # block permutation: slot j of y expands to a block of size 2
            expanded = []
            for slot in (1, 2):
                width = 2 if slot == j else 1
                start = sum(2 if u + 1 == j else 1 for u in range(slot - 1))
                expanded.append((t[slot - 1], width, start))
            perm = [0, 0, 0]
            starts = {}
            pos = 1
            for target, width, start in sorted(expanded, key=lambda e: e[0]):
                starts[target] = pos
                pos += width
            for target, width, start in expanded:
                for u in range(width):
                    perm[start + u] = starts[target] + u
            rhs = act(tuple(perm), base)
            assert lhs == rhs, (t, i)


def test_differential_table_values():
    dm31 = generator_differential("m3_1")
    m = single("m2_0")
    assert dm31 == el_sub(compose_i(m, m, 1), compose_i(m, m, 2))
    assert render(dm31) == "m2_0 o1 m2_0 - m2_0 o2 m2_0"
    # d m2_{k+1} = m2_k - (-1)^k sigma m2_k
    for k in range(0, 3):
        d = generator_differential(f"m2_{k + 1}")
        prev = single(f"m2_{k}")
        expected = el_sub(prev, el_scale(act((2, 1), prev), 1 if k % 2 == 0 else -1))
        assert d == expected


def test_a_infinity_family():
    # d d2 would be the empty sum; d2 is the alias of the strict product
    assert generator_differential("d2") == zero()
    # d d3 instantiates the sign formula and matches the ternary generator
    assert generator_differential("d3") == generator_differential("m3_1")
    for n in (4, 5, 6):
        assert differential(generator_differential(f"d{n}")) == zero()


def test_check_d_squared_clean():
    report = check_d_squared(5, 4)
    names = {r["generator"] for r in report}
    assert {"m2_2", "m3_4", "f2_4", "f3_2", "d4", "d5"} <= names
    assert all(r["ok"] for r in report), [r for r in report if not r["ok"]]


def test_leibniz_rule_on_random_composites():
    rng = random.Random(42)
    pool = ["m2_0", "m2_1", "m2_2", "m3_1", "m3_2", "f2_1", "f2_2", "f1"]
    done = 0
    while done < 40:
        xn, yn = rng.choice(pool), rng.choice(pool)
        x, y = single(xn), single(yn)
        if generator(xn).kind == "bimodule" and generator(yn).kind == "bimodule":
            continue
        i = rng.randint(1, element_arity(y))
        lhs = differential(compose_i(x, y, i))
        sgn = -1 if (element_degree(x) or 0) % 2 else 1
        rhs = el_add(compose_i(differential(x), y, i) if differential(x) else {},
                     el_scale(compose_i(x, differential(y), i)
                              if differential(y) else {}, sgn))
        assert lhs == rhs, (xn, yn, i)
        done += 1


def test_bimodule_trees_have_one_f_per_path():
    for name in ("f2_1", "f2_2", "f2_3", "f3_2"):
        for (tree, _labels), _c in generator_differential(name).items():
            assert one_f_per_path(tree), render_tree_fail(name, tree)


def render_tree_fail(name, tree):
    return f"differential of {name} produced invalid tree {tree}"


def test_mixed_composition_pads_with_f1():
    # the binary bimodule generator substituted into a strict product slot
    out = compose_i(single("f2_1"), single("m2_0"), 1)
    assert element_arity(out) == 3
    for (tree, _), _ in out.items():
        assert one_f_per_path(tree)
    with pytest.raises(ValueError):
        compose_i(single("f1"), single("f2_1"), 1)


def test_multi_compose_matches_padded_single_slot():
    # padding fills the other slot with f1, so one padded substitution of f1
    # already realizes the full (f1, f1) o m composite
    f1 = single("f1")
    m = single("m2_1")
    via_multi = multi_compose([f1, f1], m)
    assert compose_i(f1, m, 2) == via_multi
    assert compose_i(f1, m, 1) == via_multi


def test_normal_form_canonical():
    x = el_add(single("m2_0"), single("m2_0"))
    assert x == el_scale(single("m2_0"), 2)
    assert el_sub(x, x) == zero()
    y = act((2, 1), single("m2_0"))
    assert list(y) != list(single("m2_0"))
    # canonicalization idempotent: re-adding zero changes nothing
    assert el_add(y, zero()) == y


def test_fragment_listing():
    names = fragment_generators(3, 4)
    assert "m3_4" in names and "f2_4" in names and "f3_2" in names
    assert "d4" not in names  # arity bound
    assert "d4" in fragment_generators(4, 4)
