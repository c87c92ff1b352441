import random
from pathlib import Path

import pytest

from pachner import simplicial
from pachner.simplicial import (
    FACE_NODES_LIMIT,
    Triangulation,
    apply_move,
    boundary_face,
    compose_maps,
    face_map,
    find_move_sites,
    pachner_sides,
    simplex_boundary,
)
from reference import (
    INCOHERENT_SPHERES,
    all_splittings,
    check_splitting,
    euler_characteristic,
    exhaustive_move_sites,
    face_classes,
    flipped_sphere,
    gluing_error,
)


DATA = Path(__file__).resolve().parent.parent / "data"


def induced_boundary(t):
    """Map from boundary facet tuple to its induced orientation sign."""
    out = {}
    for e in range(len(t.simplexes)):
        for i in range(t.dim + 1):
            if (e, i) not in t.gluing:
                face = t.facet(e, i)
                assert face not in out, "boundary facet seen twice"
                out[face] = t.simplexes[e][1] * (-1) ** i
    return out


# -- face and boundary maps -------------------------------------------------


def test_face_map_basics():
    assert face_map(0, 1) == (1,)
    assert face_map(1, 3) == (0, 2, 3)
    with pytest.raises(ValueError):
        face_map(4, 3)


def test_face_map_corner_example():
    # both composites [0] -> [2] send 0 to 0 and miss {1, 2}
    lhs = compose_maps(face_map(2, 2), face_map(1, 1))
    rhs = compose_maps(face_map(1, 2), face_map(1, 1))
    assert lhs == rhs == (0,)


def test_face_map_relation_exhaustive():
    for n in range(1, 7):
        for j in range(n):
            for i in range(j + 1):
                lhs = compose_maps(face_map(i, n), face_map(j, n - 1))
                rhs = compose_maps(face_map(j + 1, n), face_map(i, n - 1))
                assert lhs == rhs, (n, i, j)


def test_boundary_face_basics():
    assert boundary_face((0, 1, 2), 1) == (0, 2)
    assert boundary_face((0, 1, 2), 0) == (1, 2)
    with pytest.raises(ValueError):
        boundary_face((3,), 0)
    with pytest.raises(ValueError):
        boundary_face((0, 1), 2)


def test_boundary_relation_instance():
    s = (0, 1, 2)
    assert boundary_face(boundary_face(s, 0), 0) == (2,)
    assert boundary_face(boundary_face(s, 1), 0) == (2,)


def test_boundary_relation_exhaustive():
    for k in range(3, 8):
        s = tuple(range(0, 2 * k, 2))  # non-contiguous labels
        for j in range(k - 2):
            for i in range(j + 1):
                lhs = boundary_face(boundary_face(s, i), j)
                rhs = boundary_face(boundary_face(s, j + 1), i)
                assert lhs == rhs, (k, i, j)


# -- pachner sides -----------------------------------------------------------


def test_pachner_sides_distinguished():
    before, after = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    assert [s for s, _ in before.simplexes] == [
        (1, 2, 3, 4, 5),
        (0, 1, 3, 4, 5),
        (0, 1, 2, 3, 5),
    ]
    assert all(sign == 1 for _, sign in before.simplexes)
    assert all(sign == 1 for _, sign in after.simplexes)
    assert [s for s, _ in after.simplexes] == [
        (0, 2, 3, 4, 5),
        (0, 1, 2, 4, 5),
        (0, 1, 2, 3, 4),
    ]


def test_pachner_sides_single_facet():
    before, after = pachner_sides(2, (0,), (1, 2))
    assert [s for s, _ in before.simplexes] == [(1, 2)]


def test_pachner_sides_share_boundary_all_splittings():
    for n in range(2, 7):
        for I, J in all_splittings(n):
            before, after = pachner_sides(n, I, J)
            assert induced_boundary(before) == induced_boundary(after), (n, I, J)


# -- triangulation structure -------------------------------------------------


def test_sphere_closed_and_coherent():
    for n in (3, 4, 5):
        t = simplex_boundary(n)
        assert t.is_closed()
        assert t.orientation_witness() is None


def test_euler_characteristics():
    assert simplex_boundary(3).euler_characteristic() == 2
    assert simplex_boundary(4).euler_characteristic() == 0
    assert simplex_boundary(5).euler_characteristic() == 2
    ball, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    assert ball.euler_characteristic() == 1


def test_orientation_witness_detects_flip():
    t = simplex_boundary(5)
    bad = Triangulation(
        4,
        [(v, (-s if e == 0 else s)) for e, (v, s) in enumerate(t.simplexes)],
        dict(t.gluing),
    )
    assert bad.orientation_witness() is not None


@pytest.mark.parametrize("flips, pair, tetrahedron", INCOHERENT_SPHERES)
def test_orientation_witness_is_the_least_incoherent_pair(flips, pair, tetrahedron):
    # several pairs are incoherent; the witness is the least one with
    # occurrence < partner, whatever order the gluing is listed in
    for reverse in (False, True):
        t = flipped_sphere(flips, reverse)
        incoherent = [
            (occ, partner)
            for occ, partner in t.gluing.items()
            if occ < partner
            and t.simplexes[occ[0]][1] * (-1) ** occ[1] == t.simplexes[partner[0]][1] * (-1) ** partner[1]
        ]
        assert len(incoherent) > 1
        assert t.orientation_witness() == pair == min(incoherent)
        assert t.facet(*pair[0]) == tetrahedron


def test_derived_gluing_rejects_triple_facet():
    with pytest.raises(ValueError, match="occurs 3 times"):
        Triangulation(
            1,
            [((0, 1), 1), ((0, 1), -1), ((0, 1), 1)],
        )


@pytest.mark.parametrize(
    "simplexes, message",
    [
        ([((0, 1, 2), 1)], "(0, 1, 2) is not a 1-simplex"),
        ([((0,), 1)], "(0,) is not a 1-simplex"),
        ([((0, 0), 1)], "vertices (0, 0) not strictly increasing"),
        ([((0, 1), 1), ((2, 1), -1)], "vertices (2, 1) not strictly increasing"),
        ([((0, 1), 1), ((1, 2), 0)], "orientation sign must be +-1, got 0"),
        ([((0, 1), 2)], "orientation sign must be +-1, got 2"),
    ],
)
def test_construction_refuses_a_bad_simplex(simplexes, message):
    with pytest.raises(ValueError) as refused:
        Triangulation(1, simplexes)
    assert str(refused.value) == message


def test_explicit_gluing_validation():
    simp = [((0, 1, 2), 1), ((0, 1, 2), -1)]
    ok = {
        ((0, i), (1, i))[0]: ((0, i), (1, i))[1]
        for i in range(3)
    }
    ok.update({v: k for k, v in ok.items()})
    t = Triangulation(2, simp, ok)
    assert t.is_closed()
    with pytest.raises(ValueError, match="involution"):
        Triangulation(2, simp, {(0, 0): (1, 0)})
    # the second gluing is a simplex glued to itself, which state sums rely on never seeing
    for gluing in ({(0, 0): (1, 1), (1, 1): (0, 0)}, {(0, 0): (0, 1), (0, 1): (0, 0)}):
        with pytest.raises(ValueError, match="different vertices"):
            Triangulation(2, simp, gluing)


# -- move sites ---------------------------------------------------------------


def test_defining_configuration_has_one_site():
    I0, J0 = (0, 2, 4), (1, 3, 5)
    ball, _ = pachner_sides(5, I0, J0)
    sites = find_move_sites(ball, I0, J0)
    assert len(sites) == 1
    site = sites[0]
    assert site.phi == (0, 1, 2, 3, 4, 5)
    assert site.epsilon == 1
    assert site.entries == (0, 1, 2)


def test_sphere_has_even_half_site():
    I0, J0 = (0, 2, 4), (1, 3, 5)
    t = simplex_boundary(5)
    sites = find_move_sites(t, I0, J0)
    assert len(sites) >= 1
    assert any(s.phi == (0, 1, 2, 3, 4, 5) and s.epsilon == 1 for s in sites)
    # the odd half matches the reversed splitting
    odd_sites = find_move_sites(t, J0, I0)
    assert any(s.phi == (0, 1, 2, 3, 4, 5) for s in odd_sites)


def test_single_pentachoron_has_no_33_site():
    t = Triangulation(4, [((0, 1, 2, 3, 4), 1)])
    I0, J0 = (0, 2, 4), (1, 3, 5)
    assert find_move_sites(t, I0, J0) == []


def test_fresh_vertex_site_only_at_last_position():
    t = Triangulation(2, [((0, 1, 2), 1)])
    assert find_move_sites(t, (0,), (1, 2, 3)) == []
    sites = find_move_sites(t, (3,), (0, 1, 2))
    assert len(sites) == 1
    assert sites[0].phi == (0, 1, 2, 3)


# -- applying moves -----------------------------------------------------------


def test_apply_33_to_defining_ball():
    I0, J0 = (0, 2, 4), (1, 3, 5)
    before, after = pachner_sides(5, I0, J0)
    site = find_move_sites(before, I0, J0)[0]
    moved = apply_move(before, site)
    assert sorted(moved.simplexes) == sorted(after.simplexes)
    assert induced_boundary(moved) == induced_boundary(before)


def test_apply_is_stale_after_change():
    I0, J0 = (0, 2, 4), (1, 3, 5)
    before, _ = pachner_sides(5, I0, J0)
    site = find_move_sites(before, I0, J0)[0]
    moved = apply_move(before, site)
    with pytest.raises(ValueError, match="stale"):
        apply_move(moved, site)


def test_move_involution_on_sphere():
    I0, J0 = (0, 2, 4), (1, 3, 5)
    t = simplex_boundary(5)
    site = next(
        s for s in find_move_sites(t, I0, J0) if s.phi == (0, 1, 2, 3, 4, 5)
    )
    t1 = apply_move(t, site)
    assert t1.is_closed()
    assert t1.orientation_witness() is None
    assert t1.euler_characteristic() == 2
    # six entries now carry odd-facet vertex tuples, each twice
    tuples = sorted(v for v, _ in t1.simplexes)
    assert tuples == sorted(
        [t.simplexes[j][0] for j in (1, 3, 5)] * 2
    )
    # the inserted trio sits at the new indices and supports the inverse
    back_sites = [
        s
        for s in find_move_sites(t1, J0, I0)
        if s.phi == (0, 1, 2, 3, 4, 5) and s.entries == (3, 4, 5)
    ]
    assert len(back_sites) == 1
    t2 = apply_move(t1, back_sites[0])
    assert sorted(t2.simplexes) == sorted(t.simplexes)


def test_one_three_move_in_dim_two():
    t = Triangulation(2, [((0, 1, 2), 1)])
    site = find_move_sites(t, (3,), (0, 1, 2))[0]
    moved = apply_move(t, site)
    assert sorted(v for v, _ in moved.simplexes) == [
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    ]
    assert moved.orientation_witness() is None
    assert moved.euler_characteristic() == 1
    assert induced_boundary(moved) == induced_boundary(t)
    # inverse (3,1) move removes the fresh vertex again
    back = find_move_sites(moved, (0, 1, 2), (3,))
    assert len(back) == 1
    restored = apply_move(moved, back[0])
    assert sorted(restored.simplexes) == sorted(t.simplexes)


def test_two_two_move_keeps_count():
    t = simplex_boundary(3)
    sites = find_move_sites(t, (0, 2), (1, 3))
    assert sites
    moved = apply_move(t, sites[0])
    assert len(moved.simplexes) == len(t.simplexes)
    assert moved.euler_characteristic() == 2
    assert moved.orientation_witness() is None


def test_random_walks_preserve_invariants():
    rng = random.Random(11)
    for dim in (2, 3):
        t = simplex_boundary(dim + 1)
        chi = t.euler_characteristic()
        for _ in range(12):
            splittings = list(all_splittings(dim + 1))
            rng.shuffle(splittings)
            applied = False
            for I, J in splittings:
                sites = find_move_sites(t, I, J)
                if sites:
                    t = apply_move(t, rng.choice(sites))
                    applied = True
                    break
            assert applied
            assert t.is_closed()
            assert t.orientation_witness() is None
            assert t.euler_characteristic() == chi


def test_site_index_matches_a_fresh_build():
    # each step searches the walked complex (whose index is then cached)
    # and an uncached copy parsed from its own file text
    rng = random.Random(5)
    for dim in (2, 3, 4):
        t = simplex_boundary(dim + 1)
        for _ in range(6):
            found = []
            for I, J in all_splittings(dim + 1):
                sites = find_move_sites(t, I, J)
                assert sites == find_move_sites(Triangulation.from_lines(t.to_lines()), I, J)
                found.extend(sites)
            fresh = Triangulation.from_lines(t.to_lines())
            assert t.face_classes() == fresh.face_classes()
            t = apply_move(t, rng.choice(found))


def test_site_search_matches_the_exhaustive_search():
    # seeded walks over every move type, the balls with boundary that each
    # move starts from and produces, and the shipped complexes, one of
    # which holds two entries with the same vertex tuple
    rng = random.Random(3)
    complexes = [Triangulation.load(path) for path in sorted(DATA.glob("*.tri"))]
    assert any(
        len({v for v, _ in t.simplexes}) < len(t.simplexes) for t in complexes
    )
    for dim in (2, 3, 4):
        for I, J in all_splittings(dim + 1):
            complexes.extend(pachner_sides(dim + 1, I, J))
        for _ in range(3):
            t = simplex_boundary(dim + 1)
            for _ in range(6):
                complexes.append(t)
                found = [s for I, J in all_splittings(dim + 1) for s in find_move_sites(t, I, J)]
                t = apply_move(t, rng.choice(found))
        # incoherent orientations: one entry of a walked complex reversed
        for e in range(0, len(t.simplexes), 3):
            flipped = [(v, -s if k == e else s) for k, (v, s) in enumerate(t.simplexes)]
            complexes.append(Triangulation(dim, flipped, t.gluing))
    searched = matched = 0
    for t in complexes:
        classes = face_classes(t).values()
        for I, J in all_splittings(t.dim + 1):
            sites = find_move_sites(t, I, J)
            assert sites == exhaustive_move_sites(t, I, J, classes)
            searched += 1
            matched += bool(sites)
    assert matched > searched // 10


def test_face_classes_equal_the_reference():
    # the shipped and benchmark complexes (one repeats a vertex tuple),
    # seeded walks of every move type, and the balls each move starts from
    # and produces: as many classes of each size as the reference finds,
    # one top face per entry, a facet class for each glued pair or
    # unglued occurrence, and the same Euler characteristic
    paths = sorted(DATA.glob("*.tri")) + sorted((DATA.parent / "perfbench" / "data").glob("*.tri"))
    complexes = [Triangulation.load(path) for path in paths]
    assert any(len({v for v, _ in t.simplexes}) < len(t.simplexes) for t in complexes)
    rng = random.Random(7)
    applied = set()
    for dim in (2, 3, 4):
        for I, J in all_splittings(dim + 1):
            complexes.extend(pachner_sides(dim + 1, I, J))
        for _ in range(3):
            t = simplex_boundary(dim + 1)
            # step k moves at a site of size k % (dim + 1) + 1 when there is one
            for step in range(2 * (dim + 1)):
                found = [s for I, J in all_splittings(dim + 1) for s in find_move_sites(t, I, J)]
                sized = [s for s in found if len(s.I) == step % (dim + 1) + 1]
                site = rng.choice(sized or found)
                applied.add((dim, len(site.I)))
                t = apply_move(t, site)
                complexes.append(t)
    assert applied == {(dim, p) for dim in (2, 3, 4) for p in range(1, dim + 2)}
    for t in complexes:
        f, d = t.face_classes(), t.dim
        sizes = [len(min(members)[1]) for members in face_classes(t).values()]
        assert f == tuple(sizes.count(k) for k in range(1, d + 2))
        unglued = (d + 1) * len(t.simplexes) - len(t.gluing)
        assert f[d] == len(t.simplexes)
        assert 2 * f[d - 1] == (d + 1) * f[d] + unglued
        assert t.euler_characteristic() == euler_characteristic(t)


def test_each_move_size_is_enumerated_once_per_complex(monkeypatch):
    built = []
    enumerate_sites = Triangulation._enumerate_sites
    monkeypatch.setattr(
        Triangulation, "_enumerate_sites", lambda t, p: built.append((t, p)) or enumerate_sites(t, p)
    )
    t = simplex_boundary(5)
    rng = random.Random(2)
    for _ in range(4):
        built.clear()
        for _ in range(2):
            found = [s for I, J in all_splittings(5) for s in find_move_sites(t, I, J)]
        assert built == [(t, p) for p in range(1, 6)]
        t = apply_move(t, rng.choice(found))


def walked_complexes(seed, steps):
    """Seeded walks over every move type from the boundaries of the 3-, 4-
    and 5-simplex, every complex met on the way."""
    rng = random.Random(seed)
    complexes = []
    for dim in (2, 3, 4):
        t = simplex_boundary(dim + 1)
        for _ in range(steps):
            complexes.append(t)
            found = [s for I, J in all_splittings(dim + 1) for s in find_move_sites(t, I, J)]
            t = apply_move(t, rng.choice(found))
    return complexes


def test_cone_mates_are_found_once_per_complex_for_every_size(monkeypatch):
    found = []
    find_cone_mates = Triangulation._find_cone_mates
    monkeypatch.setattr(
        Triangulation, "_find_cone_mates", lambda t: found.append(t) or find_cone_mates(t)
    )
    rng = random.Random(6)
    for walked in walked_complexes(6, 5):
        t = Triangulation(walked.dim, walked.simplexes, walked.gluing)
        classes = face_classes(t).values()
        sizes = list(range(2, t.dim + 2))
        rng.shuffle(sizes)
        found.clear()
        for p in sizes:
            for I, J in all_splittings(t.dim + 1):
                if len(I) == p:
                    assert find_move_sites(t, I, J) == exhaustive_move_sites(t, I, J, classes)
        assert found == [t]


def test_a_size_listed_after_others_equals_a_first_listing():
    rng = random.Random(8)
    for walked in walked_complexes(8, 5):
        n = walked.dim + 1
        for p in range(2, n + 1):
            first = Triangulation(walked.dim, walked.simplexes, walked.gluing)
            later = Triangulation(walked.dim, walked.simplexes, walked.gluing)
            others = [k for k in range(2, n + 1) if k != p]
            rng.shuffle(others)
            for k in others:
                later._move_sites(k)
            # the same splittings in the same order, each with the same sites
            assert list(first._move_sites(p).items()) == list(later._move_sites(p).items())
            for I, J in all_splittings(n):
                if len(I) == p:
                    assert find_move_sites(first, I, J) == find_move_sites(later, I, J)


@pytest.mark.parametrize(
    "I, J",
    [
        ((0, 2, 4), (1, 3, 5)),
        ([0, 2, 4], [1, 3, 5]),
        ([4, 0, 2], (5, 3, 1)),
        ((4, 0, 2), (5, 3, 1)),
        ((0, 0, 2), (1, 3, 4, 5)),
        ((0, 2, 4), (1, 3, 5, 5)),
        ((0, 2), (1, 3, 5)),
        ((0, 2, 4), (1, 3, 5, 6)),
        ((), (0, 1, 2, 3, 4, 5)),
        ((0, 1, 2, 3, 4, 5), ()),
        ([], []),
    ],
)
def test_the_splitting_memo_keeps_every_refusal(I, J):
    t = simplex_boundary(5)
    try:
        want = check_splitting(5, I, J)
    except ValueError as exc:
        want = str(exc)
    for again in range(2):
        cached = simplicial._check_tuples.cache_info()
        try:
            got = simplicial._check_splitting(5, I, J)
        except ValueError as exc:
            got = str(exc)
        assert got == want
        # a refusal is never kept in the cache; a splitting of [0..n],
        # given as tuples or as lists, is found there on the second call
        info = simplicial._check_tuples.cache_info()
        if isinstance(want, str):
            assert info.currsize == cached.currsize and info.hits == cached.hits
        elif again:
            assert info.hits == cached.hits + 1
        if isinstance(want, str):
            with pytest.raises(ValueError) as refused:
                find_move_sites(t, I, J)
            assert str(refused.value) == want
        else:
            assert find_move_sites(t, I, J) == find_move_sites(t, *want)


def test_the_splitting_memo_is_bounded():
    # the 16,382 splittings of [0..13] are more than the memo keeps
    for _ in range(2):
        for I, J in all_splittings(13):
            assert simplicial._check_splitting(13, I, J) == (I, J)
            with pytest.raises(ValueError, match="is not a splitting"):
                simplicial._check_splitting(12, I, J)
    info = simplicial._check_tuples.cache_info()
    assert info.currsize == info.maxsize == 1 << 12


def test_every_gluing_check_still_runs(monkeypatch):
    # explicit gluings of walked complexes, each perturbed one way and
    # given in a shuffled order, are refused with the first failing
    # check's message; a valid one compares each glued pair's facets once
    rng = random.Random(9)
    facets = []
    facet = Triangulation.facet
    monkeypatch.setattr(
        Triangulation, "facet", lambda t, e, i: facets.append((e, i)) or facet(t, e, i)
    )
    refused = set()
    for t in walked_complexes(9, 4):
        for _ in range(6):
            items = list(t.gluing.items())
            occ, partner = rng.choice(items)
            other = rng.choice(items)[0]
            kind = rng.randrange(5)
            if kind == 0:  # a one-way entry
                items.remove((partner, occ))
            elif kind == 1:  # glued to itself
                items = [(a, b) for a, b in items if occ not in (a, b)] + [(occ, occ)]
            elif kind == 2:  # two pairs swapped, symmetrically
                mate = t.gluing[other]
                if other not in (occ, partner):
                    swap = {occ: other, other: occ, partner: mate, mate: partner}
                    items = [(a, swap.get(a, b)) for a, b in items]
            elif kind == 3:  # redirected one way
                items = [(a, other if a == occ else b) for a, b in items]
            elif kind == 4:  # an occurrence the complex does not have
                items.append(((len(t.simplexes), 0), occ))
            rng.shuffle(items)
            gluing = dict(items)
            want = gluing_error(t.dim, t.simplexes, gluing)
            facets.clear()
            if want is None:
                Triangulation(t.dim, t.simplexes, gluing)
                assert len(facets) == len(gluing)
                refused.add(None)
            else:
                with pytest.raises(ValueError) as exc:
                    Triangulation(t.dim, t.simplexes, gluing)
                assert str(exc.value) == want
                refused.add(next(k for k in ("unknown", "involution", "different") if k in want))
    assert refused == {None, "unknown", "involution", "different"}


def test_a_move_checks_its_seam_and_equals_a_fully_checked_rebuild():
    # seeded walks over every move type in dimensions 2-4, from the simplex
    # boundaries and from the move balls, which have boundary: each moved
    # complex passes the whole gluing check, and the constructor, which
    # checks every pair, accepts its gluing as it is
    rng = random.Random(12)
    moved_types = set()
    for dim in (2, 3, 4):
        n = dim + 1
        starts = [simplex_boundary(n)]
        starts += [side for I, J in all_splittings(n) for side in pachner_sides(n, I, J)]
        for start in starts:
            t = start
            for _ in range(6 if start.is_closed() else 2):
                by_type = {}
                for I, J in all_splittings(n):
                    by_type.setdefault(len(I), []).extend(find_move_sites(t, I, J))
                types = sorted(p for p, sites in by_type.items() if sites)
                if not types:
                    break
                # the largest type not yet moved in this dimension, if any
                fresh = [p for p in types if (dim, p) not in moved_types]
                p = fresh[-1] if fresh else rng.choice(types)
                moved = apply_move(t, rng.choice(by_type[p]))
                moved._validate_gluing()
                rebuilt = Triangulation(dim, moved.simplexes, dict(moved.gluing))
                assert rebuilt.simplexes == moved.simplexes
                assert rebuilt.gluing == moved.gluing
                moved_types.add((dim, p))
                t = moved
    assert moved_types == {(d, p) for d in (2, 3, 4) for p in range(1, d + 2)}


def test_a_corrupted_seam_is_refused(monkeypatch):
    # a move that glues each new facet to the next facet of its entry
    # keeps an involution but joins different vertices
    t = simplex_boundary(5)
    site = find_move_sites(t, (0, 2, 4), (1, 3, 5))[0]
    pos = simplicial._pos
    with monkeypatch.context() as patched:
        patched.setattr(simplicial, "_pos", lambda j, i: (pos(j, i) + 1) % 5)
        with pytest.raises(ValueError, match="have different vertices"):
            apply_move(t, site)
    apply_move(t, site)


def test_a_cached_search_reads_the_live_splitting_limit(monkeypatch):
    t = simplex_boundary(5)
    sites = find_move_sites(t, (0, 2, 4), (1, 3, 5))
    cached = simplicial._check_tuples.cache_info()
    with monkeypatch.context() as patched:
        patched.setattr(simplicial, "SPLITTINGS_LIMIT", 19)
        with pytest.raises(ValueError) as want:
            simplicial.check_move_type(4, 3)
        with pytest.raises(ValueError) as refused:
            find_move_sites(t, (0, 2, 4), (1, 3, 5))
    assert str(refused.value) == str(want.value)
    assert "have 20 splittings, over the limit of 19" in str(want.value)
    # the refusal read the memo, and the restored limit passes again
    assert simplicial._check_tuples.cache_info().hits == cached.hits + 1
    assert find_move_sites(t, (0, 2, 4), (1, 3, 5)) == sites


def test_returned_site_lists_belong_to_the_caller():
    t = simplex_boundary(5)
    sites = find_move_sites(t, (0, 2, 4), (1, 3, 5))
    kept = list(sites)
    sites.clear()
    again = find_move_sites(t, (0, 2, 4), (1, 3, 5))
    assert again == kept and again is not sites
    again.append(again[0])
    assert find_move_sites(t, (0, 2, 4), (1, 3, 5)) == kept
    apply_move(t, kept[0])


def test_site_search_refuses_past_the_splitting_limit_before_enumerating(monkeypatch):
    monkeypatch.setattr(Triangulation, "_enumerate_sites", lambda t, p: pytest.fail("enumerated"))
    monkeypatch.setattr(simplicial, "SPLITTINGS_LIMIT", 19)
    t = simplex_boundary(5)
    # the (3,3) move of a pentachoron complex has C(6, 3) = 20 splittings
    with pytest.raises(ValueError, match=r"\(3,3\) moves in dimension 4 have 20 splittings, over the limit of 19"):
        find_move_sites(t, (0, 2, 4), (1, 3, 5))
    assert t._mates is None
    # its (2,4) move has 15, so that search goes ahead
    with pytest.raises(pytest.fail.Exception, match="enumerated"):
        find_move_sites(t, (0, 1), (2, 3, 4, 5))


def test_site_search_and_moves_build_no_face_classes(monkeypatch):
    t = simplex_boundary(5)
    rng = random.Random(11)
    for _ in range(8):
        found = [s for I, J in all_splittings(5) for s in find_move_sites(t, I, J)]
        t = apply_move(t, rng.choice(found))
    monkeypatch.setattr(Triangulation, "_build_face_classes", lambda t: pytest.fail("built"))
    for I, J in all_splittings(5):
        for site in find_move_sites(t, I, J):
            apply_move(t, site)


def test_face_classes_built_once_per_triangulation(monkeypatch):
    builds = []
    build = Triangulation._build_face_classes
    monkeypatch.setattr(Triangulation, "_build_face_classes", lambda t: builds.append(t) or build(t))
    t = simplex_boundary(5)
    sites = [s for I, J in all_splittings(5) for s in find_move_sites(t, I, J)]
    moved = apply_move(t, next(s for s in sites if len(s.I) > 1))
    assert t.euler_characteristic() == moved.euler_characteristic() == 2
    assert builds == [t, moved]


def test_face_classes_refuse_a_complex_past_the_node_limit(monkeypatch):
    # one 18-simplex has 2**19 - 1 vertex subsets; none becomes a node
    monkeypatch.setattr(simplicial, "_new_forest", lambda *args: pytest.fail("made a node"))
    single = Triangulation(18, [(tuple(range(19)), 1)])
    with pytest.raises(ValueError, match="need 524287 nodes, over the limit of 262144"):
        single.face_classes()
    # the spy stands in for the one allocator of nodes: a complex within
    # the limit reaches it
    with pytest.raises(pytest.fail.Exception, match="made a node"):
        simplex_boundary(5).face_classes()
    # a single 17-simplex and 8,456 pentachora fit; one more pentachoron does not
    assert 2**18 - 1 <= FACE_NODES_LIMIT and 8456 * 31 <= FACE_NODES_LIMIT < 8457 * 31


def test_face_node_limit_is_inclusive(monkeypatch):
    # the boundary of the 5-simplex: 6 pentachora, 31 nodes each
    monkeypatch.setattr(simplicial, "FACE_NODES_LIMIT", 6 * 31 - 1)
    with pytest.raises(ValueError, match="need 186 nodes, over the limit of 185"):
        simplex_boundary(5).face_classes()
    monkeypatch.setattr(simplicial, "FACE_NODES_LIMIT", 6 * 31)
    assert simplex_boundary(5).euler_characteristic() == 2


def test_every_shipped_test_and_benchmark_complex_is_admitted():
    paths = sorted(DATA.glob("*.tri")) + sorted((DATA.parent / "perfbench" / "data").glob("*.tri"))
    assert len(paths) >= 16
    complexes = [Triangulation.load(path) for path in paths] + [simplex_boundary(n) for n in range(2, 7)]
    for t in complexes:
        assert t.face_classes()
    # a move adds at most dim top simplexes; the longest walk any test or
    # benchmark runs, the simplicial-engine criterion's 33 moves on the
    # boundary of the 5-simplex, stays within 6 + 33 * 4 pentachora
    assert (6 + 33 * 4) * 31 <= FACE_NODES_LIMIT


def test_triangulation_cannot_be_changed_under_its_cache():
    t = simplex_boundary(5)
    with pytest.raises(TypeError):
        t.gluing[(0, 0)] = (1, 0)
    with pytest.raises(TypeError):
        t.face_classes()[0] = 0
    assert t.gluing == dict(t.gluing)
    assert not any(line.startswith("glue") for line in t.to_lines())


# -- files --------------------------------------------------------------------


def test_file_round_trip(tmp_path):
    t = simplex_boundary(5)
    path = tmp_path / "sphere.tri"
    t.save(path)
    text = path.read_text()
    assert text.startswith("dim 4\n")
    assert "pent 1 2 3 4 5 +" in text
    loaded = Triangulation.load(path)
    assert loaded.simplexes == t.simplexes
    assert loaded.gluing == t.gluing


def test_file_round_trip_with_explicit_gluing(tmp_path):
    I0, J0 = (0, 2, 4), (1, 3, 5)
    t = simplex_boundary(5)
    site = next(
        s for s in find_move_sites(t, I0, J0) if s.phi == (0, 1, 2, 3, 4, 5)
    )
    doubled = apply_move(t, site)
    path = tmp_path / "doubled.tri"
    doubled.save(path)
    assert "glue" in path.read_text()
    loaded = Triangulation.load(path)
    assert loaded.simplexes == doubled.simplexes
    assert loaded.gluing == doubled.gluing


@pytest.mark.parametrize(
    "bad, lineno",
    [("dim", 1), ("dim x", 1), ("pent 0 1 2 3 a +", 2), ("glue 0 1 x 2", 3)],
)
def test_malformed_line_names_its_number(bad, lineno):
    lines = ["dim 4", "pent 0 1 2 3 4 +"][: lineno - 1] + [bad]
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        Triangulation.from_lines(lines)


def test_file_parsing_errors_and_comments():
    t = Triangulation.from_lines(
        ["# a sphere", "dim 2", "simp 0 1 2 +", "simp 0 1 2 - # mirror"]
    )
    assert len(t.simplexes) == 2
    with pytest.raises(ValueError, match="dim header"):
        Triangulation.from_lines(["simp 0 1 2 +"])
    with pytest.raises(ValueError, match="pent lines need dim 4"):
        Triangulation.from_lines(["dim 2", "pent 0 1 2 +"])
    with pytest.raises(ValueError, match="unknown keyword"):
        Triangulation.from_lines(["dim 2", "tet 0 1 2 +"])
    with pytest.raises(ValueError, match="sign"):
        Triangulation.from_lines(["dim 2", "simp 0 1 2 1"])
    with pytest.raises(ValueError, match=r"unknown occurrence \(7, 2\)"):
        Triangulation.from_lines(["dim 4", "pent 0 1 2 3 4 +", "glue 0 0 7 2"])
