import itertools
import random
from pathlib import Path

import pytest

from pachner import simplicial
from pachner.simplicial import (
    FACE_NODES_LIMIT,
    MoveSite,
    Triangulation,
    _pos,
    _site_interior_ok,
    apply_move,
    boundary_face,
    compose_maps,
    distinguished_splitting,
    face_map,
    find_move_sites,
    pachner_sides,
    simplex_boundary,
)


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


def all_splittings(n):
    for p in range(1, n + 1):
        for I in itertools.combinations(range(n + 1), p):
            J = tuple(k for k in range(n + 1) if k not in I)
            yield I, J


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


def test_distinguished_splitting_table():
    expected = {
        1: (1, 1),
        2: (2, 1),
        3: (2, 2),
        4: (3, 2),
        5: (3, 3),
        6: (4, 3),
        7: (4, 4),
    }
    for n, (p, q) in expected.items():
        I, J = distinguished_splitting(n)
        assert (len(I), len(J)) == (p, q)
        assert sorted(I + J) == list(range(n + 1))
    assert distinguished_splitting(5) == ((0, 2, 4), (1, 3, 5))


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


def test_pachner_sides_custom_labels():
    before, _ = pachner_sides(2, (0, 1), (2,), labels=(3, 7, 9))
    assert [s for s, _ in before.simplexes] == [(7, 9), (3, 9)]
    with pytest.raises(ValueError):
        pachner_sides(2, (0, 1), (2,), labels=(3, 3, 9))


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


def test_derived_gluing_rejects_triple_facet():
    with pytest.raises(ValueError, match="occurs 3 times"):
        Triangulation(
            1,
            [((0, 1), 1), ((0, 1), -1), ((0, 1), 1)],
        )


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
    I0, J0 = distinguished_splitting(5)
    ball, _ = pachner_sides(5, I0, J0)
    sites = find_move_sites(ball, I0, J0)
    assert len(sites) == 1
    site = sites[0]
    assert site.phi == (0, 1, 2, 3, 4, 5)
    assert site.epsilon == 1
    assert site.entries == (0, 1, 2)


def test_sphere_has_even_half_site():
    I0, J0 = distinguished_splitting(5)
    t = simplex_boundary(5)
    sites = find_move_sites(t, I0, J0)
    assert len(sites) >= 1
    assert any(s.phi == (0, 1, 2, 3, 4, 5) and s.epsilon == 1 for s in sites)
    # the odd half matches the reversed splitting
    odd_sites = find_move_sites(t, J0, I0)
    assert any(s.phi == (0, 1, 2, 3, 4, 5) for s in odd_sites)


def test_single_pentachoron_has_no_33_site():
    t = Triangulation(4, [((0, 1, 2, 3, 4), 1)])
    I0, J0 = distinguished_splitting(5)
    assert find_move_sites(t, I0, J0) == []


def test_fresh_vertex_site_only_at_last_position():
    t = Triangulation(2, [((0, 1, 2), 1)])
    assert find_move_sites(t, (0,), (1, 2, 3)) == []
    sites = find_move_sites(t, (3,), (0, 1, 2))
    assert len(sites) == 1
    assert sites[0].phi == (0, 1, 2, 3)


# -- applying moves -----------------------------------------------------------


def test_apply_33_to_defining_ball():
    I0, J0 = distinguished_splitting(5)
    before, after = pachner_sides(5, I0, J0)
    site = find_move_sites(before, I0, J0)[0]
    moved = apply_move(before, site)
    assert sorted(moved.simplexes) == sorted(after.simplexes)
    assert induced_boundary(moved) == induced_boundary(before)


def test_apply_is_stale_after_change():
    I0, J0 = distinguished_splitting(5)
    before, _ = pachner_sides(5, I0, J0)
    site = find_move_sites(before, I0, J0)[0]
    moved = apply_move(before, site)
    with pytest.raises(ValueError, match="stale"):
        apply_move(moved, site)


def test_move_involution_on_sphere():
    I0, J0 = distinguished_splitting(5)
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
            assert set(t.face_classes().values()) == set(fresh.face_classes().values())
            t = apply_move(t, rng.choice(found))


def exhaustive_move_sites(t, I, J):
    """find_move_sites for |I| >= 2 as it was written first: every pair of
    an entry e0 and a vertex label v is tried as phi = sorted(e0 + v)."""
    n = t.dim + 1
    rep, class_entries, by_tuple, _ = t._site_index()
    i0 = I[0]
    sites = []

    def glued(e1, f1, e2, f2):
        return t.gluing.get((e1, f1)) == (e2, f2)

    for e0, (verts0, sign0) in enumerate(t.simplexes):
        for v in t.labels():
            if v in verts0:
                continue
            phi = tuple(sorted(verts0 + (v,)))
            if phi.index(v) != i0:
                continue
            eps = sign0 * (-1) ** i0

            def extend(assigned, remaining):
                if not remaining:
                    entries = tuple(assigned[i] for i in I)
                    if _site_interior_ok(t, I, J, phi, entries, rep, class_entries):
                        sites.append(MoveSite(n, I, J, phi, entries, eps))
                    return
                i = remaining[0]
                want = phi[:i] + phi[i + 1 :]
                for cand in by_tuple.get(want, ()):
                    if cand in assigned.values():
                        continue
                    if t.simplexes[cand][1] != eps * (-1) ** i:
                        continue
                    if all(
                        glued(cand, _pos(ip, i), assigned[ip], _pos(i, ip))
                        for ip in assigned
                    ):
                        assigned[i] = cand
                        extend(assigned, remaining[1:])
                        del assigned[i]

            extend({i0: e0}, I[1:])

    sites.sort(key=lambda s: (s.phi, s.entries))
    return sites


def test_site_search_matches_the_exhaustive_search():
    # seeded walks over every move type, plus the balls with boundary
    # that each move starts from and produces
    rng = random.Random(3)
    complexes = []
    for dim in (2, 3, 4):
        for I, J in all_splittings(dim + 1):
            complexes.extend(pachner_sides(dim + 1, I, J))
        for _ in range(3):
            t = simplex_boundary(dim + 1)
            for _ in range(6):
                complexes.append(t)
                found = [s for I, J in all_splittings(dim + 1) for s in find_move_sites(t, I, J)]
                t = apply_move(t, rng.choice(found))
    searched = matched = 0
    for t in complexes:
        for I, J in all_splittings(t.dim + 1):
            if len(I) >= 2:
                sites = find_move_sites(t, I, J)
                assert sites == exhaustive_move_sites(t, I, J)
                searched += 1
                matched += bool(sites)
    assert matched > searched // 10


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
    monkeypatch.setattr(simplicial, "_UnionFind", lambda: pytest.fail("made a node"))
    single = Triangulation(18, [(tuple(range(19)), 1)])
    with pytest.raises(ValueError, match="need 524287 nodes, over the limit of 262144"):
        single.face_classes()
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
    repo = Path(__file__).resolve().parent.parent
    paths = sorted((repo / "data").glob("*.tri")) + sorted((repo / "perfbench" / "data").glob("*.tri"))
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
    with pytest.raises(AttributeError):
        next(iter(t.face_classes().values())).add((0, (0,)))
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
    I0, J0 = distinguished_splitting(5)
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
