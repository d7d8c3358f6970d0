import contextlib
import itertools
import json
import math
import os
import stat
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import random_feasible
from hypothesis import given, settings
from hypothesis import strategies as st

from minmaxvrp import problems as pb


def mtsp(coords, depot=(0.0, 0.0), M=2, kind="MTSP"):
    return pb.Instance(kind=kind, coords=np.array(coords, dtype=float),
                       depot_coords=np.array([depot], dtype=float), M=M)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_gen_table_shape():
    ins = pb.gen_uniform("MTSP", N=49, D=1, M=5, seed=7)
    assert ins.N == 49 and ins.D == 1 and ins.M == 5
    assert (ins.coords >= 0).all() and (ins.coords <= 1).all()


def test_gen_deterministic_per_seed():
    a = pb.gen_uniform("MDVRP", N=12, D=3, M=3, seed=123)
    b = pb.gen_uniform("MDVRP", N=12, D=3, M=3, seed=123)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.depot_coords, b.depot_coords)


def test_gen_rejects_odd_mpdp():
    with pytest.raises(ValueError):
        pb.gen_uniform("MPDP", N=51, D=1, M=3, seed=0)


def test_gen_rejects_bad_combinations():
    with pytest.raises(ValueError):
        pb.gen_uniform("MTSP", N=10, D=2, M=2, seed=0)
    with pytest.raises(ValueError):
        pb.gen_uniform("MTSP", N=3, D=1, M=4, seed=0)
    with pytest.raises(ValueError):
        pb.gen_uniform("MPDP", N=6, D=1, M=4, seed=0)  # only 3 pairs
    with pytest.raises(ValueError):
        pb.gen_uniform("BOGUS", N=6, D=1, M=2, seed=0)


def test_draw_instance_draws_m_then_d_then_the_seed():
    ins = pb.draw_instance("MDVRP", 6, (2, 4), (1, 3), np.random.default_rng(5))
    ref = np.random.default_rng(5)
    M, D = int(ref.integers(2, 5)), int(ref.integers(1, 4))
    assert (ins.M, ins.D, ins.uid) == (M, D, int(ref.integers(2 ** 63)))
    # a one-value range draws no random bits
    one = pb.draw_instance("MTSP", 6, (3, 3), (1, 1), np.random.default_rng(5))
    assert (one.M, one.D, one.uid) == (3, 1, int(np.random.default_rng(5).integers(2 ** 63)))


def instance_and_solution(data):
    """An instance of a drawn kind and shape on the unit square, with a
    random feasible solution."""
    kind = data.draw(st.sampled_from(pb.KINDS), label="kind")
    M = data.draw(st.integers(1, 4), label="M")
    units = data.draw(st.integers(M, 9), label="N")
    N = 2 * units if kind == "MPDP" else units  # MPDP counts pairs
    D = data.draw(st.integers(1, 3), label="D") if kind in pb.MULTI_DEPOT_KINDS else 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ins = pb.Instance(kind=kind, coords=rng.uniform(0.0, 1.0, (N, 2)),
                      depot_coords=rng.uniform(0.0, 1.0, (D, 2)), M=M)
    return ins, random_feasible(ins, rng)


def test_instance_rejects_non_finite_coordinates():
    ok = [[0.1, 0.2], [0.3, 0.4]]
    with pytest.raises(ValueError, match="finite"):
        pb.Instance("MTSP", [[np.nan, 0.5], [0.3, 0.4]], [[0.0, 0.0]], M=2)
    with pytest.raises(ValueError, match="finite"):
        pb.Instance("MDVRP", ok, [[0.0, 0.0], [np.inf, 1.0]], M=2)


@pytest.mark.parametrize("M", [True, 2.0, "2", None],
                         ids=["bool", "float", "string", "none"])
def test_instance_rejects_a_route_count_that_is_no_integer(M):
    # True would build a one-route instance, 2.0 fail deep inside infer, and
    # "2" inside the shape check's comparison
    with pytest.raises(ValueError, match=f"^M must be an integer, got {M!r}$"):
        pb.Instance("MTSP", [[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0]], M=M)
    pb.Instance("MTSP", [[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0]], M=np.int64(2))


@pytest.mark.parametrize("uid", [-3, 1.5, True])
def test_instance_rejects_a_uid_that_seeds_no_rng(uid):
    # infer seeds every instance's rngs with its uid, so a bad one must
    # fail here, not inside np.random.default_rng
    with pytest.raises(ValueError, match=f"uid must be an integer >= 0, got {uid!r}"):
        pb.Instance("MTSP", [[0.1, 0.2], [0.3, 0.4]], [[0.0, 0.0]], M=2, uid=uid)


# ---------------------------------------------------------------------------
# route_length / minmax_objective
# ---------------------------------------------------------------------------

def test_unit_square_perimeter():
    ins = mtsp([(0, 1), (1, 1), (1, 0)], M=2)
    assert pb.route_length([0, 1, 2], ins) == 4.0


def test_empty_route_zero():
    ins = mtsp([(0.5, 0.5), (0.25, 0.25)], M=2)
    assert pb.route_length([], ins) == 0.0


def test_collinear_pair():
    ins = mtsp([(0.3, 0.0), (0.7, 0.0)], M=2)
    assert math.isclose(pb.route_length([0, 1], ins), 1.4, rel_tol=1e-12)


def test_route_length_index_error():
    ins = mtsp([(0.3, 0.0), (0.7, 0.0)], M=2)
    for j in (5, 2, -1, -2):
        with pytest.raises(IndexError, match=f"customer index {j} out of range for N=2"):
            pb.route_length([0, j], ins)
        with pytest.raises(IndexError, match="for N=2"):
            pb.minmax_objective(pb.RouteSet(routes=[[j], [0, 1]]), ins)


def test_fmdvrp_open_chain():
    ins = pb.Instance(kind="FMDVRP", coords=np.array([[0.5, 0.0], [0.5, 1.0]]),
                      depot_coords=np.array([[0.0, 0.0], [1.0, 1.0]]), M=2)
    # depot0 -> (0.5,0) -> (0.5,1) -> depot1: 0.5 + 1 + 0.5, no depot-depot edge
    assert math.isclose(pb.route_length([0, 1], ins, start_depot=0, end_depot=1), 2.0)


def test_minmax_is_max():
    ins = mtsp([(0.0, 1.0), (0.0, 2.0)], M=2)
    sol = pb.RouteSet(routes=[[0], [1]])
    assert math.isclose(pb.minmax_objective(sol, ins), 4.0)  # max(2, 4)


def test_minmax_collinear_two_routes():
    ins = mtsp([(0.3, 0.0), (0.7, 0.0)], M=2)
    # exhaustive: the best split serves each customer in its own route
    best = min(
        pb.minmax_objective(pb.RouteSet(routes=[list(a), list(b)]), ins)
        for a, b in [(((0,), (1,))), (((1,), (0,)))]
    )
    assert math.isclose(best, 1.4, rel_tol=1e-12)


def test_minmax_invariant_under_route_permutation():
    ins = pb.gen_uniform("MTSP", N=9, D=1, M=3, seed=5)
    sol = pb.RouteSet(routes=[[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    ref = pb.minmax_objective(sol, ins)
    for perm in itertools.permutations(range(3)):
        shuffled = pb.RouteSet(routes=[sol.routes[i] for i in perm])
        assert pb.minmax_objective(shuffled, ins) == ref


def test_route_length_reverse_resummation():
    rng = np.random.default_rng(2)
    ins = pb.Instance(kind="MTSP", coords=rng.uniform(0, 1, (12, 2)),
                      depot_coords=rng.uniform(0, 1, (1, 2)), M=2)
    route = list(range(12))
    forward = pb.route_length(route, ins)
    pts = [ins.depot_coords[0]] + [ins.coords[j] for j in route] + [ins.depot_coords[0]]
    edges = [math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(pts[:-1], pts[1:])]
    assert abs(forward - sum(reversed(edges))) < 1e-9


def numpy_scalar_route_length(route, instance, start_depot=0, end_depot=0):
    """The earlier route_length, on the numpy coordinate rows: the reference
    the Python-float version must equal bit for bit."""
    if not route:
        return 0.0
    pts = [instance.depot_coords[start_depot]]
    for j in route:
        pts.append(instance.coords[j])
    if instance.kind == "FMDVRP":
        pts.append(instance.depot_coords[end_depot])
    else:
        pts.append(instance.depot_coords[start_depot])
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += math.hypot(a[0] - b[0], a[1] - b[1])
    return total


@settings(max_examples=150)
@given(kind=st.sampled_from(pb.KINDS), M=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1e-3, 37.5, 1e5]),
       data=st.data())
def test_objective_equals_the_numpy_scalar_formula_bitwise(kind, M, seed, scale, data):
    units = data.draw(st.integers(M, 9), label="N")
    N = 2 * units if kind == "MPDP" else units  # MPDP counts pairs
    D = data.draw(st.integers(1, 3), label="D") if kind in pb.MULTI_DEPOT_KINDS else 1
    rng = np.random.default_rng(seed)
    ins = pb.Instance(kind=kind, coords=rng.uniform(-scale, scale, (N, 2)),
                      depot_coords=rng.uniform(-scale, scale, (D, 2)), M=M)
    sol = random_feasible(ins, rng)
    ends = zip(sol.routes, sol.start_depots, sol.end_depots)
    lengths = [numpy_scalar_route_length(r, ins, s, e) for r, s, e in ends]
    assert pb.minmax_objective(sol, ins).hex() == max(lengths).hex()
    for (r, s, e), ref in zip(zip(sol.routes, sol.start_depots, sol.end_depots), lengths):
        assert pb.route_length(r, ins, s, e).hex() == ref.hex()
    # any walk over the customers, repeats allowed, between any two depots
    walk = data.draw(st.lists(st.integers(0, N - 1), max_size=12), label="walk")
    s, e = data.draw(st.integers(0, D - 1), label="s"), data.draw(st.integers(0, D - 1), label="e")
    assert pb.route_length(walk, ins, s, e).hex() == \
        numpy_scalar_route_length(walk, ins, s, e).hex()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok():
    ins = pb.gen_uniform("MTSP", N=6, D=1, M=2, seed=1)
    assert pb.validate(pb.RouteSet(routes=[[0, 1, 2], [3, 4, 5]]), ins) is None


def test_validate_flags_empty_route():
    ins = pb.gen_uniform("MTSP", N=4, D=1, M=2, seed=1)
    report = pb.validate(pb.RouteSet(routes=[[0, 1, 2, 3], []]), ins)
    assert report is not None and "empty" in report


def test_validate_flags_duplicate_and_missing():
    ins = pb.gen_uniform("MTSP", N=4, D=1, M=2, seed=1)
    assert "appears" in pb.validate(pb.RouteSet(routes=[[0, 1], [1, 2]]), ins)
    assert "unserved" in pb.validate(pb.RouteSet(routes=[[0, 1], [2]]), ins)


def test_validate_flags_a_wrong_route_count():
    ins = pb.gen_uniform("MTSP", N=4, D=1, M=2, seed=1)
    assert pb.validate(pb.RouteSet(routes=[[0, 1, 2, 3]]), ins) == "route count 1 != M=2"


def test_validate_flags_depot_lists_that_do_not_match_the_route_count():
    """Every route needs its start and end depot: a shorter list would leave
    the later routes out of the objective. Lists given empty, as a solutions
    file may state them, are not filled with depot 0."""
    ins = pb.gen_uniform("MTSP", N=6, D=1, M=2, seed=1)
    routes = [[0, 1, 2], [3, 4, 5]]
    for starts, ends, name, n in (([0], [0], "start_depots", 1),
                                  ([0, 0], [0], "end_depots", 1),
                                  ([0, 0], [0, 0, 0], "end_depots", 3),
                                  ([], [], "start_depots", 0),
                                  ([0, 0], [], "end_depots", 0)):
        sol = pb.RouteSet(routes=routes, start_depots=starts, end_depots=ends)
        assert pb.validate(sol, ins) == f"{n} {name} for 2 routes"


def test_validate_flags_a_customer_index_out_of_range():
    ins = pb.gen_uniform("MTSP", N=4, D=1, M=2, seed=1)
    for bad in (4, -1):
        assert pb.validate(pb.RouteSet(routes=[[0, 1], [2, bad]]), ins) == \
            f"route 1 references customer {bad} outside 0..3"


def test_validate_flags_a_depot_index_out_of_range():
    ins = pb.gen_uniform("FMDVRP", N=4, D=2, M=2, seed=1)
    for starts, ends in (([0, 2], [0, 1]), ([0, 1], [-1, 1])):
        sol = pb.RouteSet(routes=[[0, 1], [2, 3]], start_depots=starts, end_depots=ends)
        bad_route = 1 if 2 in starts else 0
        assert pb.validate(sol, ins) == f"route {bad_route} has depot index outside 0..1"


def test_validate_mpdp_precedence_and_pairing():
    ins = pb.Instance(kind="MPDP", coords=np.random.default_rng(0).uniform(0, 1, (6, 2)),
                      depot_coords=np.array([[0.5, 0.5]]), M=2)
    # pairs: (0,3), (1,4), (2,5)
    ok = pb.RouteSet(routes=[[0, 3, 1, 4], [2, 5]])
    assert pb.validate(ok, ins) is None
    bad_order = pb.RouteSet(routes=[[3, 0, 1, 4], [2, 5]])
    assert "precedes" in pb.validate(bad_order, ins)
    split_pair = pb.RouteSet(routes=[[0, 1, 4], [2, 5, 3]])
    assert "elsewhere" in pb.validate(split_pair, ins)


def test_validate_mdvrp_depot_rule():
    ins = pb.Instance(kind="MDVRP", coords=np.random.default_rng(0).uniform(0, 1, (4, 2)),
                      depot_coords=np.random.default_rng(1).uniform(0, 1, (2, 2)), M=2)
    bad = pb.RouteSet(routes=[[0, 1], [2, 3]], start_depots=[0, 1], end_depots=[0, 0])
    assert "started" in pb.validate(bad, ins)
    ok = pb.RouteSet(routes=[[0, 1], [2, 3]], start_depots=[0, 1], end_depots=[0, 1])
    assert pb.validate(ok, ins) is None
    fl = pb.Instance(kind="FMDVRP", coords=ins.coords, depot_coords=ins.depot_coords, M=2)
    cross = pb.RouteSet(routes=[[0, 1], [2, 3]], start_depots=[0, 1], end_depots=[1, 0])
    assert pb.validate(cross, fl) is None


@settings(max_examples=150)
@given(data=st.data())
def test_permuting_routes_with_their_depots_keeps_validity_and_objective(data):
    ins, sol = instance_and_solution(data)
    order = data.draw(st.permutations(range(ins.M)), label="order")
    moved = pb.RouteSet(routes=[sol.routes[i] for i in order],
                        start_depots=[sol.start_depots[i] for i in order],
                        end_depots=[sol.end_depots[i] for i in order])
    assert pb.validate(moved, ins) is None
    assert pb.minmax_objective(moved, ins).hex() == pb.minmax_objective(sol, ins).hex()


# ---------------------------------------------------------------------------
# augment8
# ---------------------------------------------------------------------------

@settings(max_examples=150)
@given(data=st.data())
def test_objective_is_the_same_on_every_symmetry(data):
    ins, sol = instance_and_solution(data)
    obj = pb.minmax_objective(sol, ins)
    for aug in pb.augment8(ins):
        assert pb.validate(sol, aug) is None
        assert abs(pb.minmax_objective(sol, aug) - obj) <= 1e-12 * max(1.0, obj)


def test_augment_identity_element():
    ins = pb.gen_uniform("MTSP", N=8, D=1, M=2, seed=3)
    augs = pb.augment8(ins)
    assert np.array_equal(augs[0].coords, ins.coords)
    assert np.array_equal(augs[0].depot_coords, ins.depot_coords)


def test_augment_objectives_match():
    for seed in range(20):
        ins = pb.gen_uniform("MTSP", N=8, D=1, M=2, seed=seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(8)
        sol = pb.RouteSet(routes=[list(perm[:4]), list(perm[4:])])
        ref = pb.minmax_objective(sol, ins)
        augs = pb.augment8(ins)
        for aug in augs:
            assert abs(pb.minmax_objective(sol, aug) - ref) < 1e-9


def test_augment_involution():
    ins = pb.gen_uniform("MTSP", N=6, D=1, M=2, seed=9)
    augs = pb.augment8(ins)
    twice = pb.augment8(augs[4])  # (1-x, 1-y) applied twice
    assert np.allclose(twice[4].coords, ins.coords)


# ---------------------------------------------------------------------------
# file round-trip
# ---------------------------------------------------------------------------

def test_instance_line_roundtrip_bitwise(tmp_path):
    instances = [pb.gen_uniform("MTSP", N=7, D=1, M=2, seed=s) for s in range(5)]
    instances.append(pb.gen_uniform("FMDVRP", N=6, D=3, M=2, seed=77))
    path = tmp_path / "ins.jsonl"
    pb.write_instances(path, instances)
    back = pb.read_instances(path)
    assert len(back) == len(instances)
    for a, b in zip(instances, back):
        assert a.kind == b.kind and a.M == b.M and a.uid == b.uid
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.depot_coords, b.depot_coords)


def test_instance_line_rewrites_identically(tmp_path):
    ins = pb.gen_uniform("MPDP", N=8, D=1, M=2, seed=13)
    line = pb.instance_to_line(ins)
    assert pb.instance_to_line(pb.instance_from_record(json.loads(line))) == line


def per_number_line(ins):
    """instance_to_line with one format(x, ".17g") call per number, and
    -0.0 written as such."""
    def num(x):
        return "-0.0" if x == 0 and math.copysign(1.0, x) < 0 else format(x, ".17g")

    def pairs(arr):
        return "[" + ",".join("[%s,%s]" % (num(x), num(y)) for x, y in arr) + "]"
    return ('{"kind":"%s","M":%d,"uid":%d,"depots":%s,"customers":%s}'
            % (ins.kind, ins.M, ins.uid, pairs(ins.depot_coords), pairs(ins.coords)))


FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=300)
@given(xy=st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=12),
       depots=st.lists(st.tuples(FINITE | st.sampled_from([-0.0, 5e-324, -5e-324]), FINITE),
                       min_size=1, max_size=3),
       uid=st.integers(0, 2 ** 63))
def test_instance_line_is_the_per_number_format_and_round_trips(xy, depots, uid):
    ins = pb.Instance(kind="FMDVRP", coords=xy, depot_coords=depots, M=2, uid=uid)
    line = pb.instance_to_line(ins)
    assert line == per_number_line(ins)
    back = pb.instance_from_record(json.loads(line))
    assert back.coords.tobytes() == ins.coords.tobytes()
    assert back.depot_coords.tobytes() == ins.depot_coords.tobytes()


def test_negative_zero_coordinates_round_trip(tmp_path):
    ins = pb.Instance(kind="MDVRP", coords=[(-0.0, 0.5), (0.25, -0.0), (-0.0, -0.0)],
                      depot_coords=[(-0.0, 1.0), (0.0, -0.0)], M=2, uid=3)
    path = tmp_path / "zeros.jsonl"
    pb.write_instances(path, [ins])
    assert '"depots":[[-0.0,1],[0,-0.0]]' in path.read_text()
    (back,) = pb.read_instances(path)
    assert back.coords.tobytes() == ins.coords.tobytes()
    assert back.depot_coords.tobytes() == ins.depot_coords.tobytes()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        pb.atomic_write_text(tmp_path / "atomic.txt", "x")
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2


@settings(max_examples=60)
@given(old=st.text(max_size=40), new=st.text(max_size=3000),
       fault=st.sampled_from([None, "text", "rename"]), at=st.integers(0, 3000))
def test_a_failed_atomic_write_leaves_the_old_file_and_no_temp_file(old, new, fault, at):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "out.jsonl")
        pb.atomic_write_text(path, old)
        if fault == "text":  # a lone surrogate has no UTF-8 encoding
            new = new[:at] + "\ud800" + new[at:]
        failing_rename = mock.patch.object(os, "replace", side_effect=OSError("rename"))
        with failing_rename if fault == "rename" else contextlib.nullcontext():
            if fault is None:
                pb.atomic_write_text(path, new)
            else:
                with pytest.raises(UnicodeEncodeError if fault == "text" else OSError):
                    pb.atomic_write_text(path, new)
        with open(path, encoding="utf-8", newline="") as f:
            assert f.read() == (new if fault is None else old)
        assert os.listdir(d) == ["out.jsonl"]


# ---------------------------------------------------------------------------
# JSON files read member by member
# ---------------------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


def outcome(parse, text):
    """What parse gives text, or the JSONDecodeError class if it rejects it."""
    try:
        return parse(text)
    except json.JSONDecodeError:
        return json.JSONDecodeError


@settings(max_examples=300)
@given(obj=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5),
       indent=st.sampled_from([None, 0, 2, "\t"]), pad=st.sampled_from(["", " \n", "\r\t "]),
       data=st.data())
def test_json_members_reads_what_json_loads_reads(obj, indent, pad, data):
    text = pad + json.dumps(obj, indent=indent) + pad
    assert pb._json_members(text, None) == json.loads(text) == obj
    wanted = frozenset(data.draw(st.sets(st.sampled_from(sorted(obj))), label="members")
                       if obj else ())
    got = pb._json_members(text, wanted)
    assert {k: got[k] for k in wanted} == {k: obj[k] for k in wanted}
    # a damaged text: cut short, or with a character spliced in; a whole read
    # accepts and rejects what json.loads does
    cut = data.draw(st.integers(0, len(text)), label="cut")
    splice = data.draw(st.sampled_from(["", "x", ",", "}", "]", ":", '"', "{", " "]),
                       label="splice")
    for bad in (text[:cut], text[:cut] + splice + text[cut:]):
        assert outcome(lambda t: pb._json_members(t, None), bad) == outcome(json.loads, bad)


@pytest.mark.parametrize("text", ["", "  ", "not a checkpoint{", "{", '{"a"', '{"a" 1}',
                                  '{"a": 1 "b": 2}', '{"a": 1,}', '{"a": 1} x', "{1: 2}",
                                  '{"a": [1, 2}'])
def test_read_json_file_names_a_file_that_is_not_json(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^config {path} is not JSON: "):
        pb.read_json_file(path, "config", dict)
    # the damage is in the members asked for, or before them
    with pytest.raises(ValueError, match="is not JSON"):
        pb.read_json_file(path, "config", dict, members=frozenset({"a", "b"}))


def test_read_json_file_stops_after_the_members_asked_for(tmp_path):
    path = tmp_path / "part.json"
    path.write_text('{"a": 1, "b": [2, 3], "c": {"broken": ')
    assert pb.read_json_file(path, "config", dict, members=frozenset({"b", "a"})) == \
        {"a": 1, "b": [2, 3]}
    with pytest.raises(ValueError, match="is not JSON"):
        pb.read_json_file(path, "config", dict)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="holds a list, not a JSON object"):
        pb.read_json_file(path, "config", dict, members=frozenset({"a"}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_solution_record_rejects_a_non_finite_objective(bad):
    """Python's json reads NaN and Infinity; a NaN objective would pass every
    tolerance check, as each comparison with it is False."""
    sol = pb.RouteSet(routes=[[0, 1], [2, 3]])
    rec = json.loads(json.dumps(pb.solution_to_record(sol, bad, (0, 1), 0)))
    with pytest.raises(ValueError, match=rf"^objective must be a finite number, "
                                         rf"got {json.dumps(bad)}$"):
        pb.solution_from_record(rec)
