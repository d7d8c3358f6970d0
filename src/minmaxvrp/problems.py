"""Problem definitions for the four min-max routing variants.

Instances hold customer/depot coordinates; solutions are M ordered index
routes over customers plus per-route start/end depots. The objective is the
length of the longest route. Route lengths accumulate in float64.
"""

import codecs
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

KINDS = ("MTSP", "MPDP", "MDVRP", "FMDVRP")
SINGLE_DEPOT_KINDS = ("MTSP", "MPDP")
MULTI_DEPOT_KINDS = ("MDVRP", "FMDVRP")

# The 8 symmetries of the unit square as (x, y) -> (x', y') maps.
AUG8_MAPS = (
    lambda x, y: (x, y),
    lambda x, y: (y, x),
    lambda x, y: (1.0 - x, y),
    lambda x, y: (x, 1.0 - y),
    lambda x, y: (1.0 - x, 1.0 - y),
    lambda x, y: (y, 1.0 - x),
    lambda x, y: (1.0 - y, x),
    lambda x, y: (1.0 - y, 1.0 - x),
)


@dataclass
class Instance:
    """One problem instance.

    kind: one of KINDS. coords: N x 2 customer coordinates. depot_coords:
    D x 2. M: number of routes/agents. For MPDP, customer i < N/2 is a pickup
    paired with delivery i + N/2. uid seeds per-rollout RNG streams.
    """

    kind: str
    coords: np.ndarray
    depot_coords: np.ndarray
    M: int
    uid: int = 0

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 2)
        self.depot_coords = np.asarray(self.depot_coords, dtype=np.float64).reshape(-1, 2)
        if isinstance(self.M, bool) or not isinstance(self.M, (int, np.integer)):
            raise ValueError(f"M must be an integer, got {self.M!r}")
        check_instance_shape(self.kind, self.N, self.D, self.M)
        if isinstance(self.uid, bool) or not isinstance(self.uid, (int, np.integer)) or self.uid < 0:
            raise ValueError(f"uid must be an integer >= 0, got {self.uid!r}")
        if not (np.isfinite(self.coords).all()
                and np.isfinite(self.depot_coords).all()):
            raise ValueError("coordinates must be finite, got NaN or inf")

    @property
    def N(self):
        return self.coords.shape[0]

    @property
    def D(self):
        return self.depot_coords.shape[0]

    @property
    def n_pairs(self):
        return self.N // 2


@dataclass
class RouteSet:
    """Ordered routes of customer indexes with per-route depot endpoints."""

    routes: list
    start_depots: list = None
    end_depots: list = None

    def __post_init__(self):
        # fill only a list left out: a given [] stays for validate to reject
        if self.start_depots is None:
            self.start_depots = [0] * len(self.routes)
        if self.end_depots is None:
            self.end_depots = list(self.start_depots)


def check_instance_shape(kind, N, D, M):
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if kind in SINGLE_DEPOT_KINDS and D != 1:
        raise ValueError(f"{kind} is single-depot, so it needs D=1, got D={D}")
    if kind in MULTI_DEPOT_KINDS and D < 1:
        raise ValueError(f"{kind} requires at least one depot, got D={D}")
    if kind == "MPDP" and N % 2 != 0:
        raise ValueError(f"MPDP needs an even customer count, got N={N}")
    if M < 1:
        raise ValueError(f"need at least 1 agent, got M={M}")
    max_routes = N // 2 if kind == "MPDP" else N
    if M > max_routes:
        raise ValueError(
            f"{kind} with N={N} supports at most {max_routes} non-empty routes, got M={M}")


def gen_uniform(kind, N, D, M, seed):
    """I.i.d. uniform coordinates on the unit square; deterministic per seed."""
    check_instance_shape(kind, N, D, M)
    if M < 2:
        raise ValueError(f"generated instances need at least 2 agents, got M={M}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(N, 2))
    depot_coords = rng.uniform(0.0, 1.0, size=(D, 2))
    return Instance(kind=kind, coords=coords, depot_coords=depot_coords, M=M,
                    uid=int(seed))


def draw_instance(kind, N, m_range, d_range, rng):
    """gen_uniform with M, then D, drawn from inclusive (low, high) ranges,
    then its seed, all from rng. A one-value range draws no random bits."""
    M = int(rng.integers(m_range[0], m_range[1] + 1))
    D = int(rng.integers(d_range[0], d_range[1] + 1))
    return gen_uniform(kind, N, D, M, seed=int(rng.integers(2 ** 63)))


def route_length(route, instance, start_depot=0, end_depot=0):
    """Euclidean length including depot edges.

    Closed tour (return to start depot) for MTSP/MPDP/MDVRP; open chain for
    FMDVRP: start-depot edge + internal edges + end-depot edge, no edge
    between the two depots. An empty route has length 0.
    """
    return _route_length(route, instance.kind, instance.coords.tolist(),
                         instance.depot_coords.tolist(), start_depot, end_depot)


def _route_length(route, kind, xy, depot_xy, start_depot, end_depot):
    """route_length on coordinates as lists of Python floats: the same
    float64 differences and math.hypot, summed in the same order, as on the
    arrays, without a numpy scalar per element."""
    if not route:
        return 0.0
    px, py = depot_xy[start_depot]
    total, n = 0.0, len(xy)
    for j in route:
        if not 0 <= j < n:
            raise IndexError(f"customer index {j} out of range for N={n}")
        x, y = xy[j]
        total += math.hypot(px - x, py - y)
        px, py = x, y
    ex, ey = depot_xy[end_depot if kind == "FMDVRP" else start_depot]
    return total + math.hypot(px - ex, py - ey)


def minmax_objective(solution, instance):
    xy, depot_xy = instance.coords.tolist(), instance.depot_coords.tolist()
    return max(
        _route_length(r, instance.kind, xy, depot_xy, s, e)
        for r, s, e in zip(solution.routes, solution.start_depots, solution.end_depots)
    )


def validate(solution, instance):
    """Return None if feasible, else a one-line violation description."""
    routes = solution.routes
    if len(routes) != instance.M:
        return f"route count {len(routes)} != M={instance.M}"
    for name in ("start_depots", "end_depots"):
        n = len(getattr(solution, name))
        if n != len(routes):
            return f"{n} {name} for {len(routes)} routes"
    for i, r in enumerate(routes):
        if len(r) == 0:
            return f"route {i} is empty"
    seen = {}
    for i, r in enumerate(routes):
        for j in r:
            if not 0 <= j < instance.N:
                return f"route {i} references customer {j} outside 0..{instance.N - 1}"
            if j in seen:
                return f"customer {j} appears in routes {seen[j]} and {i}"
            seen[j] = i
    if len(seen) != instance.N:
        missing = sorted(set(range(instance.N)) - set(seen))[0]
        return f"customer {missing} unserved"
    for i, (s, e) in enumerate(zip(solution.start_depots, solution.end_depots)):
        if not 0 <= s < instance.D or not 0 <= e < instance.D:
            return f"route {i} has depot index outside 0..{instance.D - 1}"
        if instance.kind != "FMDVRP" and s != e:
            return f"route {i} ends at depot {e} but started at {s}"
    if instance.kind == "MPDP":
        n_pairs = instance.n_pairs
        for i, r in enumerate(routes):
            pos = {j: t for t, j in enumerate(r)}
            for j in r:
                if j < n_pairs:
                    d = j + n_pairs
                    if d not in pos:
                        return f"pickup {j} in route {i} but delivery {d} elsewhere"
                    if pos[d] < pos[j]:
                        return f"delivery {d} precedes pickup {j} in route {i}"
    return None


def augment8(instance):
    """The 8 dihedral symmetries of the unit square as 8 instances, one per
    AUG8_MAPS entry; element 0 is the original."""
    return [Instance(kind=instance.kind, coords=np.column_stack(amap(*instance.coords.T)),
                     depot_coords=np.column_stack(amap(*instance.depot_coords.T)),
                     M=instance.M, uid=instance.uid) for amap in AUG8_MAPS]


# ---------------------------------------------------------------------------
# instance files: one JSON object per line, coordinates at 17 significant
# digits so the decimal encoding round-trips IEEE doubles bitwise
# ---------------------------------------------------------------------------

def _fmt_pairs(arr):
    """An n x 2 float array as JSON pairs in one % call; %.17g is the same
    float formatting as format(x, ".17g"), except that -0.0, which %.17g
    writes as the JSON integer -0 (read back as 0), is written -0.0."""
    text = "[%s]" % ",".join(("[%.17g,%.17g]",) * len(arr)) % tuple(arr.ravel().tolist())
    return text.replace("[-0,", "[-0.0,").replace(",-0]", ",-0.0]")


def instance_to_line(instance):
    return ('{"kind":"%s","M":%d,"uid":%d,"depots":%s,"customers":%s}'
            % (instance.kind, instance.M, instance.uid,
               _fmt_pairs(instance.depot_coords), _fmt_pairs(instance.coords)))


def _json_int(value, field):
    """value if it is a JSON integer (not a bool); any other value raises a
    ValueError that names field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _json_number(value, field):
    """value as a float if it is a finite JSON number (not a bool) a double
    can hold; any other value, NaN and Infinity too, raises a ValueError that
    names field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{field} is too large for a double: an integer of "
                         f"{len(str(abs(value)))} digits") from None
    if not math.isfinite(number):
        raise ValueError(f"{field} must be a finite number, got {json.dumps(value)}")
    return number


def _json_points(value, field):
    """The float array of a JSON list of [x, y] number pairs; any other value
    raises a ValueError that names field and the entry."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of [x, y] pairs, got {json.dumps(value)}")
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{field}[{i}] must be an [x, y] pair, got {json.dumps(pair)}")
        # a float needs no check; anything else (an int past the largest
        # double too) goes through the one that names the entry
        if type(pair[0]) is not float:
            _json_number(pair[0], f"{field}[{i}][0]")
        if type(pair[1]) is not float:
            _json_number(pair[1], f"{field}[{i}][1]")
    return np.array(value, dtype=np.float64)


def instance_from_record(rec):
    return Instance(kind=rec["kind"], coords=_json_points(rec["customers"], "customers"),
                    depot_coords=_json_points(rec["depots"], "depots"),
                    M=_json_int(rec["M"], "M"), uid=_json_int(rec.get("uid", 0), "uid"))


def atomic_write_text(path, text):
    """Write UTF-8 via a sibling temp file + rename so readers never see a
    torn file. The file gets the mode open() gives a new file."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_JSON = json.JSONDecoder()
_KEY = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*'  # what opens a member: "{" or ","
                  r'("(?:[^"\\]|\\.)*")[ \t\n\r]*:[ \t\n\r]*')  # then its key and ":"
_CLOSE = re.compile(r"[ \t\n\r]*[,}]")  # what ends a member


def _json_members(f, members):
    """The JSON object in the binary file f as a dict. Given members, a set of
    keys, f is read in chunks (1 MiB, then twice the last) and parsed one
    member at a time until every key of members is read. A value counts once
    a "," or "}" or the end of the file follows it, so no number cut by a
    chunk is read short; a member a chunk cuts is parsed again after the
    next. Everything else (members None, text that is not UTF-8 or not an
    object, a fault, a member missing) is json.loads of the whole file."""
    if members is not None:
        decode = codecs.getincrementaldecoder("utf-8")().decode
        text, rec, sep, i, size, end = "", {}, "{", 0, 1 << 20, False
        while not end:
            chunk = f.read(size)
            size, end = 2 * size, not chunk
            try:
                text += decode(chunk, end)
                while (m := _KEY.match(text, i)) and m[1] == sep:
                    value, j = _JSON.raw_decode(text, m.end())
                    if not (_CLOSE.match(text, j) or end and j == len(text)):
                        break
                    rec[json.loads(m[2])], i, sep = value, j, ","
                    if rec.keys() >= members:
                        return rec
            except json.JSONDecodeError:
                pass  # a value the chunk cuts: read on; past the end, fall back
            except UnicodeDecodeError:
                break
        f.seek(0)
    return json.loads(f.read().decode("utf-8"))


def read_json_file(path, what, parse, members=None):
    """parse(the JSON object in a file). Given members, a set of keys, the
    file is read in chunks only until all of them are parsed (_json_members),
    so what follows the chunk that ends them is never read. A file that is
    not JSON or not an object, or whose object parse rejects, fails as one
    ValueError line that names the file."""
    try:
        with open(path, "rb") as f:
            rec = _json_members(f, members)
        if not isinstance(rec, dict):
            raise ValueError(f"the file holds a {type(rec).__name__}, not a JSON object")
        return parse(rec)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not JSON: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{what} {path} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def write_instances(path, instances):
    atomic_write_text(path, "".join(instance_to_line(ins) + "\n"
                                    for ins in instances))


def read_jsonl(path, parse):
    """parse(record) of the JSON object on every non-blank line of a file.
    Any fault of a line fails as one ValueError line `<path>:<line>: ...`."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValueError(f"the line holds a {type(rec).__name__}, "
                                         f"not a JSON object")
                    out.append(parse(rec))
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: no {exc} entry") from None
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def read_instances(path):
    return read_jsonl(path, instance_from_record)


def solution_to_record(solution, objective, permutation, aug_index):
    return {
        "objective": objective,
        "routes": [list(map(int, r)) for r in solution.routes],
        "start_depots": list(map(int, solution.start_depots)),
        "end_depots": list(map(int, solution.end_depots)),
        "permutation": list(map(int, permutation)),
        "aug_index": int(aug_index),
    }


def solution_from_record(rec):
    def ints(values, field):
        return [_json_int(v, f"{field}[{i}]") for i, v in enumerate(values)]

    sol = RouteSet(routes=[ints(r, f"routes[{i}]") for i, r in enumerate(rec["routes"])],
                   start_depots=ints(rec["start_depots"], "start_depots"),
                   end_depots=ints(rec["end_depots"], "end_depots"))
    return (sol, _json_number(rec["objective"], "objective"),
            ints(rec["permutation"], "permutation"),
            _json_int(rec["aug_index"], "aug_index"))
