"""Problem definitions for the four min-max routing variants.

Instances hold customer/depot coordinates; solutions are M ordered index
routes over customers plus per-route start/end depots. The objective is the
length of the longest route. Route lengths accumulate in float64.
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

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
        check_instance_shape(self.kind, self.N, self.D, self.M)
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

    def delivery_of(self, j):
        return j + self.n_pairs

    def is_pickup(self, j):
        return j < self.n_pairs


@dataclass
class RouteSet:
    """Ordered routes of customer indexes with per-route depot endpoints."""

    routes: list
    start_depots: list = field(default_factory=list)
    end_depots: list = field(default_factory=list)

    def __post_init__(self):
        if not self.start_depots:
            self.start_depots = [0] * len(self.routes)
        if not self.end_depots:
            self.end_depots = list(self.start_depots)


def check_instance_shape(kind, N, D, M):
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if kind in SINGLE_DEPOT_KINDS and D != 1:
        raise ValueError(f"{kind} requires exactly one depot, got D={D}")
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


def route_length(route, instance, start_depot=0, end_depot=0):
    """Euclidean length including depot edges.

    Closed tour (return to start depot) for MTSP/MPDP/MDVRP; open chain for
    FMDVRP: start-depot edge + internal edges + end-depot edge, no edge
    between the two depots. An empty route has length 0.
    """
    if not route:
        return 0.0
    pts = [instance.depot_coords[start_depot]]
    for j in route:
        if not 0 <= j < instance.N:
            raise IndexError(f"customer index {j} out of range for N={instance.N}")
        pts.append(instance.coords[j])
    if instance.kind == "FMDVRP":
        pts.append(instance.depot_coords[end_depot])
    else:
        pts.append(instance.depot_coords[start_depot])
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        total += math.hypot(a[0] - b[0], a[1] - b[1])
    return total


def minmax_objective(solution, instance):
    return max(
        route_length(r, instance, s, e)
        for r, s, e in zip(solution.routes, solution.start_depots, solution.end_depots)
    )


def validate(solution, instance):
    """Return None if feasible, else a one-line violation description."""
    routes = solution.routes
    if len(routes) != instance.M:
        return f"route count {len(routes)} != M={instance.M}"
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
        for i, r in enumerate(routes):
            pos = {j: t for t, j in enumerate(r)}
            for j in r:
                if instance.is_pickup(j):
                    d = instance.delivery_of(j)
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
    return "[" + ",".join(
        "[%s,%s]" % (format(x, ".17g"), format(y, ".17g")) for x, y in arr
    ) + "]"


def instance_to_line(instance):
    return ('{"kind":"%s","M":%d,"uid":%d,"depots":%s,"customers":%s}'
            % (instance.kind, instance.M, instance.uid,
               _fmt_pairs(instance.depot_coords), _fmt_pairs(instance.coords)))


def _json_int(value, field, low=None):
    """value if it is a JSON integer (not a bool) and, given low, >= low;
    any other value raises a ValueError that names field."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        at_least = "" if low is None else f" >= {low}"
        raise ValueError(f"{field} must be an integer{at_least}, got {json.dumps(value)}")
    return value


def instance_from_record(rec):
    return Instance(kind=rec["kind"], coords=np.array(rec["customers"]),
                    depot_coords=np.array(rec["depots"]), M=_json_int(rec["M"], "M"),
                    uid=_json_int(rec.get("uid", 0), "uid", low=0))


def atomic_write_text(path, text):
    """Write via a sibling temp file + rename so readers never see a torn file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_json_file(path, what, parse):
    """parse(the JSON object in a file). A file that is not JSON or not an
    object, or whose object parse rejects, fails as one ValueError line
    that names the file."""
    try:
        with open(path) as f:
            rec = json.load(f)
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
    with open(path) as f:
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
    return (sol, float(rec["objective"]), ints(rec["permutation"], "permutation"),
            _json_int(rec["aug_index"], "aug_index"))
