"""Self-test of the output checker: it must accept a correct solution and
reject hand-broken ones. run.py runs it before every benchmark run and
refuses to measure when it fails; it also runs alone:

    python3 bench/selftest.py
"""

import copy
import sys

import checker

MTSP = {"kind": "MTSP", "M": 2, "depots": [[0.5, 0.5]],
        "customers": [[0.1, 0.1], [0.2, 0.8], [0.9, 0.9], [0.8, 0.3]]}
MPDP = {"kind": "MPDP", "M": 2, "depots": [[0.5, 0.5]],
        # pickups 0, 1 pair with deliveries 2, 3
        "customers": [[0.1, 0.2], [0.7, 0.9], [0.3, 0.1], [0.9, 0.6]]}
MDVRP = {"kind": "MDVRP", "M": 2, "depots": [[0.0, 0.0], [1.0, 1.0]],
         "customers": [[0.1, 0.3], [0.2, 0.1], [0.8, 0.9], [0.9, 0.7]]}


def _solution(ins, routes, starts=None):
    starts = starts or [0] * len(routes)
    sol = {"routes": routes, "start_depots": starts, "end_depots": list(starts)}
    sol["objective"] = checker.objective(ins, sol)
    return sol


def _broken(sol, edit):
    bad = copy.deepcopy(sol)
    edit(bad)
    return bad


def cases():
    """(name, instance, solution, should_pass) for every case."""
    mtsp = _solution(MTSP, [[0, 1], [2, 3]])
    mpdp = _solution(MPDP, [[0, 2], [1, 3]])
    mdvrp = _solution(MDVRP, [[1, 0], [3, 2]], starts=[0, 1])

    def drop(s):
        s["routes"][1].pop()

    def duplicate(s):
        s["routes"][1][-1] = s["routes"][0][0]

    def swap_pair(s):
        s["routes"][0].reverse()

    def off_by_1pct(s):
        s["objective"] *= 1.01

    def wrong_depot(s):
        s["end_depots"][0] = 1

    return [
        ("valid MTSP", MTSP, mtsp, True),
        ("valid MPDP", MPDP, mpdp, True),
        ("valid MDVRP", MDVRP, mdvrp, True),
        ("dropped customer", MTSP, _broken(mtsp, drop), False),
        ("duplicate customer", MTSP, _broken(mtsp, duplicate), False),
        ("MPDP delivery before pickup", MPDP, _broken(mpdp, swap_pair), False),
        ("objective off by 1%", MTSP, _broken(mtsp, off_by_1pct), False),
        ("MDVRP route ends at another depot", MDVRP,
         _broken(mdvrp, wrong_depot), False),
    ]


def run():
    """Return a list of failure messages, empty when the checker behaves."""
    failures = []
    for name, ins, sol, should_pass in cases():
        err = checker.check_solution(ins, sol)
        if (err is None) != should_pass:
            failures.append(f"{name}: checker said {err or 'ok'}")
    rows = [({"epoch": 0, "mean_obj": 2.0, "mean_baseline": 2.5}, True),
            ({"epoch": 1, "mean_obj": 2.0, "mean_baseline": 1.9}, False)]
    for row, should_pass in rows:
        if (checker.check_metrics_row(row) is None) != should_pass:
            failures.append(f"metrics row {row}: wrong verdict")
    return failures


if __name__ == "__main__":
    found = run()
    for line in found:
        print("FAIL", line)
    print(f"checker self-test: {len(cases()) + 2 - len(found)} passed, "
          f"{len(found)} failed")
    sys.exit(1 if found else 0)
