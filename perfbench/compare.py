"""Summarise benchmark records, or compare two sides pair by pair.

Usage::

    python3 perfbench/compare.py DIR [--json FILE]
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--json FILE]

A directory holds records written by ``run.py --out`` (``sweep.py``
writes them).  With one directory, each (workload, metric) row gives the
run count, median, quartiles and spread -- the interquartile distance as
a share of the median -- next to a third of the metric's bound, which a
steady benchmark stays under.  ``--json`` also writes that summary, the
timing settings and each run's simulated-result digest.

With two directories, runs pair up by workload and seed, and each
end-to-end row gets a verdict from the metric's ``BENCHMARK.json`` bound:

* ``improved`` -- at least 10 pairs, the change better in at least 9 of
  every 10 (ties count for neither), and the medians further apart than
  the parent's interquartile distance;
* ``unresolved`` -- either side spreads wider than the bound, unless
  every change run beats every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``no-worse`` -- otherwise.

Per-layer metrics have no bound and are listed without a verdict.
``--json`` also writes the rows.  The exit status is 1 if any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from common import PROBE_REF, PROBE_ROUND_TRIPS, TICK_S, load_spec, quartiles

#: (workload, traced?) -> metric -> seed -> value
Records = Dict[Tuple[str, int], Dict[str, Dict[int, float]]]


def load(directory: Path) -> Tuple[Records, Dict]:
    """The records' metric values, and their digests and settings."""
    records: Records = defaultdict(lambda: defaultdict(dict))
    digests: Dict[str, Dict[str, str]] = defaultdict(dict)
    seconds = set()
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if "result" not in data:
            continue
        key = (data["workload"], data["trace"])
        for name, metric in data["result"]["metrics"].items():
            records[key][name][data["seed"]] = metric["value"]
        digests[data["workload"]][str(data["seed"])] = data["digest"]
        seconds.add(data["seconds"])
    settings = {"seconds": sorted(seconds), "probe_ref": PROBE_REF,
                "probe_round_trips": PROBE_ROUND_TRIPS, "tick_s": TICK_S}
    return records, {"settings": settings, "digests": digests}


def spread(values: List[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarise(records: Records, spec: Dict) -> Dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: Dict = {"end_to_end": {}, "per_layer": {}}
    print(f"{'workload':<16} {'metric':<26} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound/3':>7}")
    for (workload, traced), metrics in sorted(records.items()):
        section = summary["per_layer" if traced else "end_to_end"]
        for name, by_seed in sorted(metrics.items()):
            values = list(by_seed.values())
            q1, mid, q3 = quartiles(values)
            row = {"n": len(values), "median": mid, "q1": q1, "q3": q3,
                   "spread": spread(values)}
            section.setdefault(workload, {})[name] = row
            third = f"{bounds[name] / 3:7.3f}" if name in bounds else ""
            flag = " !" if name in bounds and row["spread"] > bounds[name] / 3 else ""
            print(f"{workload:<16} {name:<26} {len(values):>3} {mid:>12.4g} "
                  f"{q1:>12.4g} {q3:>12.4g} {row['spread']:>7.3f} {third}{flag}")
    return summary


def verdict(parent: Dict[int, float], change: Dict[int, float],
            bound: float, lower_better: bool) -> str:
    seeds = sorted(set(parent) & set(change))
    old = [parent[s] for s in seeds]
    new = [change[s] for s in seeds]
    if not seeds:
        return "unresolved"
    sign = -1.0 if lower_better else 1.0
    wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
    q1, old_mid, q3 = quartiles(old)
    _, new_mid, _ = quartiles(new)
    gain = sign * (new_mid - old_mid)
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > q3 - q1:
        return "improved"
    beats_all = min(sign * b for b in new) > max(sign * a for a in old)
    if max(spread(old), spread(new)) > bound and not beats_all:
        return "unresolved"
    if -gain / abs(old_mid) > bound:
        return "regressed"
    return "no-worse"


def pair(parent: Records, change: Records, spec: Dict) -> List[Dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    print(f"{'workload':<16} {'metric':<26} {'pairs':>5} "
          f"{'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
          "verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        for name in sorted(set(parent[key]) & set(change[key])):
            old, new = parent[key][name], change[key][name]
            sides = [quartiles(list(values.values())) for values in (old, new)]
            metric = metrics[name]
            result = "-"
            if "bound" in metric:
                result = verdict(old, new, metric["bound"],
                                 metric["better"] == "lower")
            rows.append({"workload": workload, "metric": name,
                         "pairs": len(set(old) & set(new)),
                         "parent": sides[0], "change": sides[1],
                         "verdict": result})
            text = [f"{mid:.4g} [{q1:.4g}, {q3:.4g}]" for q1, mid, q3 in sides]
            print(f"{workload:<16} {name:<26} {rows[-1]['pairs']:>5} "
                  f"{text[0]:>36} {text[1]:>36} {result}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", type=Path,
                        metavar="DIR", help="one to summarise, two to compare")
    parser.add_argument("--json", type=Path, help="write the summary here")
    args = parser.parse_args(argv)
    spec = load_spec()
    if len(args.dirs) == 1:
        records, extra = load(args.dirs[0])
        out = {**summarise(records, spec), **extra}
        failed = False
    elif len(args.dirs) == 2:
        rows = pair(load(args.dirs[0])[0], load(args.dirs[1])[0], spec)
        out = {"pairs": rows}
        failed = any(row["verdict"] == "regressed" for row in rows)
    else:
        parser.error("give one directory to summarise or two to compare")
    if args.json is not None:
        args.json.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
