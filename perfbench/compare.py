"""Run-set statistics for the benchmark: spread, pair wins and the
regression bound (perfbench/README.md, "Comparing two commits").

A run set is a list of results, one per (workload, seed) run, each a dict
{"workload": W, "seed": N, "metrics": {name: value}}. Bounds and
directions come from BENCHMARK.json's end_to_end entries.
"""

import statistics


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with statistics.quantiles(values, n=4) as the quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when it is better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def pair_wins(base, new, better):
    """Pairs (same seed) the new side wins, loses and ties."""
    wins = losses = ties = 0
    for b, n in zip(base, new):
        if n == b:
            ties += 1
        elif (n < b) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(base, new, better, bound):
    """Classifies one metric of one workload.

    regression: the new median is worse than the base median by more than
      the bound.
    gain: the new side wins at least nine tenths of the pairs and the
      medians differ by more than the base runs' own spread.
    unresolved: the base spread exceeds the bound, so an unchanged reading
      cannot be told from a regression, unless every new run beats every
      base run.
    unchanged: otherwise.
    """
    change = worse_by(statistics.median(base), statistics.median(new), better)
    if change > bound:
        return "regression"
    wins, _, _ = pair_wins(base, new, better)
    pairs = min(len(base), len(new))
    if pairs and wins >= 0.9 * pairs and -change > iqr_share(base):
        return "gain"
    if iqr_share(base) > bound:
        best_base = min(base) if better == "lower" else max(base)
        worst_new = max(new) if better == "lower" else min(new)
        beats = worst_new < best_base if better == "lower" \
            else worst_new > best_base
        if not beats:
            return "unresolved"
    return "unchanged"


def by_workload(results):
    """{workload: {metric: [values in seed order]}}."""
    table = {}
    for r in sorted(results, key=lambda r: (r["workload"], r["seed"])):
        metrics = table.setdefault(r["workload"], {})
        for name, value in r["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return table


def compare(base_results, new_results, end_to_end):
    """Rows (workload, metric, base median, new median, worse_by, wins,
    losses, verdict) for every end-to-end metric both sets measured.
    Raises ValueError when either set holds a run whose own check failed
    (correct=false): such a run's figures are not compared."""
    bad = ["%s seed %s" % (r["workload"], r["seed"])
           for r in base_results + new_results if not r.get("correct", True)]
    if bad:
        raise ValueError("runs with correct=false: " + ", ".join(bad))
    base, new = by_workload(base_results), by_workload(new_results)
    rows = []
    for workload in sorted(base):
        for spec in end_to_end:
            name = spec["name"]
            b = base[workload].get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                continue
            wins, losses, _ = pair_wins(b, n, spec["better"])
            mb, mn = statistics.median(b), statistics.median(n)
            rows.append((workload, name, mb, mn,
                         worse_by(mb, mn, spec["better"]),
                         wins, losses,
                         verdict(b, n, spec["better"], spec["bound"])))
    return rows
