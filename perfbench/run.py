"""towerdiff benchmark: seeded workloads through towerdiff.cli.main, checked against references.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0

One closed-loop client in one process and one thread: each item (one input
through all of its workload's commands) starts when the previous one ends.
Items come in rounds of the same towers up to isomorphism (gen.ROUND); whole
rounds run until --seconds of timed work have passed and at least MIN_ROUNDS
rounds are done. Checking, digesting and generating items beyond the set-up
pool happen outside the timed region.

Times are machine-normalized. The speed a shared host gives this process
drifts by a third over minutes and swings as much within seconds, and no
length of run averages that out. So a fixed pure-Python calibration
computation (probe_s) runs just before and just after every item, and each
item's wall time is scaled by REF_PROBE_S over the mean of the two
calibration times around it: the figures read as the milliseconds the item
would take on a machine where the calibration takes REF_PROBE_S. The
calibration does not touch towerdiff, so a change to the program moves the
normalized times in the same proportion as the raw ones.
The end-to-end figures then replace each item's normalized time by the median
over the run's rounds of its position's normalized times. Each set-up repeat
is normalized the same way. The report line gives the raw figures beside them.

The last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics from an
outside-in traced run with --trace 1. The line before it is a JSON report
with failed_ratio, the tail percentile and its sample count, exit-code
counts per command, the first failures and the output digest.
"""

from __future__ import annotations

import argparse
import difflib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

# Rounds every run completes; they are generated during set-up, and the digest
# and the per-layer numbers cover exactly these. Later items are generated
# between timed items.
MIN_ROUNDS = 5
SETUP_REPEATS = 9
# The calibration computation's time that normalized figures refer to: a round number
# near its time on the 2-vCPU VM (CPython 3.11) the bounds were set on.
REF_PROBE_S = 0.004
HARD_STOP_S = 140.0  # keeps a run well inside the 180 s limit even if the program slows down
# BENCHMARK.json names the metrics a run prints, with their units.
SPEC = ROOT / "BENCHMARK.json"

# ------------------------------------------------------------------ set-up

def set_up(workload, seed):
    """Fresh import of towerdiff and generation of the item pool.

    Returns cli, fixtures, items and the seconds the import took.
    """
    t0 = perf_counter()
    src = ROOT / "src"
    if not (src / "towerdiff").is_dir():
        sys.exit(f"no towerdiff sources under {src}")
    for name in [m for m in sys.modules if m == "towerdiff" or m.startswith("towerdiff.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("towerdiff.cli")
    finally:
        sys.path.remove(str(src))
    import_s = perf_counter() - t0
    fixtures = gen.fixture_items()
    make = gen.WORKLOADS[workload]
    items = [make(seed, k, fixtures) for k in range(MIN_ROUNDS * gen.ROUND[workload])]
    return cli, fixtures, items, import_s


# ------------------------------------------------------------------ running

# the calibration's fixed inputs
_PROBE_A, _PROBE_B = ("".join(random.Random(i).choices("abcdefgh", k=300)) for i in (1, 2))


def probe_s():
    """Wall seconds of a fixed pure-Python computation: the speed the machine gives us now.

    difflib's SequenceMatcher is pure-Python standard-library code that, like
    towerdiff, builds dicts and lists and makes many small calls. Over slow
    and fast periods of a shared host, log item times moved 0.8 to 1.1 times
    as much as its log time. A tight integer loop, tried first, understated
    the slowdowns: items moved 1.2 to 1.5 times as much as it did.
    """
    t0 = perf_counter()
    for _ in range(40):
        difflib.SequenceMatcher(None, _PROBE_A, _PROBE_B).ratio()
    return perf_counter() - t0


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values.

    A mean of the order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    density of their ranks. Unlike the sample quantile it moves smoothly when
    neighbouring values trade places, which the positions' times do from run
    to run where they leave a gap at the quantile. Each weight is a Simpson
    integral of the density over one 1/n of [0, 1].
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - log_beta)

    steps = 64  # Simpson intervals per weight
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        lo = i / n
        w = density(lo) + density(lo + steps * h)
        w += sum((4 if j % 2 else 2) * density(lo + j * h) for j in range(1, steps))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_command(cli, argv, text):
    """(exit code, stdout, traceback or None, seconds) of one in-process CLI call."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    exc = None
    try:
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code, exc = None, traceback.format_exc()
        dt = perf_counter() - t0
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return code, out, exc, dt


def run_item(cli, item):
    results, seconds, prev = [], 0.0, None
    for argv in item.commands:
        text = item.text
        if argv[0] == "{normalized}":
            argv = argv[1:]
            try:
                step = json.loads(prev)["step"]
            except (TypeError, ValueError, KeyError):
                results.append((argv, None, "", "no normalized step to read\n"))
                continue
            text = json.dumps({"field": item.doc["field"], "steps": [step]})
        code, out, exc, dt = run_command(cli, argv, text)
        seconds += dt
        prev = out
        results.append((argv, code, out, exc))
    return results, seconds


def reference_for(item, seed, k, fixture_refs):
    if item.plan is None:
        if item.label not in fixture_refs:
            fixture_refs[item.label] = check.Reference(
                item.gf, check.plan_from_descriptor(item.gf, item.doc), item.label)
        return fixture_refs[item.label]
    return check.Reference(item.gf, item.plan, f"{seed}:{k}")


# ------------------------------------------------------------------ main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl, seed = args.workload, args.seed
    spec = json.loads(SPEC.read_text())

    # the first set-up feeds the run; the other repeats come after the loop,
    # so that their garbage does not raise peak_rss_mb
    before = probe_s()
    t0 = perf_counter()
    cli, fixtures, items, import_s = set_up(wl, seed)
    setup_raw, import_times = [perf_counter() - t0], [import_s]
    setup_times = [setup_raw[0] * 2 * REF_PROBE_S / (before + probe_s())]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    make = gen.WORKLOADS[wl]
    per_round = gen.ROUND[wl]
    min_items = MIN_ROUNDS * per_round
    digest = hashlib.sha256()
    exit_counts: dict[str, dict[str, int]] = {}
    fixture_refs: dict = {}
    raw_times, times, failures = [], [], []
    failed = known = 0
    timed = 0.0
    gc.collect()
    rss_at_loop_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_start = perf_counter()
    probes = []
    k = 0
    # a round, once started, runs to its end unless the hard stop comes first
    while ((timed < args.seconds or k < min_items or k % per_round)
           and perf_counter() - loop_start < HARD_STOP_S):
        if k < len(items):
            item = items[k]
        else:
            item = make(seed, k, fixtures)
        if tracer:
            tracer.current_item = k
        before = probe_s()
        results, seconds = run_item(cli, item)
        probes += [before, probe_s()]
        timed += seconds
        raw_times.append(seconds)
        times.append(seconds * 2 * REF_PROBE_S / (before + probes[-1]))

        ref = reference_for(item, seed, k, fixture_refs)
        problems = check.check_item(ref, item, results)
        for argv, code, out, exc in results:
            counts = exit_counts.setdefault(argv[0], {})
            tag = "raised" if exc is not None else str(code)
            counts[tag] = counts.get(tag, 0) + 1
            if k < min_items:
                exc_name = exc.strip().splitlines()[-1].split(":")[0] if exc else ""
                digest.update(f"{code}|{exc_name}|{out}\n".encode())
        if problems:
            failed += 1
            if check.known_defect(ref, problems):
                known += 1
            if len(failures) < 5:
                failures.append({"item": item.label, "problems": problems[:3]})
        k += 1

    attempted = len(times)
    rounds = attempted // per_round
    if rounds:
        # each position's time is its median over the whole rounds
        position = [statistics.median(times[r * per_round + j] for r in range(rounds))
                    for j in range(per_round)]
    else:  # the hard stop came within the first round
        position = list(times)
    n = attempted
    # the highest percentile with ten items beyond it in every run, so that it
    # does not move with the number of rounds a run completes
    tail_pct = 100.0 * (min_items - 10) / min_items
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        for _ in range(SETUP_REPEATS - 1):
            before = probe_s()
            t0 = perf_counter()
            import_times.append(set_up(wl, seed)[3])
            setup_raw.append(perf_counter() - t0)
            setup_times.append(setup_raw[-1] * 2 * REF_PROBE_S / (before + probe_s()))
    report = {
        "workload": wl,
        "seed": seed,
        "trace": args.trace,
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "item_tail": {"percentile": round(tail_pct, 2), "samples": n},
        "rounds": {"complete": rounds, "items_per_round": per_round},
        "position_ms": [round(t * 1000.0, 3) for t in position],
        "raw": {"items_per_s": attempted / timed,
                "item_p50_ms": statistics.median(raw_times) * 1000.0,
                "setup_s": statistics.median(setup_raw)},
        "probe_ms": {"ref": REF_PROBE_S * 1000.0, "median": statistics.median(probes) * 1000.0,
                     "min": min(probes) * 1000.0, "max": max(probes) * 1000.0},
        "peak_rss_at_loop_start_mb": rss_at_loop_mb,
        "peak_rss_gain_in_loop_mb": peak_rss_mb - rss_at_loop_mb,
        "known_defect_items": known,
        "unexpected_failed_items": failed - known,
        "exit_codes": exit_counts,
        "first_failures": failures,
        "digest": {"sha256": digest.hexdigest(), "items": min(attempted, min_items)},
        "setup_runs_s": setup_times,
        "setup_raw_runs_s": setup_raw,
        "setup_import_s": statistics.median(import_times),
    }
    if tracer is None:
        values = {
            "items_per_s": len(position) / sum(position),
            "item_p50_ms": hd_quantile(position, 0.5) * 1000.0,
            "item_tail_ms": hd_quantile(position, tail_pct / 100.0) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        listed = spec["end_to_end"]
    else:
        stats = tracer.stats(min_items)
        values = {"trace.items_per_s": len(position) / sum(position)}
        listed = spec["per_layer"]
        for m in listed:
            if m["name"] in values:
                continue
            span, stat = m["name"].rsplit(".", 1)
            calls, self_s, total_s = stats[span]
            if stat == "distinct_ratio":
                values[m["name"]] = tracer.distinct(span, min_items) / calls if calls else 0.0
            else:
                values[m["name"]] = {"calls": calls, "self_s": self_s, "total_s": total_s}[stat]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{wl}.bin")
        report["spans"] = len(tracer.kind)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
