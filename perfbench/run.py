#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads (README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 40 --trace 0

It builds the simulator and the workload program (perfbench.cpp) in
Release under .bench_build/, runs the workload for --seconds, checks every
CSV row the workload produced, prints a human-readable report and, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --record FILE appends the run's fingerprinted record to a
JSON-lines file; --compare BASE HEAD compares two such files and refuses
when their host fingerprints differ.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = BENCH_DIR.parent / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORK_DIR = BUILD_ROOT / "work"
PROGRAM = BUILD_DIR / "perfbench"

WORKLOADS = ("paper-sweep", "sampled-fig8", "replay-16n")
DEFAULT_SEED = 1
RECORD_SCHEMA = "cgct-perfbench-v1"

# sha256 of each workload's CSV at the default seed. paper-sweep's is the
# frozen digest of the default cgct_sweep matrix; pinned/<workload>.csv
# holds the rows themselves, so a mismatch can be counted row by row.
PINNED_SHA256 = {
    "paper-sweep":
        "a4fe05cba1939a49ca6e5f165c6df01b4b2d32cdfb1a80dc9d94d42f7950246e",
    "sampled-fig8":
        "36f6bed07f2d81b4eebef79afe3567e037412bafb0950340e0522c90b3028b56",
    "replay-16n":
        "946ea8b1760376d1528c0b96b4c2f64eab1838dcf26b26a5f250af3f8292504f",
}

# The paper's Figure 8 average runtime reduction at 512 B regions.
PAPER_REDUCTION_PCT = 8.8

FINGERPRINT_KEYS = ("cpu_model", "cores", "compiler", "build_type")

# Per-layer JSON metrics that are results, not host time: the report
# prints them in their own block, with notes.
RESULT_METRICS = ("failed_frac", "runtime_reduction_pct", "ci95_pp",
                  "interchip_cut_pct")

# A build or a run that takes longer than this is stopped.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


# ------------------------------------------------------------ statistics

def rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples (the
    epsilon keeps 99.9 % of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def nearest_rank(samples, pct):
    """The pct-th percentile by the nearest-rank method."""
    return sorted(samples)[rank(len(samples), pct) - 1]


def samples_beyond(n, pct):
    """How many of n samples lie strictly above the nearest-rank pct-th."""
    return n - rank(n, pct)


PERCENTILE_LADDER = (99.9, 99.0, 90.0, 75.0)


def tail_percentile(samples, min_beyond=10):
    """The highest ladder percentile with at least min_beyond samples
    above it, as (pct, value); None when even p75 is not supported."""
    for pct in PERCENTILE_LADDER:
        if samples_beyond(len(samples), pct) >= min_beyond:
            return pct, nearest_rank(samples, pct)
    return None


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------- correctness

def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_rows(workload):
    path = BENCH_DIR / "pinned" / f"{workload}.csv"
    return path.read_text() if path.exists() else None


def count_row_failures(reference, outputs):
    """Compare every output CSV with the reference CSV row by row.

    Each reference data row is one attempted cell per output; a cell
    fails when its row is missing or differs (a different header fails
    every row). Returns (attempted, failed)."""
    ref = reference.splitlines()
    expected = ref[1:]
    attempted = failed = 0
    for text in outputs:
        lines = text.splitlines()
        header_ok = bool(lines) and bool(ref) and lines[0] == ref[0]
        rows = lines[1:]
        for i, want in enumerate(expected):
            attempted += 1
            if not header_ok or i >= len(rows) or rows[i] != want:
                failed += 1
        # Extra rows are cells nobody asked for: each is a failure.
        extra = max(0, len(rows) - len(expected))
        attempted += extra
        failed += extra
    return attempted, failed


def check_outputs(workload, seed, outputs, pinned=None):
    """Row accounting for one run.

    At the default seed every output must reproduce the pinned CSV, whose
    sha256 must be the pinned digest. At another seed the first output is
    the reference and every other output must agree with it byte for
    byte. Returns (attempted, failed, digest, problems)."""
    problems = []
    if seed == DEFAULT_SEED:
        reference = pinned if pinned is not None else pinned_rows(workload)
        if reference is None or sha256(reference) != PINNED_SHA256[workload]:
            problems.append(f"pinned rows for {workload} do not hash to "
                            f"{PINNED_SHA256[workload][:8]}")
            reference = reference or ""
    else:
        reference = outputs[0] if outputs else ""
    attempted, failed = count_row_failures(reference, outputs)
    digests = {sha256(o) for o in outputs}
    digest = digests.pop() if len(digests) == 1 else "mixed"
    if failed:
        problems.append(f"{failed} of {attempted} rows differ from the "
                        "reference")
    return attempted, failed, digest, problems


# ------------------------------------------------------------ fingerprint

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(raw):
    return {"cpu_model": cpu_model(), "cores": os.cpu_count(),
            "compiler": raw["compiler"], "build_type": raw["build_type"]}


def fingerprint_differences(a, b):
    """Why two fingerprints differ (empty when they match)."""
    return [f"{k}: {a.get(k)!r} vs {b.get(k)!r}"
            for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


# ---------------------------------------------------------------- metrics

def csv_rows(text):
    lines = text.splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def runtime_reduction(rows, region="512"):
    """Mean over profiles of 1 - cycles(CGCT) / cycles(baseline), in %,
    cycles averaged over seeds; also the per-profile values."""
    cycles = {}
    for r in rows:
        cycles.setdefault(r["workload"], {}).setdefault(
            r["region_bytes"], []).append(float(r["cycles"]))
    per = {w: 100.0 * (1.0 - statistics.mean(c[region]) /
                       statistics.mean(c["0"]))
           for w, c in cycles.items() if region in c and "0" in c}
    return statistics.mean(per.values()), per


def sampled_reduction_ci(rows, region="512"):
    """95% CI half-width, in points, of the sampled mean reduction: each
    profile's from its two cells' window-cycle CIs (quotient rule), then
    combined over profiles as independent errors."""
    by = {}
    for r in rows:
        by.setdefault(r["workload"], {})[r["region_bytes"]] = r
    halves = []
    for cells in by.values():
        base, cgct = cells["0"], cells[region]
        h0 = float(base["window_cycles_ci95"]) / float(
            base["window_cycles_mean"])
        h1 = float(cgct["window_cycles_ci95"]) / float(
            cgct["window_cycles_mean"])
        ratio = float(cgct["cycles"]) / float(base["cycles"])
        halves.append(100.0 * ratio * math.hypot(h0, h1))
    return math.sqrt(sum(h * h for h in halves)) / len(halves)


def interchip_cut(rows):
    """Mean drop, in %, of inter-chip broadcasts of each hier/dir replay
    against the flat 16-node bus replay of the same trace."""
    bus = {r["workload"]: float(r["interchip_broadcasts"])
           for r in rows if r["topology"] == "bus"}
    cuts = {}
    for r in rows:
        if r["topology"] != "bus":
            cuts[(r["workload"], r["topology"])] = 100.0 * (
                1.0 - float(r["interchip_broadcasts"]) / bus[r["workload"]])
    return statistics.mean(cuts.values()), cuts


def end_to_end(raw):
    passes = raw["passes"]
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median(raw["setup_s"]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "sim_ops_per_s": median([p["sim_ops"] / p["wall_s"]
                                 for p in passes]),
        "peak_rss_mb": median([p["peak_rss_kb"] for p in passes]) / 1024.0,
    }


def spec():
    """BENCHMARK.json: the metric names, units and bounds."""
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def per_layer(raw):
    passes = raw["passes"]
    cells = [s for p in passes for s in p["cell_s"]]
    untraced = median([p["wall_s"] for p in passes])
    traced = median(raw["traced_wall_s"])
    values = dict(raw["layers"])
    values.update({
        "sweep.cell_s.p50": median(cells),
        "sweep.cell_s.p90": nearest_rank(cells, 90.0),
        "sweep.busy_frac": median([p["busy_frac"] for p in passes]),
        "sweep.tail_s": median([p["tail_s"] for p in passes]),
        "trace.overhead_frac": (traced - untraced) / untraced,
    })
    return values


def fidelity(workload, rows_text):
    """The deterministic result metrics of one workload: (name, value,
    unit, note) tuples."""
    rows = csv_rows(rows_text)
    out = []
    if workload in ("paper-sweep", "sampled-fig8"):
        mean, per = runtime_reduction(rows)
        out.append(("runtime_reduction_pct", mean, "%",
                    f"paper Figure 8: {PAPER_REDUCTION_PCT} %"))
        if "tpc-w" in per:
            out.append(("runtime_reduction_pct.tpc-w", per["tpc-w"], "%",
                        "the Figure 8 cell"))
    if workload == "sampled-fig8":
        out.append(("ci95_pp", sampled_reduction_ci(rows), "pp",
                    "95% CI half-width of runtime_reduction_pct"))
    if workload == "replay-16n":
        mean, cuts = interchip_cut(rows)
        out.append(("interchip_cut_pct", mean, "%",
                    "unvalidated: no paper reference"))
        for (w, topo), cut in sorted(cuts.items()):
            out.append((f"interchip_cut_pct.{w}.{topo}", cut, "%", ""))
    return out


# ------------------------------------------------------------------ runs

def build(jobs):
    """Configure and build the Release tree; False on failure."""
    BUILD_ROOT.mkdir(exist_ok=True)
    steps = (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_workload(args):
    cmd = [str(PROGRAM), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--jobs", str(args.jobs), "--work-dir",
           str(WORK_DIR)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: workload did not finish: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: workload exited with {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def evaluate(args, raw):
    """Turn the workload program's raw numbers into the run's record."""
    outputs = [p["rows"] for p in raw["passes"]]
    outputs += raw.get("traced_rows", [])
    attempted, failed, digest, problems = check_outputs(
        args.workload, args.seed, outputs)
    attempted += int(raw.get("probes", 0))
    failed += int(raw.get("probe_failures", 0))
    if raw.get("probe_failures"):
        problems.append(f"{raw['probe_failures']} traced window probes "
                        "failed")
    bench = spec()

    def named(values, kind):
        # Every end-to-end metric exists, and is nonzero, on every
        # workload. A per-layer metric or result that a workload does not
        # have (a layer it never calls, a result only another workload
        # produces) reports 0.
        return {m["name"]: {"value": values.get(m["name"], 0.0),
                            "unit": m["unit"]} for m in bench[kind]}

    try:
        results = [list(f) for f in fidelity(args.workload, outputs[0])]
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as err:
        results = []
        problems.append(f"result metrics unavailable: {err!r}")
    e2e = named(end_to_end(raw), "end_to_end")
    metrics = e2e
    if args.trace:
        layers = per_layer(raw)
        layers["failed_frac"] = failed / attempted if attempted else 1.0
        layers.update((name, value) for name, value, _, _ in results
                      if name in RESULT_METRICS)
        metrics = named(layers, "per_layer")
    cells = [s for p in raw["passes"] for s in p["cell_s"]]
    return {
        "schema": RECORD_SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": raw["jobs"],
        "fingerprint": fingerprint(raw),
        "digest": digest,
        "passes": len(raw["passes"]),
        "traced_passes": len(raw.get("traced_wall_s", [])),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "untraced": e2e,
        "fidelity": results,
        "cell_samples": len(cells),
        "cell_tail": tail_percentile(cells),
    }


def report(rec):
    fp = rec["fingerprint"]
    print(f"perfbench {rec['workload']}  seed {rec['seed']}  trace "
          f"{rec['trace']}  jobs {rec['jobs']}  passes {rec['passes']}"
          f" (+{rec['traced_passes']} traced)")
    print(f"host: {fp['cpu_model']} | {fp['cores']} cores | "
          f"{fp['compiler']} | {fp['build_type']}")
    pin = ""
    if rec["seed"] == DEFAULT_SEED:
        pin = (" (pinned: match)" if rec["digest"] ==
               PINNED_SHA256[rec["workload"]] else " (pinned: MISMATCH)")
    print(f"rows sha256: {rec['digest']}{pin}")
    shown = [rec["metrics"]]
    if rec["trace"]:
        print("  end-to-end, from this run's untraced passes:")
        shown = [rec["untraced"], rec["metrics"]]
    for i, metrics in enumerate(shown):
        if i:
            print("  per-layer:")
        for name, m in metrics.items():
            if name not in RESULT_METRICS:
                print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    tail = rec["cell_tail"]
    print(f"  cell time: {rec['cell_samples']} samples; "
          + (f"p{tail[0]:g} = {tail[1]:.6g} s is the highest percentile "
             "with >= 10 samples beyond it" if tail else
             "too few for any tail percentile (sweep.cell_s.p90 is shown "
             "for reference only)"))
    print("  results:")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'failed_frac':<30} {frac:>16.6g} ratio "
          f"({rec['failed']}/{rec['attempted']} cells)")
    for name, value, unit, note in rec["fidelity"]:
        print(f"  {name:<30} {value:>16.6g} {unit}"
              + (f"  [{note}]" if note else ""))
    for p in rec["problems"]:
        print(f"  FAILED: {p}")


# --------------------------------------------------------------- compare

def load_records(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def paired_worse(base, head, better):
    """The sandbox rule for a change measured in alternating pairs
    (base[i] and head[i] ran back to back): head is worse when it loses
    at least nine tenths of the pairs, ties counting for neither side,
    and the medians differ by more than the distance between base's
    quartiles. Returns (pairs lost, pairs, flagged); flagged is None with
    fewer than ten pairs."""
    n = min(len(base), len(head))
    lost = sum(1 for b, h in zip(base, head)
               if (h > b if better == "lower" else h < b))
    if n < 10:
        return lost, n, None
    q = statistics.quantiles(base, n=4)
    shift = abs(median(head) - median(base))
    return lost, n, lost >= 0.9 * n and shift > q[2] - q[0]


def compare(base_path, head_path, bench):
    """Compare two record files, metric by metric, against the bounds of
    BENCHMARK.json and, for records made in alternating pairs, by the
    paired rule. Refuses (exit 3) when any two fingerprints differ;
    exit 1 when any metric is flagged."""
    base, head = load_records(base_path), load_records(head_path)
    records = base + head
    if not records:
        print("perfbench: no records to compare", file=sys.stderr)
        return 3
    for rec in records[1:]:
        diff = fingerprint_differences(records[0]["fingerprint"],
                                       rec["fingerprint"])
        if diff:
            print("perfbench: refusing to compare records from different "
                  "hosts or builds: " + "; ".join(diff))
            return 3
    flagged = 0
    for workload in WORKLOADS:
        for m in bench["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            h = [r["metrics"][name]["value"] for r in head
                 if r["workload"] == workload and name in r["metrics"]]
            if not b or not h:
                continue
            mb, mh = median(b), median(h)
            change = (mh - mb) / mb if mb else 0.0
            loss = change if m["better"] == "lower" else -change
            lost, pairs, paired = paired_worse(b, h, m["better"])
            verdict = "ok"
            if loss > m["bound"]:
                verdict = "WORSE than bound"
            elif paired:
                verdict = "WORSE in pairs"
            flagged += verdict != "ok"
            print(f"{workload:<13} {name:<14} base {mb:11.5g} head "
                  f"{mh:11.5g} {100 * change:+7.2f}% (bound "
                  f"{100 * m['bound']:.0f}%) pairs lost {lost}/{pairs}  "
                  f"{verdict}")
    return 1 if flagged else 0


# ------------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="sweep worker threads (default min(4, nproc))")
    parser.add_argument("--record", metavar="FILE",
                        help="append this run's record to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two record files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, spec())
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1 or args.jobs < 1:
        parser.error("--seed must be >= 0, --seconds and --jobs >= 1")

    if not build(args.jobs):
        return 2
    raw = run_workload(args)
    if raw is None:
        return 2
    rec = evaluate(args, raw)
    report(rec)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps(rec) + "\n")
    sys.stdout.flush()
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
