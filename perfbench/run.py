"""Run one cactusgrowth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cactus_tables --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload cli_requests --repeat 10

Run it from the root of a checkout: it imports the package from `src/` and
builds nothing.  A run sets the workload up (importing cactusgrowth afresh),
then runs whole passes over the workload's inputs while the next pass is
expected to end within --seconds (by default BENCHMARK.json's
run_seconds; always at least one pass), times each operation without the
check of its output that follows, and prints human-readable lines followed
by one JSON line.  Untraced runs also repeat the set-up and time
fresh-interpreter cold starts, between operations and spread over the run.
Every 25 ms, between operations, a fixed calibration loop is timed; each
end-to-end timing is scaled by the machine's speed around it, as that loop
shows it (see harness.Speed and the README's "Noise").  With --trace 0 the
JSON line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics derived from the spans, which are also written to
.bench_out/.  --repeat N runs N fresh processes with seeds seed..seed+N-1
and prints each metric's median and quartiles.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from harness import Recorder, Speed, Tracer, per_op_medians, percentile
from layers import CLI_COMMANDS, Calls, fresh_import
from workloads import WORKLOADS

SRC = os.path.abspath("src")
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
OUT_DIR = ".bench_out"
SETUP_REPS = 21
COLD_START_REPS = 21
IMPORT_REPS = 5
SPEED_PERIOD = 0.025
COLD_START_WORD = ('{"context": {"family": "Sp", "rank": 2}, '
                   '"corners": [[0,0],[1,0],[1,1],[1,0],[1,1],[1,0],[0,0]]}')

# per-layer metrics: (metric, span name, unit); each is the mean span duration
PER_CALL = [
    ("weights.dom_w_us", "weights.dom_w", "us"),
    ("words.complete_cell_us", "words.complete_cell", "us"),
    ("words.construct_us", "words.construct", "us"),
    ("words.tau_us", "words.tau", "us"),
    ("words.enumerate_ms", "words.enumerate", "ms"),
    ("growth.act_prefix_us", "growth.act_prefix", "us"),
    ("growth.act_inner_us", "growth.act_inner", "us"),
    ("growth.evacuation_us", "growth.evacuation", "us"),
    ("growth.promotion_us", "growth.promotion", "us"),
    ("growth.build_cylinder_us", "growth.build_cylinder", "us"),
    ("growth.wall_cross_us", "growth.wall_cross", "us"),
    ("crystal.decompose_ms", "crystal.decompose", "ms"),
    ("oracles.evacuation_us", "oracles.evacuation", "us"),
    ("oracles.promotion_us", "oracles.promotion", "us"),
    ("oracles.dual_knuth_us", "oracles.dual_knuth", "us"),
    ("oracles.bender_knuth_us", "oracles.bender_knuth", "us"),
    ("oracles.from_dual_sequence_us", "oracles.from_dual_sequence", "us"),
    ("oracles.enumerate_ms", "oracles.enumerate", "ms"),
    ("qalgebra.canon_us", "qalgebra.canon", "us"),
    ("qalgebra.mul_us", "qalgebra.mul", "us"),
    ("qalgebra.add_us", "qalgebra.add", "us"),
    ("qalgebra.mateq_us", "qalgebra.mateq", "us"),
    *[(f"qalgebra.matmul_us.n{n}", f"qalgebra.matmul.n{n}", "us") for n in range(2, 7)],
    ("qalgebra.render_us", "qalgebra.render", "us"),
    ("hecke.rep_build_ms", "hecke.rep_build", "ms"),
    ("hecke.generator_us", "hecke.generator", "us"),
    ("hecke.jm_word_product_ms", "hecke.jm_word_product", "ms"),
    ("hecke.cactus_matrix_ms", "hecke.cactus_matrix", "ms"),
    ("cli.build_parser_ms", "cli.build_parser", "ms"),
    *[(f"cli.request_ms.{cmd}", f"cli.request.{cmd}", "ms") for cmd in CLI_COMMANDS],
]
BUSY = [("weights.busy_s", "weights."), ("cactus.busy_s", "cactus.")]
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def read_spec() -> dict:
    try:
        with open(SPEC) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def git_sha() -> str:
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "git": git_sha()}


def cold_start() -> tuple[float, float]:
    """Start time and wall time (s) of one fresh-interpreter `act` request."""
    argv = [sys.executable, "-m", "cactusgrowth.cli", "act", "--word", "s(1,6) s(2,6)", "--json", COLD_START_WORD]
    t0 = perf_counter()
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    took = perf_counter() - t0
    if proc.returncode != 0 or json.loads(proc.stdout)["corners"][-1] != [0, 0]:
        raise RuntimeError(f"cold-start act failed with exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return t0, took


def scaled_median(samples: list[tuple[float, float]], speed: Speed) -> float:
    """Median of (start, duration) samples, each scaled to the unit speed."""
    factors = speed.factors([t for t, _ in samples])
    return statistics.median(d / k for (_, d), k in zip(samples, factors))


def import_ms() -> float:
    """Median time to import cactusgrowth.cli in a fresh interpreter, as the
    child measures it (interpreter start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import time; t = time.perf_counter(); import cactusgrowth.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120, check=True).stdout
        times.append(float(out))
    return statistics.median(times) * 1e3


def layer_metrics(own, probe, passes: int, workload: str, rec) -> dict:
    """Per-layer metrics from the run's spans.  A call the workload never
    makes is measured on the probe spans instead (see README)."""
    def by_name(spans):
        out: dict = {}
        for name, start, end, *_ in spans:
            out.setdefault(name, []).append(end - start)
        return out

    mine, other = by_name(own.spans), by_name(probe.spans)
    metrics = {}
    for metric, span, unit in PER_CALL:
        durations = mine.get(span) or other.get(span)
        if not durations:
            raise RuntimeError(f"no spans named {span}")
        metrics[metric] = (statistics.fmean(durations) * SCALE[unit], unit)
    in_pass = [s for s in own.spans if s[5] == "pass"]
    for metric, prefix in BUSY:
        busy = sum(s[2] - s[1] for s in in_pass if s[0].startswith(prefix)) / passes
        if busy == 0.0:
            busy = sum(s[2] - s[1] for s in probe.spans if s[0].startswith(prefix))
        metrics[metric] = (busy, "s")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    growth_failed = sum(1 for s in in_pass if s[0].startswith("growth.") and s[6])
    metrics["growth.failed"] = (growth_failed // passes, "count")
    metrics["cli.failed"] = (rec.failed // passes if workload == "cli_requests" else 0, "count")
    return metrics


def time_layer_samples(c, cells, entries) -> None:
    """Single layer calls on cells and entry pairs taken from a workload."""
    for kappa, lam, nu in cells:
        total = kappa + nu - lam
        c.dom_w(total)
        c.complete_cell(kappa, lam, nu)
    for x, y in entries:
        num, den = x.num * y.den + y.num * x.den, x.den * y.den
        c.canon(num, den)
        c.mul(x, y)
        c.add(x, y)
        c.render(x)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if traced else None
    speed = Speed(SPEED_PERIOD)
    # (start, duration) of each set-up and cold start
    setup_times: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []

    def set_up(calls_tracer=None):
        gc.collect()
        t0 = perf_counter()
        m = fresh_import()
        c = Calls(m, calls_tracer)
        st = wl.setup(m, c, seed)
        setup_times.append((t0, perf_counter() - t0))
        return m, c, st

    def interlude() -> None:
        """Repeat set-ups and sample cold starts between operations, spread
        over the run, so that they meet the machine's speed as the passes
        do.  The time spent here is left out of the passes."""
        if len(setup_times) < SETUP_REPS:
            set_up()
            gc.collect()
        if len(cold) < COLD_START_REPS:
            cold.append(cold_start())
        speed.sample()

    speed.sample()
    m, c, st = set_up(tracer)
    speed.sample()
    if tracer:
        tracer.stage = "pass"
        rec = Recorder(tracer, speed=speed)
    else:
        rec = Recorder(interlude=interlude, period=seconds / max(SETUP_REPS, COLD_START_REPS), speed=speed)
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    pass_times = []
    while True:
        t_pass, paused = perf_counter(), rec.paused
        span = tracer.begin("pass") if tracer else -1
        wl.run_pass(st, c, rec)
        if tracer:
            tracer.end(span)
        pass_times.append(perf_counter() - t_pass - (rec.paused - paused))
        if sum(pass_times) + pass_times[-1] > seconds:
            break
    elapsed = sum(pass_times)
    passes = len(pass_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not traced:
        while len(setup_times) < SETUP_REPS or len(cold) < COLD_START_REPS:
            interlude()
    speed.sample()
    # each operation's time (its check not included), scaled by the machine's
    # speed around it: the machine has slow spells of several seconds
    scaled = [d / k for d, k in zip(rec.latencies, speed.factors(rec.starts))]
    busy = sum(scaled)

    result = {"workload": name, "seed": seed, "pass_times": pass_times, "elapsed_s": elapsed, "traced": traced,
              "attempted": rec.attempted, "failed": rec.failed, "correct": rec.correct,
              "errors": rec.errors, "wrong": rec.wrong[:10],
              "traced_ops_per_s" if traced else "ops_per_s": rec.attempted / busy,
              "unscaled_ops_per_s": rec.attempted / sum(rec.latencies),
              "calibration_ms": statistics.median(speed.durations) * 1e3, "calibrations": len(speed.durations)}
    if not traced:
        # stalls shorter than the calibration period still hit single calls;
        # an operation's median over the passes leaves them out
        lat = sorted(per_op_medians(scaled, passes))
        result["metrics"] = {
            "setup_s": (scaled_median(setup_times, speed), "s"),
            "ops_per_s": (rec.attempted / busy, "ops/s"),
            "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "op_ms_p99": (percentile(lat, 0.99) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_start_ms": (scaled_median(cold, speed) * 1e3, "ms"),
        }
        return result

    rng = random.Random(seed)
    tracer.stage = "sample"
    cells, entries = wl.samples(st, c, rng)
    time_layer_samples(c, cells or [], entries or [])
    probe = Tracer()
    probe.stage = "probe"
    pc = Calls(m, probe)
    for other in WORKLOADS.values():
        if other is wl:
            continue
        ost = other.setup(m, pc, seed)
        other.probe_pass(ost, pc, Recorder(probe))
        ocells, oentries = other.samples(ost, pc, rng)
        time_layer_samples(pc, [] if cells else ocells or [], [] if entries else oentries or [])
        cells, entries = cells or ocells, entries or oentries
    result["metrics"] = layer_metrics(tracer, probe, passes, name, rec)
    base = len(tracer.spans)
    tracer.spans += [s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in probe.spans]
    tracer.write(os.path.join(OUT_DIR, f"trace_{name}_{seed}.jsonl"))
    return result


def report(result: dict, info: dict) -> None:
    print(f"machine: nproc={info['nproc']} python={info['python']} git={info['git']}")
    print(f"workload: {result['workload']} seed={result['seed']} traced={int(result['traced'])} "
          f"passes={len(result['pass_times'])} measured_s={result['elapsed_s']:.2f} "
          f"pass_s={' '.join(f'{t:.2f}' for t in result['pass_times'])}")
    print(f"operations: attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    print(f"machine speed: calibration loop median {result['calibration_ms']:.4g} ms over "
          f"{result['calibrations']} samples; unscaled throughput {result['unscaled_ops_per_s']:.6g} ops/s")
    if result["traced"]:
        print(f"traced throughput: {result['traced_ops_per_s']:.6g} ops/s (scaled)")
    for key, count in sorted(result["errors"].items(), key=lambda kv: -kv[1]):
        print(f"failed: {count} x {key}")
    for line in result["wrong"]:
        print(f"wrong: {line}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")


def repeat(args) -> int:
    """Run the workload in `args.repeat` fresh processes and summarise."""
    bounds = {m["name"]: m["bound"] for m in args.spec.get("end_to_end", [])}
    values: dict = {}
    shares = set()
    for k in range(args.repeat):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed + k), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(str(Fraction(out["failed"], out["attempted"])))
        print(f"seed {args.seed + k}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']} " + " ".join(f"{n}={v['value']:.6g}" for n, v in out["metrics"].items()))
        for name, v in out["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        note = f" bound={bounds[name]} ({'ok' if spread < bounds[name] / 3 else 'WIDE'})" if name in bounds else ""
        print(f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.2%}{note}")
    print(f"failed share per run: {sorted(shares)}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "summary": summary}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    spec = read_spec()
    ap.add_argument("--seconds", type=float, default=spec.get("run_seconds", 50),
                    help="measured time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run N fresh processes and print quartiles")
    args = ap.parse_args(argv)
    args.spec = spec
    if not os.path.isfile(os.path.join(SRC, "cactusgrowth", "__init__.py")):
        print("run from the root of a cactusgrowth checkout: src/cactusgrowth is missing", file=sys.stderr)
        return 2
    if args.repeat:
        return repeat(args)
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, machine())
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
