#!/usr/bin/env python3
"""Server-level benchmark of shapcq_server.

  python3 server_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 server_bench/run.py --steadiness RUNS [--workload NAME] [--seconds S]

Run from the root of a source checkout. The first form builds the program
in Release under .bench_build/, starts shapcq_server --listen 127.0.0.1:0
and drives it over loopback TCP with the workload's generated inputs, checks
every answer, and prints one JSON object as its last line: the end-to-end
metrics with --trace 0, or with --trace 1 the per-layer metrics of a replay
of the same inputs in-process (server_bench_tool replay). The second form
runs each workload in two sets of RUNS runs with seeds 1..RUNS and prints,
for every end-to-end metric, each set's quartiles and spread and how far
the second median moved, next to the metric's bound in BENCHMARK.json.
README.md describes the workloads.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import workloads
from client import Connection, Server, ServerError, drive
from workloads import Step

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3  # servers set up per run; setup_s is their median

END_TO_END = [
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("report_p50_ms", "ms"),
    ("report_p90_ms", "ms"),
    ("deltas_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("server_cpu_ms", "ms"),
]
PER_LAYER = [
    ("net.roundtrip_us", "us"),
    ("loop.delta_us", "us"),
    ("loop.report_ms", "ms"),
    ("textio.mutation_parse_us", "us"),
    ("request.parse_us", "us"),
    ("registry.mutate_us", "us"),
    ("registry.report_ms", "ms"),
    ("registry.builds", "count"),
    ("registry.evictions", "count"),
    ("registry.cache_hits", "count"),
    ("wal.log_delta_us", "us"),
    ("wal.sync_ms", "ms"),
    ("wal.compact_ms", "ms"),
    ("wal.bytes", "B"),
    ("engine.build_ms", "ms"),
    ("engine.nodes", "count"),
    ("engine.patch_us", "us"),
    ("arena.sweep_ms", "ms"),
    ("engine.orbits", "count"),
    ("engine.bytes", "B"),
    ("report.rank_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.rows", "count"),
    ("report.bytes", "B"),
    ("approx.create_ms", "ms"),
    ("approx.estimate_ms", "ms"),
    ("approx.samples", "count"),
    ("approx.samples_per_s", "1/s"),
    ("trace.report_layer_sum_ms", "ms"),
]


def fail(message, code=2):
    print("server_bench: " + message, file=sys.stderr)
    sys.exit(code)


# --- build and build guard -------------------------------------------------

def build(root):
    """Builds shapcq_server and server_bench_tool in Release; returns their
    paths and the build facts printed with the metrics."""
    for needed in ("CMakeLists.txt", "src",
                   os.path.join("tools", "shapcq_server.cc")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("shapcq sources not found (%s missing); run from the root "
                 "of a source checkout" % needed)
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configured = subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
            if configured.returncode != 0:
                fail("cmake configure failed; see .bench_build/build.log")
        jobs = str(min(4, os.cpu_count() or 1))
        built = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "shapcq_server",
             "server_bench_tool", "-j", jobs], stdout=log, stderr=log)
        if built.returncode != 0:
            fail("build failed; see .bench_build/build.log")
    cache_type = None
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                cache_type = line.strip().split("=", 1)[1]
    tool = os.path.join(build_dir, "server_bench_tool")
    server = os.path.join(build_dir, "shapcq", "shapcq_server")
    info = json.loads(subprocess.run([tool, "info"], check=True,
                                     capture_output=True, text=True).stdout)
    if (cache_type != "Release" or info["build_type"] != "Release" or
            not info["ndebug"]):
        fail("refusing to report numbers from a %s build (NDEBUG %s); "
             "remove .bench_build and rerun" % (cache_type, info["ndebug"]), 3)
    sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    environment = {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "nproc": os.cpu_count(),
        "build_type": cache_type,
    }
    return server, tool, environment


# --- driving the server ----------------------------------------------------

def start_and_set_up(plan, server_binary, run_dir, index):
    """Starts a server and runs every connection's set-up steps; returns
    the server, its connections, their records and the set-up time."""
    args = list(plan.server_args)
    if plan.log_dir:
        wal = os.path.join(run_dir, "wal%d" % index)
        os.makedirs(wal)
        args += ["--log-dir", wal]
    start = time.perf_counter()
    server = Server(server_binary, args)
    try:
        conns = [Connection(server.port) for _ in plan.connections]
        records = [drive([conn], [connection_plan.setup])[0][0]
                   for conn, connection_plan in zip(conns, plan.connections)]
    except BaseException:
        server.stop()
        raise
    return server, conns, records, time.perf_counter() - start


def loop_steps(connection_plan, trace):
    """The timed loop's steps; a traced run adds a STATS <session> round
    trip after each report."""
    if not trace:
        return connection_plan.loop
    steps = []
    for step in connection_plan.loop:
        steps.append(step)
        if step.kind == "report":
            steps.append(Step("stats", ["STATS " + step.session],
                              step.session))
    return steps


# --- checking --------------------------------------------------------------

class Tally:
    """Attempted and failed commands by kind, and correctness problems."""

    def __init__(self):
        self.attempted = {"open": 0, "delta": 0, "report": 0, "stats": 0}
        self.failed = {"open": 0, "delta": 0, "report": 0, "stats": 0}
        self.failures = []  # commands answered with an error or bad shape
        self.problems = []  # answers of the right shape with wrong content

    def fail(self, kind, text):
        self.failed[kind] += 1
        if len(self.failures) < 20:
            self.failures.append(text)

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)


def split_replies(record):
    """Pairs each sent line with its reply lines (echo stripped)."""
    replies, current = [], None
    for line in record.lines:
        if line.startswith("> "):
            current = [line]
            replies.append(current)
        elif current is not None:
            current.append(line)
        else:
            replies.append([line])
    return replies


def check_record(record, tally):
    """Checks one step's reply; returns the parsed report of a report step
    that did not fail, else None."""
    step = record.step
    report = None
    kind = "delta" if step.kind == "burst" else step.kind
    replies = split_replies(record)
    for index, line in enumerate(step.lines):
        tally.attempted[kind] += 1
        reply = replies[index] if index < len(replies) else []
        if (len(reply) < 2 or reply[0] != "> " + line or
                any(r.startswith("error:") for r in reply[1:])):
            tally.fail(kind, "%s -> %r" % (line, reply[:3]))
        elif step.kind == "stats":
            if len(reply) != 2 or not reply[1].startswith("stats "):
                tally.fail(kind, "%s -> %r" % (line, reply[1:]))
        elif step.kind == "report":
            report = check_report(step, reply[1:], tally)
        elif len(reply) != 2:
            tally.fail(kind, "%s -> %r" % (line, reply[1:]))
        elif reply[1] != step.acks[index]:
            tally.problem("%s -> %r, expected %r" %
                          (line, reply[1], step.acks[index]))
    return report


def check_report(step, lines, tally):
    try:
        report = checks.parse_report(step.session, lines)
    except (ValueError, IndexError, ZeroDivisionError) as error:
        tally.fail("report", "report %s: %s" % (step.session, error))
        return None
    expect = step.expect
    if expect["approx"] is None:
        problems = checks.check_exact(report, expect["total"], expect["endo"],
                                      expect["top_k"], expect["endo_facts"])
    else:
        epsilon, delta, seed = expect["approx"]
        problems = checks.check_approx(report, expect["endo"], epsilon, delta,
                                       seed, expect["endo_facts"])
    for text in problems:
        tally.problem("report %s: %s" % (step.session, text))
    return report


def oracle_values(tool, run_dir, method, blocks):
    """Runs `server_bench_tool values` over (query, facts, asks) blocks;
    returns {(block, literal): value text}."""
    path = os.path.join(run_dir, "values-%s.txt" % method)
    with open(path, "w") as out:
        for query, facts, asks in blocks:
            out.write("query %s\n" % query)
            for (relation, values), endogenous in sorted(facts.items()):
                out.write("fact %s\n" % checks.fact_literal(relation, values,
                                                            endogenous))
            for literal in asks:
                out.write("ask %s\n" % literal)
            out.write("end\n")
    result = subprocess.run([tool, "values", "--method", method, path],
                            capture_output=True, text=True)
    if result.returncode != 0:
        raise ServerError("oracle failed: " + result.stderr.strip())
    values = {}
    for line in result.stdout.splitlines():
        block, literal, value = line.split()
        values[(int(block), literal)] = value
    return values


def check_against_countsat(final_records, sessions, tool, run_dir, seed,
                           tally):
    """Each exact session's final full table: a seeded sample of facts plus
    the top- and bottom-ranked rows, recomputed with ShapleyViaCountSat, must
    match the server's values exactly."""
    blocks, served = [], []
    rng = random.Random("oracle:%d" % seed)
    for record in final_records:
        session = sessions[record.step.session]
        report = check_record(record, tally)
        if report is None:
            continue
        rows = {row[0]: row[1] for row in report.rows}
        asks = sorted(rng.sample(sorted(rows), min(6, len(rows))))
        for row in (report.rows[0], report.rows[-1]):
            if row[0] not in asks:
                asks.append(row[0])
        blocks.append((session.query, session.facts, asks))
        served.append(rows)
    if not blocks:
        return
    values = oracle_values(tool, run_dir, "countsat", blocks)
    for block, rows in enumerate(served):
        for literal in blocks[block][2]:
            if values.get((block, literal)) != rows[literal]:
                tally.problem("%s: server %s, ShapleyViaCountSat %s" %
                              (literal, rows[literal],
                               values.get((block, literal))))


def check_approx_coverage(records, validation, delta, tool, run_dir, tally):
    """Share of validation rows whose +-ci interval misses the brute-force
    value must be at most delta."""
    endo = sorted(validation.endo)
    exact = oracle_values(tool, run_dir, "brute",
                          [(validation.query, validation.facts, endo)])
    rows = misses = 0
    for record in records:
        report = check_record(record, tally)
        if report is None:
            continue
        for fact, _, value, _, ci, _ in report.rows:
            if (0, fact) not in exact:
                continue  # check_approx flagged the row
            rows += 1
            truth = Fraction(exact[(0, fact)])
            if abs(float(value - truth)) > ci + 1e-12:
                misses += 1
    if rows == 0 or misses > delta * rows:
        tally.problem("approx coverage: %d of %d rows miss the brute-force "
                      "value (delta %g)" % (misses, rows, delta))


def parse_stats(line):
    return {key: int(value) for key, value in
            (item.split("=", 1) for item in line.split()[1:] if "=" in item)
            if value.isdigit()}


# --- one run ---------------------------------------------------------------

def run(args, server_binary, tool, root):
    plan = workloads.build_plan(args.workload, args.seed, args.seconds, tool)
    run_dir = os.path.join(root, ".bench_build", "runs",
                           "%s-%d-%d" % (args.workload, args.seed,
                                         os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally()
    setup_times = []
    server = None
    try:
        for index in range(SETUPS):
            server, conns, setup_records, seconds = start_and_set_up(
                plan, server_binary, run_dir, index)
            setup_times.append(seconds)
            for record in (r for rs in setup_records for r in rs):
                check_record(record, tally)
            if index + 1 < SETUPS:
                for conn in conns:
                    conn.close()
                server.stop()
                server = None

        cpu_start = server.cpu_seconds()
        loop_records, wall = drive(
            conns, [loop_steps(c, args.trace) for c in plan.connections])
        server_cpu = server.cpu_seconds() - cpu_start
        peak_rss = server.peak_rss_mb()

        # After the loop, on the same server: registry counters, each exact
        # session's final full table, the approx validation session.
        after = drive([conns[0]], [[Step("stats", ["STATS"], None)]])[0][0]
        stats = parse_stats(after[0].lines[1]) if len(after[0].lines) > 1 \
            else {}
        sessions = {}
        finals = []
        for conn, connection_plan in zip(conns, plan.connections):
            for session in connection_plan.sessions:
                sessions[session.sid] = session
            finals += drive([conn], [[
                workloads.report_step(session, 0)
                for session in connection_plan.sessions
                if not session.approx_only]])[0][0]
        validation_records = []
        if plan.validation is not None:
            validation_records = drive([conns[0]],
                                       [plan.validation[1]])[0][0]
        for conn in conns:
            conn.close()
        server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()

    approx_samples = 0
    for record in (r for rs in loop_records for r in rs):
        report = check_record(record, tally)
        if report is not None and report.approx is not None:
            approx_samples += checks.approx_samples(report)
    check_record(after[0], tally)
    check_against_countsat(finals, sessions, tool, run_dir, args.seed, tally)
    if plan.validation is not None:
        check_approx_coverage(validation_records, plan.validation[0],
                              plan.approx_spec[1], tool, run_dir, tally)

    reports = [r for rs in loop_records for r in rs if r.step.kind == "report"]
    bursts = [r for rs in loop_records for r in rs if r.step.kind == "burst"]
    latencies_ms = [(r.end - r.start) * 1e3 for r in reports]
    delta_count = sum(len(r.step.lines) for r in bursts)
    work = {
        "commands": {kind: {"attempted": tally.attempted[kind],
                            "failed": tally.failed[kind]}
                     for kind in tally.attempted},
        "reports": len(reports),
        "deltas": delta_count,
        "builds": stats.get("builds"),
        "evictions": stats.get("evictions"),
        "hits": stats.get("hits"),
        "cached": stats.get("cached"),
        "approx_samples": approx_samples,
    }
    metrics = {}
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "reports_per_s": len(reports) / wall,
            "report_p50_ms": statistics.median(latencies_ms),
            "report_p90_ms": statistics.quantiles(
                latencies_ms, n=10, method="inclusive")[8],
            "deltas_per_s": delta_count / sum(r.end - r.start
                                              for r in bursts),
            "peak_rss_mb": peak_rss,
            "server_cpu_ms": server_cpu * 1e3 / len(reports),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        metrics = traced_metrics(plan, tool, run_dir, setup_records,
                                 loop_records, latencies_ms, root, args, tally)
    shutil.rmtree(run_dir, ignore_errors=True)
    return tally, work, metrics


def traced_metrics(plan, tool, run_dir, setup_records, loop_records,
                   latencies_ms, root, args, tally):
    """Replays the last server's inputs in-process; returns the per-layer
    metrics and checks the replayed transcript against the server's."""
    scripts, served = [], []
    for index, (setup, loop) in enumerate(zip(setup_records, loop_records)):
        path = os.path.join(run_dir, "conn%d.txt" % index)
        with open(path, "w") as script:
            for record in setup + loop:
                for line in record.step.lines:
                    script.write(line + "\n")
        scripts.append(path)
        served.append("".join(line + "\n" for record in setup + loop
                              for line in record.lines))
    trace_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    spans = os.path.join(trace_dir, "%s-%d.spans.jsonl" % (args.workload,
                                                           args.seed))
    transcript = os.path.join(run_dir, "replay.txt")
    wal_dir = os.path.join(run_dir, "replay-wal")
    command = [tool, "replay", "--max-resident", str(plan.max_resident),
               "--stripes", str(plan.stripes), "--wal-dir", wal_dir,
               "--spans", spans, "--transcript", transcript]
    if plan.log_dir:
        command += ["--log-dir", os.path.join(run_dir, "replay-loop-wal")]
    replay = subprocess.run(command + scripts, capture_output=True, text=True)
    if replay.returncode != 0:
        raise ServerError("replay failed: " + replay.stderr.strip())
    summary = json.loads(replay.stdout)
    with open(transcript) as replayed:
        parts = replayed.read().split("# script ")[1:]
    for index, part in enumerate(parts):
        body = part.split("\n", 1)[1]
        if body != served[index]:
            tally.problem("replayed transcript of connection %d differs "
                          "from the server's" % index)
    if len(parts) != len(served):
        tally.problem("replay produced %d transcripts for %d connections" %
                      (len(parts), len(served)))
    roundtrips = [(r.end - r.start) * 1e6 for rs in loop_records for r in rs
                  if r.step.kind == "stats"]
    summary["net.roundtrip_us"] = statistics.median(roundtrips)
    print("trace: %s  spans=%d  report_layer_sum_ms=%.4f  "
          "report_p50_ms(untraced server, same loop)=%.4f  probed=%s" %
          (spans, summary["spans"], summary["trace.report_layer_sum_ms"],
           statistics.median(latencies_ms), ",".join(summary["probed"])))
    return {name: {"value": summary[name], "unit": unit}
            for name, unit in PER_LAYER}


# --- steadiness mode -------------------------------------------------------

def steadiness_set(workload, runs, seconds, label):
    """Runs one workload with seeds 1..runs; returns the parsed results and
    the work lines, by seed."""
    results, works = {}, {}
    for seed in range(1, runs + 1):
        result = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True)
        if result.returncode != 0:
            fail("%s seed %d failed:\n%s%s" % (workload, seed, result.stdout,
                                                result.stderr), 1)
        lines = result.stdout.strip().splitlines()
        results[seed] = json.loads(lines[-1])
        works[seed] = [line for line in lines if line.startswith("work: ")][0]
        print("%s %s seed %d %s" % (workload, label, seed, works[seed]))
        sys.stdout.flush()
    return results, works


def steadiness(args, root):
    """Two sets of runs with seeds 1..RUNS, one after the other. For every
    end-to-end metric prints each set's quartiles and spread (interquartile
    distance over the median) and how much worse the second median is than
    the first, next to the metric's bound in BENCHMARK.json; exits 1 if a
    spread (setup_s excepted) or a change exceeds its bound, or if the sets'
    work counts or failure shares differ."""
    with open(os.path.join(root, "BENCHMARK.json")) as spec:
        metrics = {m["name"]: m for m in json.load(spec)["end_to_end"]}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    steady = True
    for workload in names:
        first, first_work = steadiness_set(workload, args.steadiness,
                                           args.seconds, "set 1")
        second, second_work = steadiness_set(workload, args.steadiness,
                                             args.seconds, "set 2")
        same_work = first_work == second_work
        shares = [{(r["failed"], r["attempted"]) for r in results.values()}
                  for results in (first, second)]
        same_shares = shares[0] == shares[1]
        steady = steady and same_work and same_shares
        print("%s: 2 sets of %d runs of %ss; work counts identical: %s; "
              "(failed, attempted) identical: %s" %
              (workload, args.steadiness, args.seconds,
               "yes" if same_work else "NO", "yes" if same_shares else "NO"))
        print("  %-13s %-4s %4s %10s %10s %10s %7s %8s %6s" %
              ("metric", "unit", "set", "q1", "median", "q3", "spread",
               "worse", "bound"))
        for name, unit in END_TO_END:
            spec = metrics[name]
            quartiles = [statistics.quantiles(
                [r["metrics"][name]["value"] for r in results.values()], n=4)
                for results in (first, second)]
            spreads = [(q3 - q1) / median for q1, median, q3 in quartiles]
            first_median, second_median = quartiles[0][1], quartiles[1][1]
            change = (second_median - first_median) / first_median
            worse = change if spec["better"] == "lower" else -change
            within = worse <= spec["bound"] and (
                name == "setup_s" or max(spreads) <= spec["bound"])
            steady = steady and within
            for index, (q1, median, q3) in enumerate(quartiles):
                print("  %-13s %-4s %4d %10.4f %10.4f %10.4f %7.4f" %
                      (name, unit, index + 1, q1, median, q3,
                       spreads[index]) +
                      ("" if index == 0 else " %+8.4f %6.2f%s" % (
                          worse, spec["bound"],
                          "" if within else "  OUT OF BOUND")))
        sys.stdout.flush()
    if not steady:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    args = parser.parse_args()
    root = os.getcwd()
    server_binary, tool, environment = build(root)
    if args.steadiness:
        steadiness(args, root)
        return
    if args.workload is None:
        fail("--workload is required")
    try:
        tally, work, metrics = run(args, server_binary, tool, root)
    except (ServerError, OSError) as error:
        fail("%s run failed: %s" % (args.workload, error), 1)
    print("env: " + json.dumps(environment))
    print("work: " + json.dumps(work, sort_keys=True))
    for text in tally.failures + tally.problems:
        print("problem: " + text, file=sys.stderr)
    failed = sum(tally.failed.values())
    correct = not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(tally.attempted.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    # No operation fails on any workload: a failure fails the run too.
    if not correct or failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
