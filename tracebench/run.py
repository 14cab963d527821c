#!/usr/bin/env python3
"""tracebench: the passive tracer, timed end to end and split by layer.

Run from the root of a checkout:

    python3 tracebench/run.py --workload campus-tcp-trace --seed 1 --seconds 25 --trace 0
    python3 tracebench/run.py --workload all --seed 1 --seconds 25 --sets 2
    python3 tracebench/run.py --smoke

It builds nfstrace, nfsstats and the probe from source under
.bench_build/, generates the workload's input from --seed, and then
either times the shipped CLI, one process per run, for --seconds
(--trace 0, the end-to-end metrics of BENCHMARK.json), or repeats the
probe's traced per-layer pass for --seconds (--trace 1, the per-layer
metrics). Every run checks the CLI's output against the oracles in
README.md. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "dune" / "default"
NFSTRACE = OUT / "bin" / "nfstrace.exe"
NFSSTATS = OUT / "bin" / "nfsstats.exe"
PROBE = OUT / HERE.name / "probe" / "probe.exe"

# Input sizes: the simulated population and the work the seeded window
# is cut to, in units of one record plus one per 8 KiB of READ/WRITE
# data (see probe.ml, window_for).
SIZES = {
    "campus-tcp-trace": {"users": 200, "units": 60000},
    "eecs-udp-lossy": {"users": 200, "units": 90000},
    "campus-tbin-stats": {"users": 200, "units": 450000},
}
SMOKE_SIZES = {
    "campus-tcp-trace": {"users": 20, "units": 800},
    "eecs-udp-lossy": {"users": 20, "units": 1200},
    "campus-tbin-stats": {"users": 20, "units": 3000},
}
# Per-layer metrics of the layers on the nfsstats path; the other layers
# are on the nfstrace path. A traced run reports the layers its CLI
# never calls as 0.
STATS_LAYERS = ("tbin.decode", "tbin.failures", "pipeline.", "analysis.", "report.", "par.")
SETUP_REPEATS = 3
MIN_SAMPLES = 3
CLI_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    """The benchmark itself could not run (build, set-up, missing files)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def build():
    for f in ("dune-project", "bin/nfstrace.ml", "bin/nfsstats.ml"):
        if not (ROOT / f).is_file():
            raise BenchError(f"{f} not found: run from the root of a checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    targets = [str(p.relative_to(OUT)) for p in (NFSTRACE, NFSSTATS, PROBE)]
    cmd = ["dune", "build", "--root", str(ROOT), "--cache=disabled",
           "--build-dir", str(BUILD / "dune")] + ["./" + t for t in targets]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


def run_process(argv, stdout, stderr):
    """Run one process to completion: (wall s, user+sys CPU s, peak RSS MiB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(CLI_TIMEOUT_S, lambda: os.kill(p.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode


def probe(*args):
    r = subprocess.run([str(PROBE), *map(str, args)], cwd=ROOT, capture_output=True, text=True,
                       timeout=CLI_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"probe {args[0]} failed:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def tail_note(name, xs, unit):
    """A median, plus the highest percentile that has ten samples beyond it."""
    n = len(xs)
    note = f"{name}: median {median(xs):.6g} {unit}, n={n}"
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        q = sorted(xs)[min(n - 1, int(n * p / 100))]
        note += f", p{p} {q:.6g} {unit}"
    return note


# --- the CLI under test and its oracles ---------------------------------

def cli_argv(workload, d):
    if workload == "campus-tcp-trace":
        return [str(NFSTRACE), str(d / "input.pcap"), "-o", str(d / "out.trace"),
                "--out-tbin", str(d / "out.ntb")]
    if workload == "eecs-udp-lossy":
        return [str(NFSTRACE), "--salvage", "--lint", str(d / "input.pcap"),
                "-o", str(d / "out.trace"), "--out-tbin", str(d / "out.ntb")]
    return [str(NFSSTATS), "-a", "summary,runs,names,hourly", "-j", "2", str(d / "input.ntb")]


def capture_stats(err_text):
    for line in err_text.splitlines():
        if line.startswith("nfstrace: frames="):
            return {k: int(v) for k, v in (f.split("=") for f in line[len("nfstrace: "):].split())}
    return None


def check_cli(workload, d, facts, code):
    """Cheap oracles on one CLI run. Returns (records delivered, problems)."""
    problems = []
    if code != 0:
        return 0, [f"exit code {code}"]
    err = (d / "err.txt").read_text()
    if workload == "campus-tbin-stats":
        out = (d / "out.txt").read_bytes()
        if out != (d / "reference.txt").read_bytes():
            problems.append("nfsstats -j 2 report differs from Report.run at jobs=1")
        loaded = [int(l.split()[1]) for l in err.splitlines() if l.endswith("records loaded")]
        if loaded != [facts["simulated"]]:
            problems.append(f"records loaded {loaded} != simulated {facts['simulated']}")
        return (loaded[0] if loaded else 0), problems
    s = capture_stats(err)
    if s is None:
        return 0, ["no stats line on stderr"]
    lines = (d / "out.trace").read_bytes().count(b"\n")

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(s["frames"] == facts["packets_written"], "frames != packets the pipe wrote")
    need(s["calls"] == s["replies"] + s["lost_replies"], "calls != replies + lost replies")
    need(lines == s["calls"], "text trace lines != calls")
    if workload == "campus-tcp-trace":
        need(s["calls"] == facts["simulated"] and s["replies"] == facts["simulated"],
             "clean capture lost records")
        for k in ("undecodable", "corrupt", "rpc_errors", "orphan_replies", "lost_replies",
                  "tcp_gaps", "dup_calls", "dup_replies"):
            need(s[k] == 0, f"clean capture counted {k}={s[k]}")
    else:
        need(facts["emitted"] == facts["presented"] - facts["dropped"] + facts["duplicated"],
             "injector conservation: emitted != presented - dropped + duplicated")
        need(s["frames"] == facts["emitted"], "frames != packets the injector emitted")
        need(s["corrupt"] + s["undecodable"] <= facts["corrupted"] + facts["truncated"],
             "more damaged frames counted than injected")
        need(s["dup_calls"] + s["dup_replies"] <= facts["duplicated"],
             "more duplicates counted than injected")
        need(s["calls"] <= facts["simulated"], "more calls than simulated records")
        need(any("lint:" in l for l in err.splitlines()), "no lint summary on stderr")
    return s["calls"], problems


def check_output(workload, d, facts):
    """The oracles that need the library, on the last CLI output. Returns (complete records, problems)."""
    if workload == "campus-tbin-stats":
        return facts["simulated"], []
    c = probe("check", workload, d)
    s = capture_stats((d / "err.txt").read_text()) or {}
    problems = []
    if c["tbin_failures"] != 0:
        problems.append("tbin output has decode failures")
    if c["tbin_records"] != s.get("calls"):
        problems.append("tbin records != calls")
    if c["complete"] > s.get("replies", -1):
        problems.append("more complete records than replies")
    if workload == "campus-tcp-trace":
        if c["complete"] != facts["simulated"]:
            problems.append("clean capture lost complete records")
        if not c["report_match"]:
            problems.append("report from the captured tbin differs from the simulated records'")
    return c["complete"], problems


# --- one benchmark run ---------------------------------------------------

class Run:
    def __init__(self, workload, seed, sizes, per_layer):
        self.workload = workload
        self.per_layer = per_layer
        self.seed = seed
        self.size = sizes[workload]
        self.dir = BUILD / "work" / workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def attempt(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                log(f"{self.workload}: FAIL {p}")

    def setup(self, repeats):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        times, facts = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            facts.append(probe("setup", self.workload, self.seed, self.size["users"],
                               self.size["units"], self.dir))
            times.append(time.perf_counter() - t0)
        f = facts[0]
        if any(x != f for x in facts) or f["simulated"] != f["pcap_records"]:
            raise BenchError(f"set-up is not deterministic: {facts}")
        self.facts = f
        return times

    def cli(self):
        d = self.dir
        out = d / ("out.txt" if self.workload == "campus-tbin-stats" else "stdout.txt")
        wall, cpu, rss, code = run_process(cli_argv(self.workload, d), out, d / "err.txt")
        records, problems = check_cli(self.workload, d, self.facts, code)
        self.attempt(problems)
        return wall, cpu, rss, records

    def check(self):
        try:
            complete, problems = check_output(self.workload, self.dir, self.facts)
        except BenchError as e:
            complete, problems = 0, [str(e)]
        self.attempt(problems)
        return complete / self.facts["simulated"]

    def timed(self, seconds):
        setup = self.setup(SETUP_REPEATS)
        self.cli()  # untimed first pass: the input is read warm from here on
        samples = []
        t_end = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() < t_end:
            samples.append(self.cli())
        delivered = self.check()
        walls = [s[0] for s in samples]
        log(tail_note(f"{self.workload} wall_s", walls, "s"))
        return {
            "wall_s": median(walls),
            "records_per_s": median([s[3] / s[0] for s in samples]),
            "cpu_s": median([s[1] for s in samples]),
            "peak_rss_mb": median([s[2] for s in samples]),
            "records_delivered_share": delivered,
            "setup_s": median(setup),
        }

    def traced(self, seconds):
        self.setup(1)
        self.cli()
        delivered = self.check()
        passes = []
        t_end = time.perf_counter() + seconds
        while len(passes) < MIN_SAMPLES or time.perf_counter() < t_end:
            try:
                m = probe("trace", self.workload, self.dir)
            except BenchError as e:
                self.attempt([str(e)])
                break
            self.attempt([] if m.pop("consistent") else
                      ["traced layers disagree with the capture engine or the reference report"])
            passes.append(m)
        if not passes:
            raise BenchError(f"{self.workload}: no traced pass completed")
        metrics = {k: median([p[k] for p in passes]) for k in passes[0]}
        metrics["records_lost_share"] = 1.0 - delivered
        stats_path = self.workload == "campus-tbin-stats"
        for name in self.per_layer:
            if name.startswith(STATS_LAYERS) != stats_path:
                metrics.setdefault(name, 0)
        log(tail_note(f"{self.workload} traced.wall_s", [p["traced.wall_s"] for p in passes], "s"))
        return metrics


def run_one(workload, seed, seconds, trace, spec, sizes):
    r = Run(workload, seed, sizes, spec["per_layer"])
    try:
        measured = r.traced(seconds) if trace else r.timed(seconds)
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)
    units = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [n for n in units if n not in measured]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {missing}")
    return {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {n: {"value": measured[n], "unit": u} for n, u in units.items()},
    }


def smoke(spec):
    """Every workload at tiny sizes, both modes: names, units and oracles."""
    ok = True
    for w in SIZES:
        for trace in (0, 1):
            res = run_one(w, 7, 1, trace, spec, SMOKE_SIZES)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            good = res["correct"] and res["failed"] == 0 and got == want and all(
                isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            ok = ok and good
            print(f"smoke {w} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"({res['attempted']} attempted, {res['failed']} failed)")
    print(json.dumps({"smoke": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *SIZES])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sets", type=int, default=1,
                    help="with --workload all: sets to run, alternating workload order")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and mode")
    args = ap.parse_args()
    try:
        spec = load_spec()
        build()
        if args.smoke:
            return smoke(spec)
        if args.workload != "all":
            res = run_one(args.workload, args.seed, args.seconds, args.trace, spec, SIZES)
            print(json.dumps(res))
            return 0
        ok = True
        order = list(SIZES)
        for i in range(args.sets):
            for w in (order if i % 2 == 0 else order[::-1]):
                res = run_one(w, args.seed, args.seconds, args.trace, spec, SIZES)
                ok = ok and res["correct"]
                print(json.dumps({"workload": w, "set": i, **res}), flush=True)
        return 0 if ok else 1
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"tracebench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
