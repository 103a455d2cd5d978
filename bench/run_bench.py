"""End-to-end and per-layer benchmark of the diachron command line.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's corpus with `diachron syngen --seed N`, prepares it (the
untimed set-up, repeated SETUP_REPEATS times), then runs the workload's
timed CLI calls (`python -m diachron.cli` with PYTHONPATH=src) as a
closed loop of one client and one child process at a time, for at least
MIN_ITERATIONS iterations and then until the next one would overrun S
seconds. Between calls the benchmark times fixed work of its own
(bench/hostspeed.py): before a call if the last sample is older than
SAMPLE_EVERY_S, after a call that took longer, and at the end of each
iteration and set-up. Each call's wall and CPU time is divided by the
mean of the host slowdowns sampled on either side of it, so the times
read as seconds on a host of constant speed. Every timed call is checked:
exit code, artifacts (re)written, artifact-directory hash equal to the
first run of the same source tree, workload and seed, and planted
structure recovered. With --trace 1 each unit of the loop is a pair of
one untraced iteration and one run through bench/trace_launch.py, the
two in alternating order, and per-layer numbers are reported instead.
Metric names, units and workload descriptions come from BENCHMARK.json
at the checkout root.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics. The full
record (environment, samples, checks) goes to .bench_work/results/.
Nothing the benchmark measures is written into the artifact directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import benchlib
import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CONTRACT = os.path.join(ROOT, "BENCHMARK.json")
LAUNCHER = os.path.join(HERE, "trace_launch.py")

SETUP_REPEATS = 3  # rerun-sweep's set-up takes about 6 s, so each repeat lengthens a run
MIN_ITERATIONS = 2  # a traced run needs both orders
SAMPLE_EVERY_S = 3.0  # host speed is sampled before a call if older than
# this, and after a call that took longer
CALL_TIMEOUT_S = 100.0  # a hung call is killed and counted as failed
RUN_BUDGET_S = 120.0  # stop starting iterations past this, whatever --seconds says

FULL_SET = (
    "corpus.jsonl",
    "load_report.json",
    "terms.csv",
    "clusters_P1.json",
    "clusters_P2.json",
    "map_P1.json",
    "map_P1.svg",
    "map_P2.json",
    "map_P2.svg",
    "linkage.json",
    "crosstab.csv",
    "run_manifest.json",
)
# files each timed command must (re)write
WRITES = {
    "run": FULL_SET,
    "map": ("map_P1.json", "map_P1.svg", "map_P2.json", "map_P2.svg"),
    "link": ("linkage.json", "crosstab.csv"),
    "report": ("map_P1.svg", "map_P2.svg", "run_manifest.json"),
}
# after these commands the directory must hold the full artifact set
COMPLETES = ("run", "report")

SWEEP = ((0.1, 0.2), (0.2, 0.3), (0.3, 0.4))
P1_YEARS = (1996, 1998)
P2_YEARS = (2001, 2003)
# planted-structure floors that every completed artifact set must reach
PURITY_FLOOR = 0.5
AGREEMENT_FLOOR = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: tuple  # syngen source arguments
    restarts: int
    max_iters: int  # with tol 0, every restart runs exactly this many
    setup_stages: tuple = ()
    calls: tuple = (("run", "config.json"),)  # (command, config file)
    configs: dict = field(default_factory=lambda: {"config.json": (0.2, 0.3)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cluster-heavy",
            corpus=("--preset", "large-scale"),
            restarts=20,
            max_iters=25,
        ),
        Workload(
            name="rerun-sweep",
            corpus=("--preset", "large-scale"),
            restarts=10,
            max_iters=10,
            setup_stages=("ingest", "terms", "cluster"),
            calls=tuple(
                (command, f"sweep{i}.json")
                for i in range(len(SWEEP))
                for command in ("map", "link", "report")
            ),
            configs={
                "config.json": (0.2, 0.3),
                **{f"sweep{i}.json": point for i, point in enumerate(SWEEP)},
            },
        ),
    )
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Call:
    command: str
    code: int
    wall: float
    cpu: float
    rss_mb: float
    slowdown: float | None = None  # host slowdown around the call (hostspeed)
    spans: dict | None = None
    problems: list = field(default_factory=list)


class Runner:
    """Starts one diachron child at a time and reaps it with its rusage."""

    def __init__(self, wdir: str, host: hostspeed.HostSpeed):
        self.wdir = wdir
        self.inp = os.path.join(wdir, "input")
        self.out = os.path.join(wdir, "out")
        self.prepared = os.path.join(wdir, "prepared")
        self.spans_dir = os.path.join(wdir, "spans")
        self.log = os.path.join(wdir, "calls.log")
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
        self.n_spans = 0
        self.host = host
        self.last_sample = None  # (time taken, host slowdown)
        self.pending = []  # calls made since the last sample

    def sample_host(self) -> None:
        """Time the fixed work; calls since the last sample get the mean of
        that sample and this one as their slowdown."""
        slowdown = self.host.sample()
        for call in self.pending:
            call.slowdown = (self.last_sample[1] + slowdown) / 2
        self.pending = []
        self.last_sample = (clock(), slowdown)

    def settle(self) -> None:
        """Give every call made so far its slowdown."""
        if self.pending:
            self.sample_host()

    def call(self, argv: list[str], traced: bool = False) -> Call:
        """Run `diachron <argv>`, directly or through the traced launcher."""
        if self.last_sample is None or clock() - self.last_sample[0] > SAMPLE_EVERY_S:
            self.sample_host()
        spans_path = None
        if traced:
            self.n_spans += 1
            spans_path = os.path.join(self.spans_dir, f"{self.n_spans:05d}.json")
            t0 = clock()
            cmd = [sys.executable, LAUNCHER, spans_path, repr(t0), "--", *argv]
        else:
            t0 = clock()
            cmd = [sys.executable, "-m", "diachron.cli", *argv]
        call = self.spawn(cmd, argv[0], t0)
        self.pending.append(call)
        if call.wall > SAMPLE_EVERY_S:
            self.sample_host()  # bracket a long call tightly
        if spans_path and os.path.exists(spans_path):
            call.spans = benchlib.read_json(spans_path)
        return call

    def spawn(self, cmd: list[str], command: str, t0: float | None = None) -> Call:
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(cmd[1:]) + "\n").encode())
            log.flush()
            if t0 is None:
                t0 = clock()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = clock() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Call(
            command=command,
            code=code,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def stage(self, command: str, config: str, traced: bool = False) -> Call:
        return self.call(
            [command, "--config", os.path.join(self.inp, config), "--out", self.out],
            traced,
        )


def write_configs(workload: Workload, inp: str, seed: int) -> None:
    for name, (tau, rho) in workload.configs.items():
        config = {
            "input": "corpus.jsonl",
            "periods": {"p1": list(P1_YEARS), "p2": list(P2_YEARS)},
            "cluster": {
                "k": 20,
                "restarts": workload.restarts,
                "max_iters": workload.max_iters,
                # no early stop, so the work does not depend on the seed
                "tol": 0.0,
            },
            "seed": seed,
            "tau": tau,
            "rho": rho,
        }
        with open(os.path.join(inp, name), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)


def setup(workload: Workload, runner: Runner, seed: int, traced: bool):
    """Generate and prepare the inputs SETUP_REPEATS times; returns timings."""
    times, syngen_spans = [], []
    for _ in range(SETUP_REPEATS):
        for path in (runner.inp, runner.out):
            shutil.rmtree(path, ignore_errors=True)
        os.makedirs(runner.out)
        calls = [
            runner.call(
                ["syngen", *workload.corpus, "--seed", str(seed), "--out", runner.inp],
                traced,
            )
        ]
        write_configs(workload, runner.inp, seed)
        for stage in workload.setup_stages:
            calls.append(runner.stage(stage, "config.json"))
        runner.settle()
        for c in calls:
            if c.code != 0:
                raise SystemExit(
                    f"set-up call {c.command} failed with exit {c.code}; see {runner.log}"
                )
        times.append(sum(c.wall / c.slowdown for c in calls))
        if calls[0].spans is not None:
            syngen_spans.append(calls[0].spans)
    # every iteration starts from this state, so the directory after its
    # i-th call is comparable with the reference for index i
    shutil.copytree(runner.out, runner.prepared)
    return times, syngen_spans


def _stat(path: str):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


class Checker:
    """Output checks of every timed call, against a persisted reference."""

    def __init__(self, workload: Workload, seed: int, out: str, truth: dict):
        self.out = out
        self.truth = truth
        self.refs_path = os.path.join(WORK, "refs.json")
        self.refs = benchlib.read_json(self.refs_path) if os.path.exists(self.refs_path) else {}
        # the reference belongs to this source tree, benchmark and checkout
        # path (run_manifest.json records the absolute input path)
        source = benchlib.hash_tree(SRC) + benchlib.hash_tree(HERE, (".py", "_spec.json"))
        self.prefix = f"{ROOT}/{source}/{workload.name}/{seed}/"
        self.quality = None

    def check(self, call: Call, index: int, before: dict) -> None:
        if call.code != 0:
            call.problems.append(f"exit code {call.code}")
            return
        for name in WRITES.get(call.command, ()):
            now = _stat(os.path.join(self.out, name))
            if now is None:
                call.problems.append(f"missing {name}")
            elif now == before.get(name):
                call.problems.append(f"{name} not rewritten")
        if call.command in COMPLETES:
            absent = [n for n in FULL_SET if not os.path.exists(os.path.join(self.out, n))]
            if absent:
                call.problems.append(f"incomplete artifact set, missing {absent}")
                return
            quality = self.measure_quality()
            if quality["purity"] < PURITY_FLOOR:
                call.problems.append(f"purity {quality['purity']:.4f} < {PURITY_FLOOR}")
            if quality["term_agreement"] < AGREEMENT_FLOOR:
                call.problems.append(
                    f"term_agreement {quality['term_agreement']:.4f} < {AGREEMENT_FLOOR}"
                )
            if self.quality is None:
                self.quality = quality
        digest = benchlib.hash_dir(self.out)
        key = self.prefix + str(index)
        expected = self.refs.setdefault(key, digest)
        if digest != expected:
            call.problems.append("artifact directory differs from the reference run")

    def measure_quality(self) -> dict:
        clusters = [
            benchlib.read_json(os.path.join(self.out, f"clusters_{p}.json"))
            for p in ("P1", "P2")
        ]
        terms = benchlib.read_term_categories(os.path.join(self.out, "terms.csv"))
        return {
            "objective_j": sum(c["objective_trace"][-1] for c in clusters),
            "purity": benchlib.purity(self.truth, clusters),
            "term_agreement": benchlib.term_agreement(self.truth, terms),
            "iters": {c["period_id"]: len(c["objective_trace"]) for c in clusters},
            "axes_mb": max(len(c["clusters"]) for c in clusters)
            * len(terms)
            * 8
            / 1e6,
        }

    def save(self) -> None:
        tmp = self.refs_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.refs, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.refs_path)


def bytes_written(before: dict, out: str) -> int:
    total = 0
    for name in os.listdir(out):
        now = _stat(os.path.join(out, name))
        if now is not None and now != before.get(name):
            total += now[2]
    return total


def snapshot(out: str) -> dict:
    return {name: _stat(os.path.join(out, name)) for name in os.listdir(out)}


def iteration(workload, runner, checker, traced):
    """One pass over the workload's timed calls; returns (calls, bytes)."""
    calls = []
    written = 0
    shutil.rmtree(runner.out)
    shutil.copytree(runner.prepared, runner.out)
    for i, (command, config) in enumerate(workload.calls):
        before = snapshot(runner.out)
        call = runner.stage(command, config, traced)
        checker.check(call, i, before)
        written += bytes_written(before, runner.out)
        calls.append(call)
    runner.settle()
    return calls, written


# --- per-layer metrics from spans -------------------------------------------

SPAN_TOTALS = (
    ("pipeline.ingest_s", "stage.ingest"),
    ("pipeline.terms_s", "stage.terms"),
    ("pipeline.cluster_s", "stage.cluster"),
    ("pipeline.map_s", "stage.map"),
    ("pipeline.link_s", "stage.link"),
    ("pipeline.report_s", "stage.report"),
    ("corpus.load_s", "corpus.load"),
    ("corpus.vocab_s", "corpus.vocab"),
    ("corpus.save_s", "corpus.save"),
    ("vectorize.build_matrix_s", "vectorize.build_matrix"),
    ("diffusion.classify_s", "diffusion.classify"),
    ("diffusion.csv_write_s", "diffusion.csv_write"),
    ("diffusion.csv_read_s", "diffusion.csv_read"),
    ("cluster.summarize_s", "cluster.summarize"),
    ("mapping.build_map_s", "mapping.build_map"),
    ("mapping.pca_s", "mapping.pca"),
    ("mapping.edges_s", "mapping.edges"),
    ("mapping.svg_s", "mapping.svg"),
    ("diachrony.link_s", "diachrony.link"),
    ("diachrony.crosstab_s", "diachrony.crosstab"),
    ("artifacts.write_s", "artifacts.write"),
    ("artifacts.read_s", "artifacts.read"),
)


def layer_metrics(traces: list[dict]) -> dict:
    """Span-derived metrics of one traced iteration (a list of span files)."""
    missing = {name for t in traces for name in t["missing"]}

    def guard(prefix, value):
        return None if any(m.startswith(prefix) for m in missing) else value

    spans_of = [t["spans"] for t in traces]
    out = {}
    for metric, prefix in SPAN_TOTALS:
        out[metric] = guard(prefix, sum(benchlib.outermost_total(s, prefix) for s in spans_of))

    def named(name, label=None):
        return [
            sp for s in spans_of for sp in s
            if sp["name"] == name and (label is None or sp.get("label") == label)
        ]

    def counted(name):
        return sum(sp.get("count") or 0 for sp in named(name))

    starts = []
    for t in traces:
        config_spans = [sp for sp in t["spans"] if sp["name"] == "cli.config"]
        if config_spans:
            starts.append(config_spans[0]["end"] - t["t_spawn"])
    out["cli.start_s"] = guard("cli.config", benchlib.median(starts))
    out["corpus.load_calls"] = guard("corpus.load", len(named("corpus.load")))
    load_s = out["corpus.load_s"]
    out["corpus.records_per_s"] = guard(
        "corpus.load", counted("corpus.load") / load_s if load_s else 0.0
    )
    out["vectorize.nnz"] = guard("vectorize.build_matrix", counted("vectorize.build_matrix"))
    out["diffusion.terms"] = guard("diffusion.classify", counted("diffusion.classify"))
    for period in ("P1", "P2"):
        out[f"cluster.fit_s.{period}"] = guard(
            "cluster.fit",
            sum((sp["end"] - sp["start"] for sp in named("cluster.fit", period)), 0.0),
        )
    out["artifacts.read_clusters_calls"] = guard(
        "artifacts.read.clusters", len(named("artifacts.read.clusters"))
    )
    return out


def median_metrics(rows: list[dict]) -> dict:
    keys = rows[0].keys() if rows else ()
    out = {}
    for key in keys:
        values = [r[key] for r in rows if r[key] is not None]
        out[key] = benchlib.median(values) if len(values) == len(rows) else None
    return out


def probe_init(runner: Runner):
    result_path = os.path.join(runner.spans_dir, "init_probe.json")
    call = runner.spawn(
        [
            sys.executable,
            LAUNCHER,
            "--probe-init",
            os.path.join(runner.inp, "config.json"),
            runner.out,
            result_path,
        ],
        "probe-init",
    )
    if call.code != 0 or not os.path.exists(result_path):
        return None
    return benchlib.read_json(result_path)["init_s"]


# --- environment --------------------------------------------------------------

ENV_PROBE = r"""
import json, platform, sys
import numpy, scipy
try:
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    # drop the build machine's directories; name, version and config remain
    blas = {lib: {k: v for k, v in info.items() if "directory" not in k}
            for lib, info in deps.items()}
except TypeError:
    blas = None
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def environment(seed: int) -> dict:
    env = {"seed": seed, "nproc": os.cpu_count()}
    if hasattr(os, "sched_getaffinity"):
        env["cpus_usable"] = len(os.sched_getaffinity(0))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        env["cpu_model"] = None
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], capture_output=True, text=True, timeout=60
    )
    env.update(json.loads(probe.stdout) if probe.returncode == 0 else {})
    env["git_commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60
        )
        env["git_commit"] = rev.stdout.strip() if rev.returncode == 0 else None
    env["src_sha256"] = benchlib.hash_tree(SRC)
    return env


# --- main ---------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, traced: bool, host) -> dict:
    contract = benchlib.read_json(CONTRACT)
    wdir = os.path.join(WORK, workload.name)
    shutil.rmtree(wdir, ignore_errors=True)
    runner = Runner(wdir, host)
    os.makedirs(runner.spans_dir)
    started = clock()

    setup_times, syngen_spans = setup(workload, runner, seed, traced)
    truth = benchlib.read_json(os.path.join(runner.inp, "truth.json"))
    checker = Checker(workload, seed, runner.out, truth)

    plain, traced_iters = [], []  # (calls, bytes written) per iteration
    loop_start = clock()
    while True:
        t0 = clock()
        if traced:
            # a unit is an untraced and a traced iteration; which runs first
            # alternates, so run order cancels out of the overhead median
            first = len(plain) % 2 == 1
            pair = {s: iteration(workload, runner, checker, s) for s in (first, not first)}
            plain.append(pair[False])
            traced_iters.append(pair[True])
        else:
            plain.append(iteration(workload, runner, checker, traced=False))
        unit = clock() - t0
        if clock() - started + unit > RUN_BUDGET_S:
            break
        if len(plain) >= MIN_ITERATIONS and clock() - loop_start + unit > seconds:
            break
    checker.save()

    calls = [c for calls, _ in plain + traced_iters for c in calls]
    failed = [c for c in calls if c.problems]
    quality = checker.quality or {}
    walls = [sum(c.wall / c.slowdown for c in cs) for cs, _ in plain]
    cpus = [sum(c.cpu / c.slowdown for c in cs) for cs, _ in plain]
    result = {
        "workload": workload.name,
        "why": next(
            (w["why"] for w in contract["workloads"] if w["name"] == workload.name), None
        ),
        "trace": int(traced),
        "attempted": len(calls),
        "failed": len(failed),
        "problems": [f"{c.command}: {p}" for c in failed for p in c.problems],
        "samples": {
            "iterations": len(plain),
            "calls_per_iteration": len(workload.calls),
            "run_s": walls,
            "cpu_s": cpus,
            "setup_s": setup_times,
            "measured_run_s": [sum(c.wall for c in cs) for cs, _ in plain],
            "measured_cpu_s": [sum(c.cpu for c in cs) for cs, _ in plain],
            "slowdown": [[c.slowdown for c in cs] for cs, _ in plain],
        },
    }
    if not traced:
        metrics = {
            "run_s": benchlib.median(walls),
            "setup_s": benchlib.median(setup_times),
            "cpu_s": benchlib.median(cpus),
            "peak_rss_mb": max(c.rss_mb for c in calls),
            "objective_j": quality.get("objective_j"),
            "purity": quality.get("purity"),
            "term_agreement": quality.get("term_agreement"),
            "success_rate": 1.0 - len(failed) / len(calls),
        }
        result["error_rate"] = len(failed) / len(calls)
    else:
        rows = []
        for cs, written in traced_iters:
            row = layer_metrics([c.spans for c in cs if c.spans is not None])
            row["artifacts.bytes_written"] = written
            rows.append(row)
        metrics = median_metrics(rows)
        metrics["syngen.generate_s"] = benchlib.median(
            benchlib.outermost_total(t["spans"], "syngen.generate") for t in syngen_spans
        )
        if any("syngen.generate" in t["missing"] for t in syngen_spans):
            metrics["syngen.generate_s"] = None
        metrics["cluster.iters.P1"] = quality.get("iters", {}).get("P1")
        metrics["cluster.iters.P2"] = quality.get("iters", {}).get("P2")
        metrics["cluster.axes_mb"] = quality.get("axes_mb")
        metrics["cluster.init_s"] = probe_init(runner)
        traced_walls = [sum(c.wall / c.slowdown for c in cs) for cs, _ in traced_iters]
        metrics["trace.overhead_s"] = benchlib.median(
            t - p for t, p in zip(traced_walls, walls)
        )
        result["samples"]["traced_run_s"] = traced_walls
        result["self_time_s"] = benchlib.self_time_table(
            c.spans["spans"] for c in traced_iters[0][0] if c.spans is not None
        )
    listed = contract["per_layer" if traced else "end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in listed
    }
    result["environment"] = environment(seed)
    result["correct"] = not failed and (
        traced or all(metrics[k] is not None for k in ("objective_j", "purity", "term_agreement"))
    )
    shutil.rmtree(wdir, ignore_errors=True)
    return result


def report(result: dict) -> None:
    """Human-readable lines; the contract line is printed after these."""
    samples = result["samples"]
    print(
        f"workload {result['workload']} (trace={result['trace']}): "
        f"{samples['iterations']} iteration(s) of {samples['calls_per_iteration']} call(s), "
        f"{result['attempted']} timed calls, {result['failed']} failed"
    )
    counts = {
        "run_s": len(samples["run_s"]),
        "cpu_s": len(samples["run_s"]),
        "setup_s": len(samples["setup_s"]),
    }
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        n = f" (median of {counts[name]})" if name in counts else ""
        print(f"  {name:32s} {shown:>14s} {metric['unit']}{n}")
    if "error_rate" in result:
        print(f"  {'error_rate':32s} {result['error_rate']:>14.6g} share")
    for name, own in result.get("self_time_s", [])[:8]:
        print(f"  self {name:27s} {own:>14.6g} s")
    for problem in result["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "diachron", "cli.py")):
        print(f"bench: no diachron source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    host = hostspeed.HostSpeed()
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), host)
    finally:
        host.close()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    report(result)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
