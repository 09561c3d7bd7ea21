#!/usr/bin/env python3
"""End-to-end benchmark of `powergraph_cli sweep`, plus a traced replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run builds the CLI and
the replay tool (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; inputs, reports and traces go to
.bench_out/.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 times the real CLI process, untraced, and reports the end-to-end
metrics.  --trace 1 pairs each untraced CLI run with a pg_replay run that
replays the same cells through the library with a span around every layer
call, checks that the replay's report equals the CLI's byte for byte, and
reports the per-layer metrics.  See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".bench_out"

# A run stops starting new repetitions once this much time is spent, so it
# ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 140.0
STEP_TIMEOUT_S = 170.0
MIN_REPS = 3

ALL_ALGORITHMS = ["clique-mvc", "gr-mvc", "gr-mwvc", "matching", "mds", "mvc",
                  "mvc-rand", "mvc53", "mwvc", "naive-mds", "naive-mvc"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[str, ...]  # registry names; () for the file workload
    sizes: tuple[int, ...]
    seeds_per_run: int
    algorithms: tuple[str, ...]
    powers: tuple[int, ...]
    epsilons: tuple[float, ...] = ()
    weights: tuple[str, ...] = ()
    threads: int = 1
    congest_threads: int = 1
    certify: bool = False
    file_n: int = 0  # vertices drawn for the generated SNAP file

    @property
    def is_file(self) -> bool:
        return self.file_n > 0

    def seeds(self, seed: int) -> list[int]:
        """Disjoint consecutive sweep seeds for each benchmark seed."""
        first = 1 + seed * self.seeds_per_run
        return list(range(first, first + self.seeds_per_run))

    def sweep_flags(self, seed: int, file_scenario: str = "",
                    file_vertices: int = 0) -> list[str]:
        """The sweep's grid flags, shared by the CLI and pg_replay."""
        scenarios = [file_scenario] if self.is_file else list(self.scenarios)
        sizes = [file_vertices] if self.is_file else list(self.sizes)
        flags = ["--scenarios", ",".join(scenarios),
                 "--sizes", ",".join(map(str, sizes)),
                 "--seeds", ",".join(map(str, self.seeds(seed))),
                 "--algorithms", ",".join(self.algorithms),
                 "--powers", ",".join(map(str, self.powers)),
                 "--threads", str(self.threads),
                 "--congest-threads", str(self.congest_threads)]
        if self.epsilons:
            flags += ["--epsilons", ",".join(map(str, self.epsilons))]
        if self.weights:
            flags += ["--weights", ",".join(self.weights)]
        if self.certify:
            flags.append("--certify")
        return flags

    def tiny(self) -> "Workload":
        """A seconds-long instance of the same shape, for self-tests."""
        return dataclasses.replace(
            self, name=self.name + "-tiny",
            sizes=tuple(min(s, 200) for s in self.sizes),
            seeds_per_run=min(self.seeds_per_run, 2),
            file_n=min(self.file_n, 3000) if self.is_file else 0)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="congest-g2",
        why="CONGEST round engine on power-law G^2: nearly all time is in "
            "Algorithm::run, over tens of thousands of simulated rounds",
        scenarios=("ba", "chung-lu"), sizes=(700,), seeds_per_run=8,
        algorithms=("mds", "matching", "mvc", "mwvc", "mvc53"), powers=(2,),
        threads=1, congest_threads=1),
    Workload(
        name="implicit-file",
        why="imported disconnected power-law file, centralized G^2/G^3 solves: "
            "io, storage, classify, PowerView and baselines, zero rounds",
        scenarios=(), sizes=(), seeds_per_run=1,
        algorithms=("gr-mvc", "gr-mwvc"), powers=(2, 3),
        weights=("unit", "zipf"), certify=True, file_n=30000),
    Workload(
        name="conformance-grid",
        why="thousands of tiny certified cells with exact baselines: "
            "simulator rebinds, exact solvers and report rows dominate, all 11 "
            "algorithms",
        scenarios=("ba", "chung-lu", "gnp-sparse", "geo-torus", "grid", "tree",
                   "planted", "regular-4"),
        sizes=(16, 24), seeds_per_run=24, algorithms=tuple(ALL_ALGORITHMS),
        powers=(2, 4), epsilons=(0.25, 0.5), weights=("unit", "zipf"),
        threads=1, certify=True),
]}


class BenchError(Exception):
    """A failure that makes the run's result meaningless (exit 1)."""


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------

def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build() -> tuple[Path, Path]:
    """Configures once, then builds incrementally; returns (cli, replay)."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "powergraph_cli", "pg_replay"])
    with open(log, "w") as sink:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT,
                                  cwd=ROOT)
            if done.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    return bdir / "pg" / "powergraph_cli", bdir / "pg_replay"


def source_digest() -> str:
    """Content hash of the built sources (the checkout is not a git repo)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples", "perfbench"]:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit_id() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def stamp(workload: Workload, replay: Path) -> dict:
    """Where and how the numbers were taken; `valid` is false when the run
    asks for more threads than the machine has cores."""
    info = json.loads(run_checked([str(replay), "info"]).stdout)
    cores = os.cpu_count() or 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    requested = workload.threads * workload.congest_threads
    return {
        "workload": workload.name,
        "commit": commit_id(),
        "source_digest": source_digest(),
        "nproc": cores,
        "requested_threads": requested,
        "valid": requested <= cores,
        "build_type": info["build_type"],
        "compiler": info["compiler"],
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def run_checked(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=STEP_TIMEOUT_S, **kwargs)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done


@dataclasses.dataclass
class ProcessStats:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def timed(launcher: Path, cmd: list[str]) -> ProcessStats:
    """Runs cmd to completion under `pg_replay exec`, which reports the
    child's wall time, and its CPU time and peak RSS from wait4."""
    out_path = OUT_ROOT / "child.stdout"
    err_path = OUT_ROOT / "child.stderr"
    result_path = OUT_ROOT / "child.result.json"
    result_path.unlink(missing_ok=True)
    with open(out_path, "w") as out, open(err_path, "w") as err:
        # Own process group, so a timeout also stops the launcher's child.
        proc = subprocess.Popen([str(launcher), "exec", "--result",
                                 str(result_path), "--", *cmd], cwd=ROOT,
                                stdout=out, stderr=err, start_new_session=True)
        try:
            code = proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"timed out after {STEP_TIMEOUT_S} s: "
                             f"{' '.join(cmd)}")
    if code != 0:
        raise BenchError(f"pg_replay exec exited {code}: "
                         f"{err_path.read_text().strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    return ProcessStats(
        wall_s=result["wall_s"], cpu_s=result["cpu_s"],
        peak_rss_mb=result["peak_rss_mb"], returncode=result["returncode"],
        stdout=out_path.read_text(), stderr=err_path.read_text())


# ---------------------------------------------------------------------------
# Reports: parsing, the correctness gate, and end-to-end metrics
# ---------------------------------------------------------------------------

def parse_report(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        raise BenchError("empty report")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            raise BenchError(f"malformed report row: {line!r}")
        rows.append(dict(zip(header, fields)))
    return rows


def row_failure(row: dict) -> str:
    """Why a row fails the gate ('' when it passes): it must be ok and
    feasible, certified where the report has the column, and never better
    than an exact optimum."""
    if row["status"] != "ok":
        return f"status={row['status']}"
    if row["feasible"] != "1":
        return "infeasible"
    if row.get("certified", "yes") != "yes":
        return "not certified"
    if row["baseline"] == "exact":
        if int(row["solution_size"]) < int(row["baseline_size"]):
            return "smaller than the exact optimum"
        if row["exact"] == "1" and row["solution_size"] != row["baseline_size"]:
            return "claims exactness but misses the optimum"
    if row["weight_baseline"] == "exact" and \
            int(row["solution_weight"]) < int(row["baseline_weight"]):
        return "lighter than the exact weighted optimum"
    return ""


def fail_count(rows: list[dict]) -> int:
    return sum(1 for row in rows if row_failure(row))


def report_metrics(rows: list[dict]) -> dict[str, float]:
    """Deterministic metrics of one report."""
    ratios = [float(r["ratio"]) for r in rows if r["ratio"] != "-"]
    weighted = [float(r["ratio_weight"]) for r in rows
                if r["ratio_weight"] != "-"]
    return {
        "rows": len(rows),
        "fail_frac": fail_count(rows) / len(rows) if rows else 1.0,
        "rounds": sum(int(r["rounds"]) for r in rows),
        "messages": sum(int(r["messages"]) for r in rows),
        "total_bits": sum(int(r["total_bits"]) for r in rows),
        "ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ratio_weight_mean": statistics.fmean(weighted) if weighted else 0.0,
    }


def algorithm_registry(cli: Path) -> dict[str, tuple[str, bool, bool]]:
    """name -> (native-r, uses eps, uses weights), from `list-algorithms`."""
    table = run_checked([str(cli), "list-algorithms"]).stdout.splitlines()
    registry = {}
    for line in table[2:]:
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        registry[cols[0]] = (cols[2], cols[3] == "yes", cols[5] == "yes")
    return registry


def expected_cells(workload: Workload, registry: dict) -> int:
    """The grid size the sweep must report (one row per expressible cell)."""
    per_group = 0
    for r in workload.powers:
        for name in workload.algorithms:
            native, uses_eps, uses_weights = registry[name]
            if native == "any" and r < 2:
                continue
            if native != "any" and r % int(native) != 0:
                continue
            per_group += ((len(workload.epsilons) or 1) if uses_eps else 1) * \
                         ((len(workload.weights) or 1) if uses_weights else 1)
    groups = (1 if workload.is_file else
              len(workload.scenarios) * len(workload.sizes)) * \
        workload.seeds_per_run
    return per_group * groups


def check_report(rows: list[dict], expected: int) -> list[str]:
    problems = []
    if [int(r["cell_index"]) for r in rows] != list(range(expected)):
        problems.append(f"report has {len(rows)} rows, expected cells "
                        f"0..{expected - 1}")
    for row in rows:
        why = row_failure(row)
        if why:
            problems.append(f"cell {row['cell_index']} ({row['scenario']} "
                            f"{row['algorithm']} r={row['r']}): {why}")
    return problems


REPLAY_COLUMNS = ("solution_size", "rounds", "messages", "total_bits")


def compare_replay(cli_rows: list[dict], replay_rows: list[dict]) -> list[str]:
    """Row-by-row equality of the columns the replay must reproduce."""
    if len(cli_rows) != len(replay_rows):
        return [f"replay has {len(replay_rows)} rows, CLI {len(cli_rows)}"]
    problems = []
    for a, b in zip(cli_rows, replay_rows):
        for col in REPLAY_COLUMNS:
            if a[col] != b[col]:
                problems.append(f"cell {a['cell_index']}: {col} CLI {a[col]} "
                                f"replay {b[col]}")
    return problems


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Prepared:
    flags: list[str]
    import_text: str  # SNAP file the file workload imports ('' otherwise)
    out: Path


def prepare(workload: Workload, seed: int, cli: Path, replay: Path) -> Prepared:
    """Generates the run's inputs from the seed; the CLI only sees them."""
    out = OUT_ROOT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    if not workload.is_file:
        return Prepared(workload.sweep_flags(seed), "", out)
    text = out / "graph.txt"
    pgcsr = out / "graph.pgcsr"
    gen = json.loads(run_checked(
        [str(replay), "gen", "--n", str(workload.file_n), "--seed", str(seed),
         "--out", str(text.relative_to(ROOT))]).stdout)
    run_checked([str(cli), "import", str(text.relative_to(ROOT)),
                 str(pgcsr.relative_to(ROOT))])
    flags = workload.sweep_flags(seed, "file:" + str(pgcsr.relative_to(ROOT)),
                                 gen["vertices"])
    return Prepared(flags, str(text.relative_to(ROOT)), out)


def cli_sweep(cli: Path, replay: Path, prep: Prepared,
              report: Path) -> ProcessStats:
    stats = timed(replay, [str(cli), "sweep", *prep.flags,
                   "--csv", str(report.relative_to(ROOT))])
    if stats.returncode not in (0, 1):  # 1 = some row not ok; gated below
        raise BenchError(f"powergraph_cli sweep exited {stats.returncode}: "
                         f"{stats.stderr.strip()[-2000:]}")
    return stats


def measure_setup(replay: Path, prep: Prepared) -> float:
    cmd = [str(replay), "setup", *prep.flags]
    if prep.import_text:
        cmd += ["--import", prep.import_text]
    return json.loads(run_checked(cmd).stdout)["setup_s"]


END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ratio_mean": "ratio",
                    "ratio_weight_mean": "ratio"}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, seed: int, seconds: float, cli: Path,
               replay: Path, prep: Prepared, expected: int) -> dict:
    setup_s = measure_setup(replay, prep)
    started = time.perf_counter()
    reps: list[ProcessStats] = []
    problems: list[str] = []
    first_digest = None
    attempted = failed = 0
    rows: list[dict] = []
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        if reps and time.perf_counter() - started + reps[-1].wall_s > \
                RUN_DEADLINE_S:
            break
        report = prep.out / "report.csv"
        stats = cli_sweep(cli, replay, prep, report)
        data = report.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        rows = parse_report(data.decode())
        attempted += len(rows)
        failed += fail_count(rows)
        if first_digest is None:
            first_digest = digest
            problems += check_report(rows, expected)
        elif digest != first_digest:
            problems.append(f"repetition {len(reps) + 1} produced a different "
                            "report than repetition 1 for the same seed")
        reps.append(stats)
    det = report_metrics(rows)
    values = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "ratio_mean": det["ratio_mean"],
        "ratio_weight_mean": det["ratio_weight_mean"],
    }
    metrics = {name: metric(v, END_TO_END_UNITS[name])
               for name, v in values.items()}
    for p in problems[:20]:
        print("FAIL", p, file=sys.stderr)
    print(f"# {workload.name} seed {seed}: {len(reps)} CLI runs, wall_s "
          f"{[round(r.wall_s, 4) for r in reps]}, rounds {det['rounds']}, "
          f"messages {det['messages']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_metrics(summary: dict, cli_wall_s: float, replay_wall_s: float,
                  det: dict) -> dict[str, float]:
    """Per-layer numbers of one traced replay, keyed as in BENCHMARK.json."""
    self_s = summary["self_s"]
    counts = summary["counts"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    import_s = s("graph.import") + s("graph.write_pgcsr")
    total_s = replay_wall_s - import_s  # the import is the CLI's own process
    congest_s = counts["congest_algorithm_s"]
    return {
        "core.algorithm_s": s("core.algorithm"),
        "core.us_per_round": 1e6 * congest_s / det["rounds"]
        if det["rounds"] else 0.0,
        "core.ns_per_message": 1e9 * congest_s / det["messages"]
        if det["messages"] else 0.0,
        "congest.rounds": det["rounds"],
        "congest.messages": det["messages"],
        "congest.total_bits": det["total_bits"],
        "congest.bind_s": s("congest.bind"),
        "congest.binds": counts["binds"],
        "congest.buffer_mb": counts["max_buffer_bytes"] / 2**20,
        "graph.build_s": s("graph.build"),
        "graph.import_s": import_s,
        "graph.import_edges_per_s": counts["import_edges"] / s("graph.import")
        if s("graph.import") else 0.0,
        "graph.map_s": s("graph.map"),
        "graph.classify_s": s("graph.classify"),
        "graph.power_s": s("graph.power"),
        "graph.power_edges": counts["power_edges"],
        "graph.target_edges_s": s("graph.target_edges"),
        "graph.feasibility_s": s("graph.feasibility"),
        "solvers.baseline_s": s("solvers.baseline"),
        "solvers.exact_calls": counts["exact_calls"],
        "solvers.greedy_calls": counts["greedy_calls"],
        "scenario.weights_s": s("scenario.weights"),
        "scenario.certify_s": s("scenario.certify"),
        "scenario.report_s": s("scenario.report"),
        "scenario.report_bytes": counts["report_bytes"],
        "scenario.fail_frac": det["fail_frac"],
        "trace.cli_wall_s": cli_wall_s,
        "trace.residual_s": cli_wall_s - summary["sweep_layers_s"],
        "trace.total_s": total_s,
        "trace.overhead_frac": total_s / cli_wall_s - 1.0,
    }


LAYER_UNITS = {
    "core.us_per_round": "us", "core.ns_per_message": "ns",
    "congest.rounds": "count", "congest.messages": "count",
    "congest.total_bits": "count", "congest.binds": "count",
    "congest.buffer_mb": "MB", "graph.import_edges_per_s": "1/s",
    "graph.power_edges": "count", "solvers.exact_calls": "count",
    "solvers.greedy_calls": "count", "scenario.report_bytes": "bytes",
    "scenario.fail_frac": "ratio", "trace.overhead_frac": "ratio",
}


def traced(workload: Workload, seed: int, seconds: float, cli: Path,
           replay: Path, prep: Prepared, expected: int) -> dict:
    started = time.perf_counter()
    samples: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    last_pair_s = 0.0
    while not samples or time.perf_counter() - started < seconds:
        if samples and time.perf_counter() - started + last_pair_s > \
                RUN_DEADLINE_S:
            break
        pair_started = time.perf_counter()
        cli_report = prep.out / "report.csv"
        replay_report = prep.out / "replay.csv"
        trace_file = prep.out / "trace.json"
        stats = cli_sweep(cli, replay, prep, cli_report)
        cli_text = cli_report.read_text()
        cli_rows = parse_report(cli_text)
        attempted += len(cli_rows)
        failed += fail_count(cli_rows)
        cmd = [str(replay), "replay", *prep.flags,
               "--csv", str(replay_report.relative_to(ROOT)),
               "--trace", str(trace_file.relative_to(ROOT))]
        if prep.import_text:
            cmd += ["--import", prep.import_text]
        rstats = timed(replay, cmd)
        if rstats.returncode != 0:
            raise BenchError(f"pg_replay exited {rstats.returncode}: "
                             f"{rstats.stderr.strip()[-2000:]}")
        summary = json.loads(rstats.stdout.strip().splitlines()[-1])
        replay_text = replay_report.read_text()
        if not samples:
            problems += check_report(cli_rows, expected)
        problems += compare_replay(cli_rows, parse_report(replay_text))
        if replay_text != cli_text:
            problems.append("replay report differs from the CLI report")
        det = report_metrics(cli_rows)
        samples.append(layer_metrics(summary, stats.wall_s, rstats.wall_s, det))
        last_pair_s = time.perf_counter() - pair_started
    metrics = {name: metric(statistics.median(s[name] for s in samples),
                            LAYER_UNITS.get(name, "s"))
               for name in samples[0]}
    for p in problems[:20]:
        print("FAIL", p, file=sys.stderr)
    wall = metrics["trace.cli_wall_s"]["value"]
    print(f"# {workload.name} seed {seed}: {len(samples)} traced pairs; "
          f"layer self time as a share of CLI wall_s {wall:.3f} s:",
          file=sys.stderr)
    for name, m in sorted(metrics.items(), key=lambda kv: -kv[1]["value"]):
        if m["unit"] == "s" and name.endswith("_s") and \
                not name.startswith("trace."):
            print(f"#   {name:24s} {m['value']:10.4f} s "
                  f"{100 * m['value'] / wall:6.1f}%", file=sys.stderr)
    print(f"#   {'trace.residual_s':24s} "
          f"{metrics['trace.residual_s']['value']:10.4f} s "
          f"{100 * metrics['trace.residual_s']['value'] / wall:6.1f}%",
          file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def check_checkout() -> None:
    needed = ["CMakeLists.txt", "src", "examples/powergraph_cli.cpp"]
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        raise BenchError("not a source checkout (missing "
                         f"{', '.join(missing)}); run from the repository root")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    try:
        check_checkout()
        OUT_ROOT.mkdir(exist_ok=True)
        cli, replay = build()
        context = stamp(workload, replay)
        if not context["valid"]:
            print(f"WARNING: invalid run: {context['requested_threads']} "
                  f"threads requested on {context['nproc']} cores",
                  file=sys.stderr)
        print("# context " + json.dumps(context))
        expected = expected_cells(workload, algorithm_registry(cli))
        prep = prepare(workload, args.seed, cli, replay)
        run = traced if args.trace else end_to_end
        result = run(workload, args.seed, args.seconds, cli, replay, prep,
                     expected)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
