"""The palg benchmark.

    python3 perfbench/run.py --workload {suite,analyze,enumerate} \
        [--seed N] [--seconds S] [--trace 0|1]

A closed loop: one client issues one palg CLI command at a time, each in a
fresh interpreter (palg's lattice_profile cache is process-global, so a warm
process would time caches no user sees), each on one thread.  Workloads:

* suite: ``palg check`` over the acceptance corpus (175 algebras, 4,614
  results): many tiny algebras with heavily repeated lattice discovery.
* analyze: ``palg analyze`` on dim-5 GF(3) direct sums, one distinct tensor
  per call: subspace-lattice enumeration at the default budget ceiling.
* enumerate: ``palg enumerate 2 5``: validation of 390,625 candidate
  tensors and the write side of the corpus format.

With ``--trace 0`` a run runs the workload's commands once (one pass) and
times set-up SETUP_REPEATS times around it (set-up is a fresh interpreter
importing palg and writing the inputs), reporting the median set-up.  Every
time is scaled to a reference machine speed measured on the same CPU while
the command runs (see spawn).  The
pass count is fixed, not fitted into ``--seconds``, so both sides of a
comparison always measure the same number of passes; ``--seconds`` is
accepted for the calling convention (one pass took 15 to 29 s, scaled, at the seed
commit).  With ``--trace 1`` it runs the commands once untraced
and once under perfbench/tracer.py and reports per-layer numbers.  Every
output is checked against digests recorded at the seed commit
(reference.json) and by independent checks; the last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

WORKLOADS = ("suite", "analyze", "enumerate")
# Set-up is timed SETUP_REPEATS times per run, half before the pass and half
# after it, SETUP_PAUSE_S apart: on a shared host, set-ups run back to back
# are slow or fast together, and spreading them over the run averages that out.
SETUP_REPEATS = 12
SETUP_PAUSE_S = 0.2
SUITE_SUMMARY = {"pass": 4297, "fail": 0, "not-applicable": 317, "vacuous": 441}
ENUMERATE_COUNT = 769


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def item_digest(item) -> str:
    return short_digest(json.dumps(item, sort_keys=True).encode())


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# Machine-speed calibration.  On a shared host the speed of a CPU drifts by
# 20-40% within seconds and minutes alike, in CPU time as much as in wall
# time, so a raw timing measures the neighbours.  The benchmark therefore
# runs on one CPU (see pin_cpu) and, every CAL_SLICE_S while a child runs,
# stops the child, times one fixed burst of pure-Python work on the same
# CPU and resumes it; one more burst runs just before each spawn and one just
# after each exit, so even a short child has two.  The mean burst time tracks the speed the child got, and a child's time is reported
# scaled to a reference speed: seconds x CAL_REF_S / mean burst seconds.
# The burst is the benchmark's own code and never changes, so a change to
# palg moves the scaled time and leaves the bursts alone.
CAL_SLICE_S = 0.1
CAL_ITERATIONS = 4000
CAL_REF_S = 0.008


def burst() -> float:
    """Seconds for a fixed burst of small-integer modular arithmetic, tuple
    building, dictionary lookups and calls: the operations palg's
    pure-Python kernels are made of."""
    def mul(a, b):
        return a * b % 3

    started = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CAL_ITERATIONS):
        v = tuple((i + k) % 3 for k in range(5))
        acc += mul(v[0], v[1]) + table.get(v[:3], 0)
        table[v[:3]] = (acc + v[4]) % 3
    return time.perf_counter() - started


def pin_cpu() -> int:
    """Run this process and every child on one CPU, the last one allowed:
    the bursts must run where the child runs (on a shared host the CPUs'
    speeds do not move together)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Proc:
    wall: float
    scaled: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes = b""


def spawn(argv: list, capture: bool = False) -> Proc:
    """Run argv to completion, calibrating as described above.  `wall` is
    seconds from spawn to exit less the time the child was stopped, and
    `scaled` the same at the reference speed; CPU time and peak resident
    memory come from wait4.  With `capture` the child's (small) standard
    output is kept."""
    bursts = [burst()]
    paused = 0.0
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(),
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                if select.select([pidfd], [], [], CAL_SLICE_S)[0]:
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited before the signal came
                    break
                stopped = time.perf_counter()
                bursts.append(burst())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stopped
        finally:
            os.close(pidfd)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - started - paused
    bursts.append(burst())
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = proc.stdout.read() if capture else b""
    if capture:
        proc.stdout.close()
    return Proc(wall, wall * CAL_REF_S / statistics.fmean(bursts),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, out)


# ---------------------------------------------------------------------------
# set-up and input pinning
# ---------------------------------------------------------------------------


def set_up(workload: str, seed: int, work: Path, reference: dict, label: str,
           repeats: int):
    """Set the inputs up `repeats` times, SETUP_PAUSE_S apart, keeping only
    the last copy; return (scaled seconds of each set-up, commands, input
    directory, input digest)."""
    times = []
    for i in range(repeats):
        if i:
            time.sleep(SETUP_PAUSE_S)
        directory = work / f"inputs-{label}{i}"
        done = spawn([sys.executable, str(HERE / "inputs.py"), workload, str(seed),
                      str(directory)], capture=True)
        if done.code != 0:
            raise BenchError(f"set-up of {workload} exited {done.code}")
        times.append(done.scaled)
        commands = json.loads(done.stdout)
        digest = check_pinned(workload, seed, directory, reference)
        if i:
            shutil.rmtree(work / f"inputs-{label}{i - 1}")
    return times, commands, directory, digest


def check_pinned(workload: str, seed: int, directory: Path, reference: dict) -> str:
    """Fail loudly unless the generated inputs are byte-identical to the
    recorded ones, so a change to enumeration order or to the curated
    corpus cannot quietly become a different workload."""
    ref = reference[workload]
    if workload == "analyze":
        for member in inputs.analyze_draw(reference, seed):
            got = file_sha256(directory / f"{member}.palg")
            if got != ref["members"][member]["input_sha256"]:
                raise BenchError(f"analyze input {member} changed: sha256 {got}")
        return inputs.digest_files(sorted(directory.iterdir()))
    if workload == "suite":
        got = inputs.digest_files(sorted(directory.iterdir()))
    else:
        got = inputs.enumerate_input_digest()
    if got != ref["input_sha256"]:
        raise BenchError(f"{workload} inputs changed: sha256 {got}, "
                         f"recorded {ref['input_sha256']}")
    return got


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Items attempted and failed, and problems found by the independent
    checks; any problem makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, problem: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def read_result(path: Path):
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def check_suite(proc: Proc, report: Path, reference: dict, tally: Tally) -> dict | None:
    ref = reference["suite"]
    expected = ref["items"]
    result = read_result(report)
    if proc.code != 0 or result is None:
        tally.add(len(expected), len(expected), f"check exited {proc.code}")
        return None
    got = [item_digest(r) for r in result["results"]]
    bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    tally.add(len(expected), bad, f"{bad} check results differ" if bad else "")
    if result["summary"] != SUITE_SUMMARY:
        tally.add(0, 0, f"summary {result['summary']} != {SUITE_SUMMARY}")
    return result["summary"]


def check_analyze(member: str, proc: Proc, report: Path, reference: dict,
                  tally: Tally) -> None:
    ref = reference["analyze"]["members"][member]
    result = read_result(report)
    if proc.code != 0 or result is None:
        tally.add(1, 1, f"analyze {member} exited {proc.code}")
    elif item_digest(result) != ref["report_digest"]:
        tally.add(1, 1, f"analyze {member} report differs")
    elif (result["radical"] != ref["oracle_radical"]
          or result["nilradical"] != ref["oracle_nilradical"]):
        tally.add(1, 1, f"analyze {member} radicals differ from the oracles")
    else:
        tally.add(1, 0)


def oracle_spaces(path: Path) -> tuple:
    """The brute-force radical and nilradical, formatted as analyze reports
    them.  Runs in this process, outside any timed region."""
    from palg.cli import _space_json
    from palg.corpus import parse_document
    from palg.lattice import oracle_nilradical, oracle_radical
    alg = parse_document(path.read_text(encoding="utf-8"))
    return _space_json(oracle_radical(alg)), _space_json(oracle_nilradical(alg))


def check_enumerate(proc: Proc, outdir: Path, reference: dict, tally: Tally) -> None:
    from palg.algebra import AxiomViolation
    from palg.corpus import parse_document
    ref = reference["enumerate"]
    expected = ref["files"]
    manifest = outdir / "manifest.json"
    if proc.code != 0 or not manifest.exists():
        tally.add(len(expected), len(expected), f"enumerate exited {proc.code}")
        return
    bad = 0 if file_sha256(manifest) == ref["manifest_sha256"] else 1
    documents = sorted(p for p in outdir.iterdir() if p.suffix == ".palg")
    for path in documents:
        data = path.read_bytes()
        ok = expected.get(path.name) == short_digest(data)
        try:
            parse_document(data.decode("utf-8"))
        except (ValueError, AxiomViolation):  # ValueError covers CorpusFormatError
            ok = False
        bad += not ok
    failed = bad + len(set(expected) - {p.name for p in documents})
    tally.add(len(expected) + 1, failed, f"{failed} enumerate outputs differ" if failed else "")
    if len(documents) != ENUMERATE_COUNT:
        tally.add(0, 0, f"enumerate wrote {len(documents)} documents, not {ENUMERATE_COUNT}")


# ---------------------------------------------------------------------------
# one pass over the workload's commands
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0
    scaled: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)
    summary: dict | None = None


def run_pass(workload: str, seed: int, commands: list, work: Path, rep: int,
             reference: dict, tally: Tally, traced: bool) -> Pass:
    result = Pass()
    members = inputs.analyze_draw(reference, seed) if workload == "analyze" else []
    for pos, template in enumerate(commands):
        report = work / f"report-{rep}-{pos}.json"
        cmd = [a.replace("{out}", str(report)).replace("{rep}", str(rep)) for a in template]
        if traced:
            trace = work / f"trace-{pos}.json"
            counts_path = trace.with_suffix(".counts.json")
            counts_path.unlink(missing_ok=True)
            proc = spawn([sys.executable, str(HERE / "traced.py"), str(trace), *cmd])
            if not counts_path.exists():
                # The command raised before the tracer wrote its counts.
                proc.code = proc.code or 1
                tally.add(0, 0, f"traced command {pos} wrote no counts")
            else:
                counts = json.loads(counts_path.read_text(encoding="utf-8"))
                dump_s = counts.pop("dump_s")
                proc.scaled -= dump_s * proc.scaled / proc.wall
                proc.wall -= dump_s
                for key, value in counts.items():
                    result.counts[key] = result.counts.get(key, 0) + value
            trace.unlink(missing_ok=True)
            counts_path.unlink(missing_ok=True)
        else:
            proc = spawn([sys.executable, "-m", "palg.cli", *cmd])
        result.wall += proc.wall
        result.scaled += proc.scaled
        result.cpu += proc.cpu
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        if workload == "suite":
            result.summary = check_suite(proc, report, reference, tally)
        elif workload == "analyze":
            check_analyze(members[pos], proc, report, reference, tally)
        else:
            outdir = Path(cmd[3])  # enumerate DIM Q OUTDIR
            check_enumerate(proc, outdir, reference, tally)
            shutil.rmtree(outdir, ignore_errors=True)
        report.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

SELF_TIMES = ("linalg.reduce_vector", "linalg.rref", "linalg.subspace_check",
              "linalg.intersect", "algebra.mul", "algebra.validate",
              "algebra.tensors_from_maps", "algebra.closure", "series", "engel",
              "lattice.maximal", "lattice.minimal_ideals", "lattice.profile",
              "lattice.frattini", "lattice.radical", "corpus.parse", "corpus.serialize",
              "corpus.enumerate", "cli")
CALLS = ("linalg.reduce_vector", "linalg.rref", "linalg.intersect", "linalg.char_poly",
         "algebra.mul", "algebra.validate", "algebra.closure", "series", "engel",
         "lattice.profile", "corpus.parse")


def per_layer(c: dict, untraced: Pass, traced: Pass) -> dict:
    """The per-layer metrics from summed tracer counts; see baseline.json for
    which end-to-end metric each should move, on which workload.  A count
    that a failed traced command never wrote reads as 0 (the run is then
    marked incorrect)."""
    c = defaultdict(int, c)
    m = {"fields.ops": (c["fields.ops"], "count"),
         "fields.coerce.calls": (c["fields.coerce"], "count"),
         "linalg.contains.calls": (c["linalg.contains"], "count"),
         "algebra.flag_tests.calls": (c["algebra.flag_tests"], "count"),
         "lattice.subspaces_enumerated": (c["lattice.subspaces_enumerated"], "count")}
    for name in CALLS:
        m[f"{name}.calls"] = (c[f"{name}.calls"], "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (c[f"{name}.self_s"], "s")
    mul_calls = c["algebra.mul.calls"]
    m["algebra.mul.us_per_call"] = (c["algebra.mul.self_s"] / mul_calls * 1e6
                                    if mul_calls else 0.0, "us")
    m["lattice.subalgebras_found"] = (c["lattice.subalgebras_found"], "count")
    m["lattice.profile.keys"] = (c["lattice.profile.keys"], "count")
    m["lattice.profile.misses"] = (c["lattice.profile.misses"], "count")
    m["lattice.discovery.calls"] = (c["lattice.discovery.calls"], "count")
    m["lattice.discovery.keys"] = (c["lattice.discovery.keys"], "count")
    calls = c["lattice.discovery.calls"]
    m["lattice.discovery.useful_frac"] = (c["lattice.discovery.keys"] / calls if calls else 0.0,
                                          "ratio")
    m["theorems.run_suite.self_s"] = (c["theorems.run_suite.self_s"]
                                      + c["theorems.check.self_s"], "s")
    m["theorems.cpu_per_wall"] = (untraced.cpu / untraced.wall, "ratio")
    summary = traced.summary or {}
    m["theorems.results"] = (sum(summary.get(k, 0) for k in ("pass", "fail", "not-applicable")),
                             "count")
    m["theorems.not_applicable"] = (summary.get("not-applicable", 0), "count")
    m["theorems.vacuous"] = (summary.get("vacuous", 0), "count")
    m["trace.overhead_frac"] = ((traced.scaled - untraced.scaled) / untraced.scaled, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(seed: int, input_digest: str) -> dict:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "palg").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "input_sha256": input_digest}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def bench(workload: str, seed: int, trace: bool, work: Path) -> dict:
    reference = inputs.load_reference()
    setup_times, commands, input_dir, digest = set_up(
        workload, seed, work, reference, "before", 1 if trace else SETUP_REPEATS // 2)
    tally = Tally()
    if workload == "analyze":
        for member in inputs.analyze_draw(reference, seed):
            rad, nil = oracle_spaces(input_dir / f"{member}.palg")
            ref = reference["analyze"]["members"][member]
            if (rad, nil) != (ref["oracle_radical"], ref["oracle_nilradical"]):
                tally.add(0, 0, f"oracle radicals of {member} changed")
    untraced = run_pass(workload, seed, commands, work, 0, reference, tally, traced=False)
    traced_tally = Tally()
    if trace:
        traced = run_pass(workload, seed, commands, work, 1, reference, traced_tally,
                          traced=True)
        metrics = per_layer(traced.counts, untraced, traced)
    else:
        after, *_ = set_up(workload, seed, work, reference, "after",
                           SETUP_REPEATS - SETUP_REPEATS // 2)
        metrics = {
            "wall_s": {"value": untraced.scaled, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times + after), "unit": "s"},
            "peak_rss_mb": {"value": untraced.rss_mb, "unit": "MB"},
        }
    return {"correct": not (tally.failed or tally.problems
                            or traced_tally.failed or traced_tally.problems),
            "attempted": tally.attempted + traced_tally.attempted,
            "failed": tally.failed + traced_tally.failed, "metrics": metrics,
            "traced": {"attempted": traced_tally.attempted, "failed": traced_tally.failed},
            "problems": tally.problems + [f"traced: {p}" for p in traced_tally.problems],
            "unscaled_wall_s": untraced.wall,
            "provenance": provenance(seed, digest)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20,
                        help="accepted and ignored: a run is always one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "palg" / "cli.py").is_file():
        print(f"error: no palg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_cpu()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = bench(args.workload, args.seed, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["workload"] = args.workload
    record["trace"] = args.trace
    record["provenance"]["cpu"] = cpu
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    prov = record["provenance"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"git {prov['git_sha']}, "
          f"python {prov['python']}, nproc {prov['nproc']}, pinned to CPU {cpu}, "
          f"inputs {prov['input_sha256'][:16]}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'unscaled wall':36s} {record['unscaled_wall_s']:>14.6g} s")
    print(f"  {'failed_frac':36s} {record['failed'] / record['attempted']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} items)")
    traced = record["traced"]
    if traced["attempted"]:
        print(f"  {'traced failed_frac':36s} {traced['failed'] / traced['attempted']:>14.6g} ratio "
              f"({traced['failed']} of {traced['attempted']} items)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
