"""modhull benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload hull-large --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Run from anywhere; the package is imported from the ``src/`` directory
next to this one, never from an installed copy.  Scratch files (sweep
caches, CSVs) live in ``.perfbench_work/`` at the repository root and are
removed on exit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median, over sixteen fresh interpreters, of the time to
  import ``modhull`` and ``modhull.cli`` (what every command pays first);
  half run before the timed rounds and half after, so that a slow spell
  of the host at either moment moves it less;
- ``command_ms_mean``: mean wall time of the workload's repeated command
  (a ``hull`` call on hull-large, a warm ``sweep`` replay on sweep-small);
- ``records_per_s``: hulls or sweep records computed per second by the
  cold commands, their records over their summed wall time (on
  hull-large, one record per command, this is 1000 / command_ms_mean);
- ``peak_rss_mib``: peak resident memory of this process after the timed
  rounds, before the checks.

The timings are means over the whole run, because the host is shared:
other tenants slow every command alike, by up to 1.8x, in spells from
under a second to most of a run, and the mean averages over them most
evenly.  In sets of five to eleven runs on a two-vCPU host, the spread
(quartile distance over median) of the run's mean command time was 0.06
to 0.18, of its median 0.08 to 0.29 and of its 10th percentile 0.09 to
0.28.

``--trace 1`` runs every command twice, alternately on two separate
imports of the package, one of them with every layer function wrapped
(see ``tracer.py``).  It reports per-layer figures per round, the
tracing overhead (traced over untraced wall time, minus one), and
``ops_failed_frac``.

Every command's output is checked after the timed rounds: a hull must be
a convex polygon on the hyperbola with the printed count and area, a
sweep's CSV must hold the expected records in order, and a warm replay's
CSV must equal the cold one byte for byte.  The hulls of twelve seeded
hull-computing commands per run are also compared with the brute-force
hull ``convex_hull(enumerate_points(spec))``.  A command that raises,
exits non-zero or fails a check counts as failed.  ``--self-check``
shows that the check catches a hull with one vertex dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CACHE_ENV = "MODHULL_CACHE_DIR"
# import timings taken before the timed rounds, and again after them
SETUP_REPS = 8
# hull-computing commands per run that the brute-force oracle recomputes;
# a bound, so that a faster program, which fits more commands into a run,
# does not make the checks outlast the run's time limit
ORACLE_OPS = 12

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import modhull, modhull.cli\n"
    "t = time.perf_counter() - t\n"
    "print(modhull.__file__)\n"
    "print(repr(t))\n"
)


def measure_setup() -> list[float]:
    """Import times of the package in SETUP_REPS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        path, t = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"child imported modhull from {path}")
        times.append(float(t))
    return times


def load_modhull() -> types.SimpleNamespace:
    """A fresh import of the package from SRC: earlier imports, and every
    cache they hold, are dropped first."""
    for name in [n for n in sys.modules if n == "modhull" or n.startswith("modhull.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    import modhull
    import modhull.cli
    import modhull.geometry
    import modhull.hyperbola

    if not Path(modhull.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported modhull from {modhull.__file__}, not {SRC}")
    return types.SimpleNamespace(
        package=modhull, cli=modhull.cli, geometry=modhull.geometry, hyperbola=modhull.hyperbola
    )


def describe(mh) -> dict:
    """Which code is measured: the import path, the commit when the tree is
    a git checkout, and a digest of the package sources either way."""
    pkg = Path(mh.package.__file__).resolve().parent
    digest = hashlib.sha256()
    for f in sorted(pkg.glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {"modhull": str(mh.package.__file__), "commit": commit, "source_sha256": digest.hexdigest()}


def run_op(mh, op, tracer=None) -> dict:
    """Run one command, timing only the call into the CLI."""
    if op.cache_dir is not None:
        os.environ[CACHE_ENV] = str(op.cache_dir)
    buf = io.StringIO()
    error = None
    rc = None
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            rc = mh.cli.main(list(op.argv))
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        wall = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.active = False
    digest = None
    if op.kind == "warm" and error is None and op.out.is_file():
        digest = hashlib.sha256(op.out.read_bytes()).hexdigest()
    return {"op": op, "wall_ns": wall, "rc": rc, "error": error, "stdout": buf.getvalue(), "digest": digest}


def run_rounds(lanes, budget_s: float, rounds: int | None = None):
    """Whole rounds while the next one is likely to end within budget_s
    (at least one), or exactly `rounds` rounds.

    Each lane is (package import, workload, tracer or None) and gets its
    own results list.  Lanes run the same rounds with their commands
    interleaved one by one, so a slow spell of the host hits them alike,
    and take turns going first, since a command that follows its twin
    finds the memory it needs already mapped.
    """
    results = [[] for _ in lanes]
    done = 0
    t0 = time.perf_counter()
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif done and (time.perf_counter() - t0) * (done + 1) / done > budget_s:
            break  # the next round would likely end past the budget
        for j, step in enumerate(zip(*(workload.round(done) for _, workload, _ in lanes))):
            turn = list(zip(results, lanes, step))
            for out, (mh, _, tracer), op in turn[::-1] if (done + j) % 2 else turn:
                out.append(run_op(mh, op, tracer))
        done += 1
    return results, done


def check(mh, workload, results) -> int:
    """Check every result, and recompute the hulls of ORACLE_OPS seeded
    hull-computing commands; return the number of failed commands."""
    computing = [i for i, res in enumerate(results) if res["op"].kind in ("hull", "cold")]
    pick = random.Random(f"deep:{workload.name}:{workload.seed}")
    deep = set(pick.sample(computing, min(ORACLE_OPS, len(computing))))
    failed = 0
    cold_digest: dict = {}
    for i, res in enumerate(results):
        op = res["op"]
        reason = res["error"]
        if reason is None and res["rc"] != 0:
            reason = f"exit code {res['rc']}"
        if reason is None:
            try:
                reason = workload.check(mh, op, res["stdout"], res["digest"], cold_digest, i in deep)
            except Exception:
                reason = traceback.format_exc(limit=3)
        if reason is not None:
            failed += 1
            print(f"FAILED {' '.join(op.argv)}: {reason}", file=sys.stderr)
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args, workdir: Path) -> dict:
    cls = WORKLOADS[args.workload]
    if not args.trace:
        setup = measure_setup()
        mh = load_modhull()
        print(json.dumps(describe(mh)), file=sys.stderr)
        workload = cls(args.seed, workdir)
        (results,), rounds = run_rounds([(mh, workload, None)], args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += measure_setup()
        failed = check(mh, workload, results)
        lat = [r["wall_ns"] for r in results if r["op"].kind == workload.latency_kind]
        cold = [r for r in results if r["op"].kind in ("hull", "cold")]
        cold_s = sum(r["wall_ns"] for r in cold) / 1e9
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "command_ms_mean": metric(statistics.fmean(lat) / 1e6, "ms"),
            "records_per_s": metric(sum(r["op"].records for r in cold) / cold_s, "1/s"),
            "peak_rss_mib": metric(peak, "MiB"),
        }
        print(f"{len(results)} commands in {rounds} rounds", file=sys.stderr)
        return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}

    # the same commands untraced and traced, on two separate imports
    plain_mh = load_modhull()
    print(json.dumps(describe(plain_mh)), file=sys.stderr)
    mh = load_modhull()
    tracer = Tracer()
    absent = tracer.install()
    for name in absent:
        print(f"trace: {name} is absent", file=sys.stderr)
    reference = cls(args.seed, workdir / "plain")
    workload = cls(args.seed, workdir / "traced")
    (plain, traced), rounds = run_rounds([(plain_mh, reference, None), (mh, workload, tracer)], args.seconds)
    plain_failed = check(plain_mh, reference, plain)
    traced_failed = check(mh, workload, traced)

    plain_ns = sum(r["wall_ns"] for r in plain)
    traced_ns = sum(r["wall_ns"] for r in traced)
    layers = layer_metrics(tracer.spans, rounds)
    self_ms = sum(v for k, (v, _) in layers.items() if k.startswith("layer.")) * rounds
    attempted = len(plain) + len(traced)
    failed = plain_failed + traced_failed
    cache_bytes = max((f.stat().st_size for f in (workdir / "traced").glob("cache-*/*")), default=0)
    layers.update(
        {
            "experiments.cache_bytes": (cache_bytes, "bytes"),
            "trace.wall_ms": (traced_ns / 1e6 / rounds, "ms/round"),
            "trace.self_sum_frac": (self_ms * 1e6 / traced_ns, "ratio"),
            "trace.overhead_frac": (traced_ns / plain_ns - 1.0, "ratio"),
            "trace.absent": (len(absent), "count"),
            "ops_failed_frac": (failed / attempted, "ratio"),
        }
    )
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    print(f"{len(traced)} traced commands in {rounds} rounds", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_check(workdir: Path) -> int:
    """Run small versions of a hull and a sweep workload, clean and then
    with every computed hull missing its last vertex; the checks must pass
    the first and fail every command of the second that computes a hull."""

    def drop_last(fn):
        def corrupted(*args, **kwargs):
            poly = fn(*args, **kwargs)
            if poly.vertex_count < 3:
                return poly
            return type(poly)(poly.vertices[:-1])

        return corrupted

    ok = True
    for name in ("hull-large", "sweep-small"):
        for corrupt in (False, True):
            mh = load_modhull()
            if corrupt:
                mh.cli.fast_hull = drop_last(mh.cli.fast_hull)
                experiments = sys.modules["modhull.experiments"]
                experiments.convex_hull = drop_last(experiments.convex_hull)
            sub = workdir / f"{name}-{int(corrupt)}"
            workload = WORKLOADS[name](0, sub, scale="tiny")
            (results,), _ = run_rounds([(mh, workload, None)], 0, rounds=3)
            failed = check(mh, workload, results)
            computing = sum(r["op"].kind in ("hull", "cold") for r in results)
            caught = failed >= computing if corrupt else failed == 0
            ok &= caught
            verdict = "ok" if caught else "WRONG"
            print(
                f"self-check {name} corrupted={corrupt}: {failed} of {len(results)} failed "
                f"(ops_failed_frac {failed / len(results):.3f}) {verdict}"
            )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "modhull" / "__init__.py").is_file():
        print(f"error: no modhull package under {SRC}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = base / f"{args.workload or 'self-check'}-{os.getpid()}"
    workdir.mkdir()
    os.environ[CACHE_ENV] = str(workdir / "cache")
    try:
        if args.self_check:
            return self_check(workdir)
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
