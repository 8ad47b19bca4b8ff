"""Benchmark of framedual: one workload per run, in this process.

    python3 bench/run.py --workload certify-ladder --seed 1 --seconds 30 --trace 0

Builds the workload's pairs at set-up (several times, spread over the run;
setup_s is the median), then makes rounds of in-process
framedual.cli.main(argv) calls with stdout and stderr captured in memory, one
caller in a closed loop, for about --seconds: the first round's time fixes
how many whole rounds fit (at least one, and at least the workload's
min_calls calls).  Every report is then checked against the oracles; a call
fails when it exits nonzero, raises, fails its check, or when a later round
does not reproduce its first-round report byte for byte.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 wraps
framedual's public functions in spans and prints the per-layer metrics
instead.  The last line of stdout is the JSON result; a fuller record goes to
bench/out/.  OpenBLAS runs one thread: with two, a fresh process on a
two-core machine sometimes stalled about half a second on its first SVD.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1

# The wrapped functions; the per-layer metrics are <name>.calls, .time_s and
# .self_s of these, plus vonneumann.commutant.stack_mib.
TRACED = (
    "cli.main",
    "serialize.resolve_pair_spec", "serialize.resolve_rep_spec", "serialize.rep_from_json",
    "groups.validate_multiplier", "groups.direct_product",
    "reps.left_regular", "reps.right_regular", "reps.derive_multiplier", "reps.verify_rep",
    "gabor.gabor_rep",
    "vonneumann.commutant", "vonneumann.double_commutant", "vonneumann.center",
    "frames.classify", "frames.frame_operator", "frames.gram_matrix",
    "frames.parseval_normalize", "frames.dilate_to_complete",
    "linalg.hermitian_eig", "linalg.psd_power", "linalg.rank_and_range", "linalg.substream",
    "duality.is_commuting_pair", "duality.certify_dual_pair", "duality.verify_duality",
    "duality.duality_sweep", "duality.adversarial_vectors",
)


def stack_mib(ops, *args, **kwargs) -> float:
    """Size of commutant's stacked Sylvester matrix, computed from the
    argument's shape: k generators of size d give k d^2 x d^2 complex128."""
    import numpy as np
    shape = np.shape(ops)
    k, d = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    return k * d ** 4 * 16 / 2 ** 20


def blas_info() -> dict:
    """Thread count and version that numpy's bundled OpenBLAS reports."""
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    info = {"threads": None, "config": None}
    if not libs:
        return info
    lib = ctypes.CDLL(str(libs[0]))
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_int
            info["threads"] = getattr(lib, sym)()
            break
    for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
        if hasattr(lib, sym):
            getattr(lib, sym).restype = ctypes.c_char_p
            info["config"] = getattr(lib, sym)().decode()
            break
    return info


def timed_call(cli, argv) -> tuple[float, int | None, str, str]:
    """One in-process CLI call: (seconds, exit code or None if it raised,
    stdout, stderr or the traceback)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a call that raises is a failed call, and the run goes on
        elapsed = time.perf_counter() - start
        return elapsed, None, out.getvalue(), traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_rounds(cli, calls, seconds: float, min_calls: int, pause) -> list[list[tuple]]:
    """Whole rounds: as many as fit in the budget at the first round's pace
    (to the nearest, at least one), and enough for min_calls calls.
    pause() runs between rounds, after the middle round and after the last."""
    def play():
        return [timed_call(cli, call.argv) for call in calls]

    start = time.perf_counter()
    rounds = [play()]
    first = time.perf_counter() - start
    wanted = max(1, round(seconds / first), -(-min_calls // len(calls)))
    for r in range(1, wanted + 1):
        if r > 1:
            rounds.append(play())
        if r == (wanted + 1) // 2:
            pause()
    pause()
    return rounds


def check_rounds(calls, rounds) -> tuple[int, int, list[str], list[str]]:
    """(failed calls, vectors verified per round, calls that exited nonzero
    or raised, calls whose report is wrong)."""
    failed, vectors, errors, wrong = 0, 0, [], []
    for i, call in enumerate(calls):
        first = rounds[0][i][2]
        for r, results in enumerate(rounds):
            _, code, stdout, stderr = results[i]
            where = f"round {r} {' '.join(call.argv)[:120]}"
            if code != 0:
                errors.append(f"{where}: exit {code}: {stderr.strip()[-400:]}")
            elif r == 0:
                try:
                    vectors += call.check(json.loads(stdout))
                    continue
                except Exception as exc:  # any mismatch or malformed report fails the call
                    wrong.append(f"{where}: {type(exc).__name__}: {exc}")
            elif stdout != first:
                wrong.append(f"{where}: report differs from the first round's")
            else:
                continue
            failed += 1
    return failed, vectors, errors, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # OpenBLAS reads these when numpy first loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import framedual as fd
        from framedual import cli
    except ImportError as exc:
        print(f"bench: cannot import framedual from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(fd.__file__).resolve().parent != ROOT / "src" / "framedual":
        print(f"bench: framedual comes from {fd.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import numpy as np

    import spans
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "blas": blas_info()}
    if machine["blas"]["threads"] not in (None, BLAS_THREADS):
        print(f"bench: OpenBLAS runs {machine['blas']['threads']} threads", file=sys.stderr)
        return 2

    # Set-up runs in three groups, before the rounds, after the middle round
    # and after the last, because the machine's pace drifts over seconds and
    # a median of back-to-back set-ups would see one pace only.
    setup_times = []

    def set_up():
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            built = workload.setup(fd)
            setup_times.append(time.perf_counter() - start)
        return built

    built = set_up()
    problems = []
    try:
        workload.check_built(built, args.seed, fd)
    except Exception as exc:  # reported as an incorrect run, not a crash
        problems.append(f"set-up: {type(exc).__name__}: {exc}")
    del built
    workload.prepare(fd, OUT)
    calls = workload.calls(args.seed, OUT)
    for argv in workload.warmup:
        timed_call(cli, list(argv))

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install("framedual", TRACED, {"vonneumann.commutant": stack_mib})
    try:
        # a traced run reports no setup_s, and set-ups must not add spans
        pause = (lambda: None) if tracer else set_up
        rounds = run_rounds(cli, calls, args.seconds, workload.min_calls, pause)
    finally:
        if tracer:
            tracer.uninstall()

    failed, vectors, errors, wrong = check_rounds(calls, rounds)
    problems += wrong
    for line in errors + problems:
        print(f"bench: {line}", file=sys.stderr)

    latencies = [result[0] for results in rounds for result in results]
    # a round's time, with each call at its median over the rounds, so that
    # one call slowed by the machine does not carry its round
    wall_s = sum(statistics.median(results[i][0] for results in rounds)
                 for i in range(len(calls)))
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "call_p50_ms": 1000 * statistics.median(latencies),
        "call_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "vectors_per_s": vectors / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "rounds": len(rounds),
              "calls_per_round": len(calls), "vectors_per_round": vectors,
              "setup_times_s": setup_times, "latencies_s": latencies,
              "end_to_end": values, "errors": errors, "problems": problems}
    if tracer:
        layers = spans.aggregate(tracer.spans)
        per_round = {}
        for name in TRACED:
            entry = layers.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            per_round[f"{name}.calls"] = entry["calls"] // len(rounds)
            per_round[f"{name}.time_s"] = entry["time_s"] / len(rounds)
            per_round[f"{name}.self_s"] = entry["self_s"] / len(rounds)
        per_round["vonneumann.commutant.stack_mib"] = (
            layers.get("vonneumann.commutant", {}).get("note_max") or 0.0)
        record["layers"] = per_round
        # spans as [name, start, end, parent], times in seconds from the first start
        index = {name: i for i, name in enumerate(TRACED)}
        origin = min(span.start for span in tracer.spans)
        record["span_names"] = TRACED
        record["spans"] = [[index[s.name], round(s.start - origin, 7), round(s.end - origin, 7),
                            s.parent] for s in tracer.spans]
        wanted = declared["per_layer"]
    else:
        per_round = values
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": per_round[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "run"
    (OUT / f"{kind}-{workload.name}-seed{args.seed}.json").write_text(json.dumps(record))
    attempted = len(latencies)
    # correct speaks of the calls that returned: a wrong report, a report
    # that changed between rounds, or a wrong set-up makes it false
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
