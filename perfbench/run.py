#!/usr/bin/env python3
"""Benchmark of the deligne-simpson verdict engine.

    python3 perfbench/run.py --workload genericity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --smoke         # the benchmark's own self-check

Run it from the repository root; it imports the engine from ``src``.  Load
comes from one process and one thread in a closed loop: each request is a
`dsp` argv passed to ``deligne_simpson.cli.main`` in-process (parse ->
engine -> JSON report, stdout captured) and is sent only after the previous
one returned.  Every answer is checked against a known answer (see
workloads.py).  Each workload runs in its own child process so that its
peak resident memory is its own.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (see tracing.py).  End-to-end times are given in
reference seconds (see speed.py): a shared machine's speed moves by up to
half for minutes at a time, and a fixed calibration loop timed beside the
requests takes that out.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("genericity", "screens", "witness")
REQUEST_LIMIT_S = 10  # a request still running after this is undecided
# Import timings per workload run: half before the workload's child process
# (after one unmeasured warm-up spawn) and half after it, because a shared
# machine's speed comes in streaks of a second or two.
SETUP_SPAWNS = 22
CHILD_TIMEOUT_S = 170
# A traced run replays a fixed number of rounds, so that its counts repeat
# exactly for a seed; the cProfile pass replays the first requests of them.
TRACE_ROUNDS = {"genericity": 1, "screens": 40, "witness": 1}
PROFILE_REQUESTS = {"genericity": 10, "screens": 200, "witness": 14}

END_TO_END = [
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("requests_per_s", "1/s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request; a BaseException so the engine's
    own error handling cannot swallow it."""


# -- child side: requests in-process ----------------------------------------------


def _engine():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import deligne_simpson.cli as cli  # noqa: F401 (fails without the source)

    return cli


def _on_alarm(signum, frame):
    raise RequestTimeout()


def freeze_heap():
    """Leaves the objects alive now (the engine's modules, the recorded
    pools, the generators) out of every later garbage collection.  A `dsp`
    process holds none of the benchmark's objects; scanning them made each
    full collection take about 9 ms inside whichever request it fell in, and
    those requests made up about half of the slowest ones on screens."""
    gc.collect()
    gc.freeze()


def send(cli, request):
    """One request through cli.main; returns (seconds, outcome, note)."""
    import workloads as W

    buf = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(request.argv))
        elapsed = time.perf_counter() - start
    except RequestTimeout:
        return time.perf_counter() - start, W.UNDECIDED, "timeout"
    except SystemExit as exc:  # argparse rejects the argv
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, W.UNDECIDED, f"exit {exc.code}"
    except Exception as exc:  # any engine failure is an undecided request
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, W.UNDECIDED, f"{type(exc).__name__}: {exc}"
    signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return elapsed, W.WRONG, "output is not JSON"
    outcome = request.check(code, report)
    return elapsed, outcome, "" if outcome == W.OK else f"exit {code}"


class DocWriter:
    """Writes each generated document to its own file under the work dir."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0
        directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, doc) -> str:
        self.count += 1
        path = self.directory / f"d{self.count}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def _stream(workload, seed, directory):
    import workloads as W

    return W.BUILDERS[workload](seed, W.load_recorded(), DocWriter(directory))


def run_requests(cli, requests, outcomes, notes, times=None, clock=None):
    import workloads as W

    for request in requests:
        if clock is not None:
            clock.tick()
        elapsed, outcome, note = send(cli, request)
        if clock is not None:
            clock.add(elapsed)
        if times is not None:
            times.append(elapsed)
        outcomes[outcome] += 1
        if outcome != W.OK and len(notes) < 20:
            notes.append(f"{outcome}: {request.label} ({note})")


def child_end_to_end(workload, seed, seconds, directory):
    """Whole rounds until `seconds` of measured time have passed, so every
    run holds the same request mix; generating a round is not measured.
    Request times are scaled to reference seconds window by window."""
    import resource

    cli = _engine()
    rounds = _stream(workload, seed, directory)
    send(cli, next(rounds)[0])  # warm-up, not counted
    freeze_heap()
    clock = speed.Clock()
    raw, outcomes, notes, round_sizes = [], {"ok": 0, "wrong": 0, "undecided": 0}, [], []
    wall = 0.0
    while wall < seconds:
        batch = next(rounds)
        start = time.perf_counter()
        run_requests(cli, batch, outcomes, notes, raw, clock)
        wall += time.perf_counter() - start
        round_sizes.append(len(batch))
    times = clock.finish()
    round_rates, i = [], 0
    for n in round_sizes:
        round_rates.append(n / sum(times[i : i + n]))
        i += n
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "times": times,
        "raw_times": raw,
        "kernel_s": clock.kernel_median(),
        "outcomes": outcomes,
        "notes": notes,
        "wall": wall,
        "round_rates": round_rates,
        "peak_rss_mb": rss,
    }


def child_traced(workload, seed, directory):
    """A fixed request list (TRACE_ROUNDS rounds), each request sent once
    untraced and once traced, in alternating order so that drift in the
    machine's speed hits both alike; then the first ones under cProfile."""
    import cProfile
    import pstats

    import tracing

    cli = _engine()
    rounds = _stream(workload, seed, directory)
    warm = next(rounds)[0]
    requests = [r for _ in range(TRACE_ROUNDS[workload]) for r in next(rounds)]
    send(cli, warm)
    freeze_heap()
    outcomes, notes = {"ok": 0, "wrong": 0, "undecided": 0}, []

    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for i, request in enumerate(requests):
        for on in (i % 2 == 1, i % 2 == 0):
            if on:
                tracer.install()
                tracer.request = i
                try:
                    traced += send(cli, request)[0]
                finally:
                    tracer.uninstall()
            else:
                elapsed, outcome, note = send(cli, request)
                untraced += elapsed
                outcomes[outcome] += 1
                if outcome != "ok" and len(notes) < 20:
                    notes.append(f"{outcome}: {request.label} ({note})")

    profile = cProfile.Profile()
    for request in requests[: PROFILE_REQUESTS[workload]]:
        profile.enable()
        send(cli, request)
        profile.disable()

    metrics = tracer.layer_metrics()
    metrics["exactnum.share"] = tracing.exactnum_share(pstats.Stats(profile).stats)
    metrics["trace.request_s"] = traced
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    overhead_layers = ("criteria", "jnf_core", "special", "solver", "cli")
    shares = {
        "inside eigenvalues.search": tracer.share(["eigenvalues.find_first_relation"]),
        "inside linalg or witness": tracer.share(["linalg.", "witness."]),
        "in the own code of " + ", ".join(overhead_layers): sum(
            tracer.self_times()[layer] for layer in overhead_layers
        ) / traced,
    }
    spans = directory.parent / f"spans-{workload}-{seed}.csv.gz"
    tracer.write(spans)
    return {
        "metrics": metrics,
        "shares": shares,
        "outcomes": outcomes,
        "notes": notes,
        "spans": len(tracer.spans),
        "spans_file": str(spans.relative_to(ROOT)),
    }


def child_main(workload, seed, seconds, trace) -> int:
    directory = WORK / f"docs-{workload}-{seed}-{os.getpid()}"
    try:
        if trace:
            result = child_traced(workload, seed, directory)
        else:
            result = child_end_to_end(workload, seed, seconds, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(result))
    return 0


# -- parent side ----------------------------------------------------------------------

SETUP_PROBE = (
    "import time; t = time.perf_counter(); import deligne_simpson.cli; "
    "print(time.perf_counter() - t); import speed; print(speed.kernel_time())"
)


def measure_setup(spawns: int, warm: bool) -> list[tuple[float, float]]:
    """Import time of deligne_simpson.cli, each in a fresh interpreter,
    with the calibration kernel's time in that interpreter just after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    out = []
    for i in range(spawns + warm):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing the engine failed:\n{proc.stderr}")
        if i or not warm:  # a warm-up spawn may compile bytecode
            seconds, kernel = map(float, proc.stdout.split())
            out.append((seconds, kernel))
    return out


def run_child(workload, seed, seconds, trace) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """The highest percentile with at least ten requests beyond it:
    (value, percentile, samples).  Below eleven requests, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(result, setup):
    times = result["times"]
    out = result["outcomes"]
    attempted = len(times)
    value, pct, samples = tail(times)
    setup_ref = [speed.to_reference(t, k) for t, k in setup]
    metrics = {
        "request_p50_s": statistics.median(times),
        "request_tail_s": value,
        "requests_per_s": statistics.median(result["round_rates"]),
        "decided_ratio": out["ok"] / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_ref),
    }
    detail = {
        "request_tail_s": (
            f"p{pct:.1f} of {samples} requests; "
            f"{tail(result['raw_times'])[0]:.4g} s measured"
        ),
        "request_p50_s": (
            f"median of {samples} requests; "
            f"{statistics.median(result['raw_times']):.4g} s measured"
        ),
        "requests_per_s": (
            f"median of {len(result['round_rates'])} rounds; "
            f"{attempted} requests in {result['wall']:.2f} s measured overall"
        ),
        "decided_ratio": f"{out['ok']} of {attempted}",
        "setup_s": (
            f"median of {len(setup)} interpreter spawns; "
            f"{statistics.median(t for t, _ in setup):.4g} s measured"
        ),
    }
    return metrics, detail, attempted, out["wrong"]


def print_table(title, metrics, detail, units, kinds=None):
    print(title)
    for name, value in metrics.items():
        kind = f"  [{kinds[name]}]" if kinds else ""
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{kind}{extra}")


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (metrics, attempted, failed, wrong)."""
    setup = [] if trace else measure_setup(SETUP_SPAWNS // 2, warm=True)
    result = run_child(workload, seed, seconds, trace)
    if not trace:
        setup += measure_setup(SETUP_SPAWNS - len(setup), warm=False)
    for note in result["notes"]:
        print(f"  {workload}: {note}")
    if trace:
        import tracing

        units = {m[0]: m[1] for m in tracing.METRICS}
        kinds = {m[0]: m[3] for m in tracing.METRICS}
        metrics = {m[0]: result["metrics"][m[0]] for m in tracing.METRICS}
        print_table(
            f"{workload}: traced run, {result['spans']} spans in {result['spans_file']}",
            metrics, {}, units, kinds,
        )
        for name, share in result["shares"].items():
            print(f"  share of traced request time {name}: {share:.1%}")
        out = result["outcomes"]
        attempted = sum(out.values())
        return metrics, attempted, attempted - out["ok"], out["wrong"]
    metrics, detail, attempted, wrong = end_to_end(result, setup)
    print_table(f"{workload}: seed {seed}, {seconds} s", metrics, detail, dict(END_TO_END))
    print(
        f"  times in reference seconds; calibration kernel median "
        f"{result['kernel_s'] * 1e3:.3f} ms in the run, {speed.REFERENCE_KERNEL_S * 1e3:g} ms reference"
    )
    print(f"  {'wrong_answers':32s} {wrong:14d} count")
    return metrics, attempted, attempted - result["outcomes"]["ok"], wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.workload, args.seed, args.seconds, args.trace)
    if args.smoke:
        import smoke

        return smoke.main()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    wrong = sum(r[3] for r in results.values())
    if len(workloads) == 1:
        metrics = results[workloads[0]][0]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r[0].items()}
    if args.trace:
        import tracing

        units = {m[0]: m[1] for m in tracing.METRICS}
    else:
        units = dict(END_TO_END)
    summary = {
        "correct": wrong == 0,
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": {
            k: {"value": v, "unit": units[k.split(".", 1)[1] if len(workloads) > 1 else k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
