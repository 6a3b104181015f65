"""Benchmark entry point: one workload, one seed, one JSON line of results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cluster_replay``, ``serve_lora_functional``,
``serve_sim_churn`` (see README.md). The program under test runs in
fresh child processes fed only inputs generated from ``--seed``. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run of the same seed and
the tracing overhead. The last line of standard output is the JSON
result; the exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import percentile
from workloads import (
    ITL_LIMIT_MS, REPLAY, REPLAY_SAMPLE, TOKEN_MATCH_FLOOR, WORKLOADS, ServeWorkload,
    plan_requests,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 7
"""Server launches per run whose median time-to-listening gives ``setup_s``:
the served one, and set-up-only launches split before and after the load
so the median spans the run."""
CHILD_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0
"""How long the load generator waits for open streams after the last send."""

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
"""The metrics a run prints, as ``BENCHMARK.json`` declares them."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Child:
    """A child process speaking line-prefixed messages on its stdout."""

    def __init__(self, script: str, args: "list[str]", cpu: "int | None"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        if cpu is not None:
            try:
                os.sched_setaffinity(self.proc.pid, {cpu})
            except ProcessLookupError:
                pass  # already gone; read() reports how it exited
        self._buf = b""

    def read(self, prefix: str, timeout: float = CHILD_TIMEOUT_S) -> str:
        """The rest of the next stdout line that starts with ``prefix``."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                text = line.decode()
                if text.startswith(prefix):
                    return text[len(prefix):].strip()
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise TimeoutError(f"child gave no {prefix!r} line in {timeout:.0f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                code = self.proc.wait()
                raise RuntimeError(f"child exited with code {code} before {prefix!r}")
            self._buf += chunk

    def finish(self) -> dict:
        """Close the child's stdin and collect its report."""
        self.proc.stdin.close()
        report = json.loads(self.read("REPORT "))
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpus() -> "tuple[int | None, int | None]":
    """(this process's CPU, the program's CPU): separate cores when there are two."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return allowed[0], allowed[1]


def spans_path(workload: str, seed: int) -> str:
    OUT.mkdir(exist_ok=True)
    return str(OUT / f"{workload}-seed{seed}.spans.jsonl")


# ---------------------------------------------------------------------------
# cluster_replay
# ---------------------------------------------------------------------------
def trace_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th trace of a run; runs with different seeds share none."""
    return seed * 1000 + k


def replay_once(seed: int, trace: bool, cpu) -> dict:
    args = ["--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        args += ["--spans-out", spans_path(REPLAY.name, seed)]
    child = Child("replay.py", args, cpu)
    try:
        child.read("READY")
        setup = time.perf_counter() - child.started
        report = json.loads(child.read("REPORT ", timeout=150.0))
        child.proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        child.kill()
    report["setup_s"] = setup
    return report


def run_replay(seed: int, seconds: float, trace: bool, cpu) -> dict:
    """Replay ``REPLAY.traces`` distinct slices, then replay them again in
    turn until ``seconds`` have passed (at least one repeat).

    Every repeat must give its slice's modelled outputs again. The traced
    run replays the first slice untraced and then traced instead.
    """
    start = time.perf_counter()
    if trace:
        runs = [replay_once(trace_seed(seed, 0), False, cpu),
                replay_once(trace_seed(seed, 0), True, cpu)]
    else:
        runs = [replay_once(trace_seed(seed, k), False, cpu) for k in range(REPLAY.traces)]
        while len(runs) == REPLAY.traces or time.perf_counter() - start < seconds:
            runs.append(replay_once(trace_seed(seed, len(runs) % REPLAY.traces), False, cpu))
    distinct = runs[:1] if trace else runs[:REPLAY.traces]
    problems = [p for r in runs for p in r["problems"]]
    for i, r in enumerate(runs[len(distinct):]):
        if r["digest"] != distinct[i % len(distinct)]["digest"]:
            problems.append(f"modelled outputs differ between two replays of trace "
                            f"{trace_seed(seed, i % len(distinct))}")
    requests = sum(r["requests"] for r in distinct)
    finished = sum(len(r["ttft_ms"]) for r in distinct)
    ttft = [x for r in distinct for x in r["ttft_ms"]]
    tpot = [x for r in distinct for x in r["tpot_ms"]]
    untraced = [r for r in runs if "layers" not in r]
    result = {
        "attempted": requests,
        "failed": requests - finished,
        "problems": problems,
        "context": {
            "replays": len(runs),
            "requests_per_trace": runs[0]["requests"],
            "events_per_trace": runs[0]["events"],
            "sim_requests_per_s": statistics.median(
                len(r["ttft_ms"]) / r["cpu_s"] for r in untraced),
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "success_frac": finished / requests,
            "ttft_p50_ms": percentile(ttft, 50),
            "ttft_p90_ms": percentile(ttft, 90),
            "itl_p50_ms": percentile(tpot, 50),
            "itl_p90_ms": percentile(tpot, 90),
            "goodput_rps": statistics.median(r["good"] / r["cpu_s"] for r in untraced),
            "cpu_ms_per_req": statistics.median(
                r["cpu_s"] / len(r["ttft_ms"]) * 1e3 for r in untraced),
        }
    else:
        layers = dict(runs[-1]["layers"])
        layers["trace.overhead_ratio"] = runs[-1]["cpu_s"] / runs[0]["cpu_s"]
        result["layers"] = layers
    return result


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------
def launch_server(w: ServeWorkload, seed: int, trace: bool, cpu) -> "tuple[Child, int, float]":
    args = ["--workload", w.name, "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        args += ["--spans-out", spans_path(w.name, seed)]
    child = Child("server.py", args, cpu)
    try:
        port = int(child.read("READY "))
    except BaseException:
        child.kill()
        raise
    return child, port, time.perf_counter() - child.started


def serve_once(w: ServeWorkload, seed: int, seconds: float, trace: bool, cpu) -> dict:
    """Launch the server, load it open-loop, stop it; returns raw results."""
    from loadgen import run_load

    def setup_only() -> float:
        child, _, setup = launch_server(w, seed, False, cpu)
        try:
            child.finish()
        finally:
            child.kill()
        return setup

    before = (SETUP_LAUNCHES - 1) // 2
    setups = [setup_only() for _ in range(before)]
    child, port, setup = launch_server(w, seed, trace, cpu)
    setups.append(setup)
    try:
        plan = plan_requests(w, seed, seconds, tag="t" if trace else "u")
        connections = min(2, os.cpu_count() or 1)
        pid = child.proc.pid
        gen, streams = run_load("127.0.0.1", port, plan, connections, DRAIN_TIMEOUT_S,
                                probe=lambda: cpu_seconds(pid))
        cpu_s = cpu_seconds(pid) - gen.measured_probe
        report = child.finish()
    finally:
        child.kill()
    setups += [setup_only() for _ in range(SETUP_LAUNCHES - 1 - before)]
    return {"setups": setups, "gen": gen, "streams": streams, "report": report, "cpu_s": cpu_s}


def stream_problems(streams) -> "list[str]":
    """Wire-level output checks over every stream of the run."""
    problems = []

    def bad(res, what):
        problems.append(f"{res.plan.request_id}: {what}")

    for res in streams:
        if res.refused:
            continue  # shed before acceptance: counted as failed, not as a wrong output
        if res.error is not None:
            bad(res, f"error frame after acceptance: {res.error}")
        if res.timed_out:
            bad(res, "no end frame before the drain timeout")
        if res.disconnected:
            bad(res, "connection closed before the end frame")
        if res.frames_after_end:
            bad(res, f"{res.frames_after_end} frames after the end frame")
        if res.indices != list(range(len(res.indices))):
            bad(res, "token indices not contiguous from 0")
        if res.end_status is not None and res.end_tokens != len(res.tokens):
            bad(res, f"end frame says {res.end_tokens} tokens, {len(res.tokens)} received")
        if res.end_status == "finished" and len(res.tokens) > res.plan.response_len:
            bad(res, f"{len(res.tokens)} tokens for response_len {res.plan.response_len}")
        if res.cancel_sent is not None and not res.cancel_unknown and res.end_status != "cancelled":
            bad(res, f"cancelled stream ended {res.end_status}")
    return problems[:20]


def token_match(seed: int, streams) -> "tuple[float, int]":
    """Replay a sample of finished measured streams solo (batch 1) on the same weights.

    Returns (share of replayed streams whose tokens match, streams replayed).
    """
    sys.path.insert(0, str(SRC))
    from repro.runtime.request import Request
    from repro.workloads.trace import RequestSpec
    from stacks import functional_engine, functional_model

    finished = [r for r in streams if r.plan.phase == "measured"
                and r.end_status == "finished" and r.error is None]
    if not finished:
        return 0.0, 0
    step = max(1, len(finished) // REPLAY_SAMPLE)
    sample = finished[::step][:REPLAY_SAMPLE]
    weights, registry = functional_model(seed)
    engine = functional_engine(weights, registry, max_batch_size=1)
    matched = 0
    clock = 0.0
    for res in sample:
        p = res.plan
        req = Request(
            spec=RequestSpec(request_id=p.request_id, lora_id=p.lora_id, arrival_time=clock,
                             prompt_len=p.prompt_len, response_len=p.response_len),
            prompt_tokens=list(p.prompt_tokens),
        )
        engine.add_request(req, clock)
        while not req.state.is_terminal:
            report = engine.step(clock)
            # No report: the adapter is still loading; jump to when it lands.
            clock = report.end if report is not None else engine.next_ready_time()
        matched += req.generated_tokens == res.tokens
    return matched / len(sample), len(sample)


def summarize_serve(w: ServeWorkload, seconds: float, raw: dict) -> dict:
    streams = raw["streams"]
    measured = [r for r in streams if r.plan.phase == "measured"]
    problems = stream_problems(streams)
    if raw["gen"].stray_frames:
        problems.append(f"{raw['gen'].stray_frames} frames for unknown streams")
    ttft = [r.ttft * 1e3 for r in measured if r.ttft is not None and not r.failed]
    itl = [r.mean_itl * 1e3 for r in measured if r.mean_itl is not None and not r.failed]
    good = [
        r for r in measured
        if not r.failed and r.end_status == "finished" and r.ttft is not None
        and r.ttft * 1e3 <= w.ttft_limit_ms
        and (r.mean_itl is None or r.mean_itl * 1e3 <= ITL_LIMIT_MS)
    ]
    failed = sum(r.failed for r in measured)
    cancels = [
        (r.end_time - r.cancel_sent) * 1e3 for r in measured
        if r.cancel_sent is not None and r.end_status == "cancelled"
    ]
    lags = [(r.sent - r.due) * 1e3 for r in measured]
    phases = {}
    for phase in ("warmup", "measured"):
        group = [r for r in streams if r.plan.phase == phase]
        bad = sum(r.failed for r in group)
        phases[phase] = (len(group), len(group) - bad, bad)
    return {
        "problems": problems,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": raw["report"]["peak_rss_mb"],
            "success_frac": 1.0 - failed / len(measured),
            "ttft_p50_ms": percentile(ttft, 50),
            "ttft_p90_ms": percentile(ttft, 90),
            "itl_p50_ms": percentile(itl, 50),
            "itl_p90_ms": percentile(itl, 90),
            "goodput_rps": len(good) / seconds,
            "cpu_ms_per_req": raw["cpu_s"] / len(measured) * 1e3,
        },
        "loadgen": {
            "serve.cancel_p99_ms": percentile(cancels, 99),
            "loadgen.lag_p99_ms": percentile(lags, 99),
            **{f"loadgen.{ph}.{k}": v[i] for ph, v in phases.items()
               for i, k in enumerate(("sent", "succeeded", "failed"))},
        },
        "context": {"ttft_samples": len(ttft), "itl_samples": len(itl),
                    "cancel_samples": len(cancels), "good": len(good)},
    }


def run_serve(w: ServeWorkload, seed: int, seconds: float, trace: bool, cpu) -> dict:
    raw = serve_once(w, seed, seconds, False, cpu)
    base = summarize_serve(w, seconds, raw)
    problems = list(base["problems"])
    extra = {}
    if w.backend == "functional":
        rate, n = token_match(seed, raw["streams"])
        extra["serve.token_match_rate"] = rate
        base["context"]["token_match"] = f"{rate:.4f} of {n} streams"
        if rate < TOKEN_MATCH_FLOOR:
            problems.append(
                f"token match rate {rate:.4f} over {n} streams is below {TOKEN_MATCH_FLOOR}"
            )
    result = {"attempted": base["attempted"], "failed": base["failed"],
              "context": base["context"]}
    if trace:
        raw = serve_once(w, seed, seconds, True, cpu)
        traced = summarize_serve(w, seconds, raw)
        problems += traced["problems"]
        layers = dict(raw["report"]["layers"])
        layers.update(traced["loadgen"])
        layers.update(extra)
        layers["trace.overhead_ratio"] = (
            traced["metrics"]["cpu_ms_per_req"] / base["metrics"]["cpu_ms_per_req"]
        )
        result["layers"] = layers
    else:
        result["metrics"] = base["metrics"]
    result["problems"] = problems
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    own_cpu, program_cpu = cpus()
    if own_cpu is not None:
        os.sched_setaffinity(0, {own_cpu})
    if w is REPLAY:
        result = run_replay(args.seed, args.seconds, trace, program_cpu)
    else:
        result = run_serve(w, args.seed, args.seconds, trace, program_cpu)
    return emit(result, trace)


def emit(result: dict, trace: bool) -> int:
    if trace:
        # A layer the workload does not run reads 0.
        values = {name: result["layers"].get(name, 0.0) for name, _ in PER_LAYER}
        names = PER_LAYER
        undeclared = sorted(set(result["layers"]) - set(values))
        if undeclared:
            result["problems"].append(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
    else:
        values, names = result["metrics"], END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in names}
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for key, value in result.get("context", {}).items():
        print(f"# {key} = {value}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
