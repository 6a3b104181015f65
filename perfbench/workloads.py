"""The benchmark's workloads and the inputs each one draws from its seed.

Everything random here comes from ``random.Random(seed)``: the same seed
gives the same schedule, adapters, prompt tokens, lengths and cancels.
The programs under test receive only these generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def adapter_ids(n: int) -> "list[str]":
    return [f"lora-{k:02d}" for k in range(n)]


RANKS = (8, 16, 32)
ZIPF_ALPHA = 1.5


def adapter_rank(index: int) -> int:
    """Mixed ranks: adapter ``k`` gets ``RANKS[k % 3]``."""
    return RANKS[index % len(RANKS)]


@dataclass(frozen=True)
class ReplayWorkload:
    """Offline simulator run over a slice of ``repro.workloads.scale.FIG13_1M``."""

    name: str = "cluster_replay"
    fraction: float = 0.02
    """0.02 of the million-request scenario: 20,000 requests on 8 GPUs."""
    traces: int = 2
    """Distinct traces drawn from one seed; the modelled latencies are
    percentiles over all of their requests. The traces are then replayed
    again, so each repeat's modelled outputs can be compared."""
    ttft_limit_ms: float = 1000.0
    itl_limit_ms: float = 25.0
    """Goodput limits on the modelled clock."""


@dataclass(frozen=True)
class ServeWorkload:
    """Open-loop Poisson arrivals over loopback TCP into one serving stack."""

    name: str
    backend: str
    """``functional`` (NumPy engine) or ``sim`` (cluster simulator)."""
    rate: float
    """Offered load, requests per wall second."""
    num_adapters: int
    ttft_limit_ms: float
    """Goodput: a finished stream counts when its TTFT is within this and
    its mean inter-token gap within ``ITL_LIMIT_MS``."""
    cancel_fraction: float = 0.0
    """Share of streams that send a ``CancelOp`` after ``CANCEL_AFTER`` tokens."""


# Shared by both serve workloads.
WARMUP_S = 3.0
PROMPT_RANGE = (8, 64)
RESPONSE_RANGE = (8, 32)
MAX_BATCH_SIZE = 32
ITL_LIMIT_MS = 50.0
CANCEL_AFTER = (2, 4)

# serve_lora_functional: the tiny Llama and its KV pool (built in stacks.py).
MODEL_GEOMETRY = {"hidden_size": 128, "num_layers": 2, "num_heads": 8, "vocab_size": 1024}
KV_PAGES = 512
KV_PAGE_SIZE = 16
REPLAY_SAMPLE = 24
"""Finished measured streams replayed solo for the token-match check."""
TOKEN_MATCH_FLOOR = 1.0

# serve_sim_churn: the simulated cluster behind the serving stack.
SIM_GPUS = 4
SIM_WARP = 1.0
"""Virtual seconds per wall second."""
SIM_QUANTUM = 0.01
"""Virtual seconds per pump iteration."""
SIM_STEP_OVERHEAD = 0.0005
"""Modelled host time per engine step, in seconds."""


REPLAY = ReplayWorkload()

FUNCTIONAL = ServeWorkload(
    name="serve_lora_functional",
    backend="functional",
    rate=12.0,
    num_adapters=16,
    ttft_limit_ms=250.0,
)

SIM_CHURN = ServeWorkload(
    name="serve_sim_churn",
    backend="sim",
    rate=15.0,
    num_adapters=64,
    cancel_fraction=0.25,
    ttft_limit_ms=100.0,
)

WORKLOADS = {w.name: w for w in (REPLAY, FUNCTIONAL, SIM_CHURN)}


@dataclass(frozen=True)
class PlannedRequest:
    """One stream the load generator will open."""

    request_id: str
    phase: str
    """``warmup`` or ``measured``."""
    due: float
    """Seconds after the load generator starts."""
    lora_id: str
    prompt_len: int
    response_len: int
    prompt_tokens: "tuple[int, ...] | None"
    cancel_after: "int | None"
    """Send a ``CancelOp`` once this many tokens have arrived."""

    def generate_op(self) -> dict:
        op = {
            "op": "generate",
            "request_id": self.request_id,
            "tenant": "",
            "lora_id": self.lora_id,
            "prompt_len": self.prompt_len,
            "response_len": self.response_len,
        }
        if self.prompt_tokens is not None:
            op["prompt_tokens"] = list(self.prompt_tokens)
        return op


def poisson_times(rng: random.Random, rate: float, start: float, seconds: float) -> "list[float]":
    """A Poisson schedule on ``[start, start + seconds)`` conditioned on its
    expected count: ``round(rate * seconds)`` uniform points, sorted."""
    n = max(1, round(rate * seconds))
    return sorted(start + rng.random() * seconds for _ in range(n))


def plan_requests(w: ServeWorkload, seed: int, seconds: float, tag: str) -> "list[PlannedRequest]":
    """The warm-up and measured streams of one run, in due order.

    The first warm-up streams visit every adapter once, so the measured
    phase starts with each adapter loaded; the warm-up lasts long enough
    to hold one stream per adapter. ``tag`` keeps request ids unique
    across the servers of one run.
    """
    rng = random.Random(seed)
    ids = adapter_ids(w.num_adapters)
    weights = [(k + 1) ** -ZIPF_ALPHA for k in range(w.num_adapters)]
    warmup = max(WARMUP_S, w.num_adapters / w.rate)
    times = [("warmup", t) for t in poisson_times(rng, w.rate, 0.0, warmup)]
    times += [("measured", t) for t in poisson_times(rng, w.rate, warmup, seconds)]
    plan = []
    for i, (phase, due) in enumerate(times):
        lora_id = ids[i] if i < len(ids) else rng.choices(ids, weights)[0]
        prompt_len = rng.randint(*PROMPT_RANGE)
        response_len = rng.randint(*RESPONSE_RANGE)
        tokens = None
        if w.backend == "functional":
            tokens = tuple(rng.randrange(MODEL_GEOMETRY["vocab_size"]) for _ in range(prompt_len))
        cancel_after = None
        if rng.random() < w.cancel_fraction:
            cancel_after = rng.randint(*CANCEL_AFTER)
        plan.append(PlannedRequest(
            request_id=f"{tag}-{seed}-{i:06d}", phase=phase, due=due,
            lora_id=lora_id, prompt_len=prompt_len, response_len=response_len,
            prompt_tokens=tokens, cancel_after=cancel_after,
        ))
    return plan
