"""Million-request scale workloads: vectorized ``fig13_1m`` generation.

:func:`~repro.workloads.trace.generate_trace` builds specs one at a time
through scalar RNG draws — fine for the thousands of requests the figure
benches need, painful for the million-request scale-out runs. This
module generates the same *kind* of workload (trapezoid-ramp Poisson
arrivals, Zipf-popular LoRA models) with bulk array ops so trace
construction stays a small fraction of simulation wall-clock even at
10^6 requests.

Two deliberate departures from the figure-13 generator keep scale runs
bounded:

* **Conditional sampling.** Instead of thinning a Poisson stream (whose
  count is random), arrival times are drawn as ``n`` i.i.d. samples from
  the normalized ramp intensity and sorted. Conditioned on the total
  count, a non-homogeneous Poisson process *is* exactly this
  distribution, so the workload shape is unchanged while the request
  count is exact — a 1M-request run means 1M requests.
* **Short lengths.** Prompt/response lengths are short uniform draws
  rather than ShareGPT samples, so a million requests is ~10M simulated
  steps, not ~200M, and peak KV residency stays well inside one
  allocator arena.

``fraction`` scales the scenario *down* self-similarly: request count
and duration shrink together so the instantaneous arrival rate — and
therefore cluster utilization — is preserved. The perf gate's smoke
budget runs a small fraction; the opt-in ``scale`` CI job runs 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import spawn_rngs
from repro.workloads.trace import RequestSpec, Trace


@dataclass(frozen=True)
class ScaleScenario:
    """A self-similar large-scale cluster workload description."""

    name: str
    n_requests: int
    num_gpus: int
    num_models: int
    peak_rate: float
    hold_fraction: float
    prompt_range: "tuple[int, int]"
    response_range: "tuple[int, int]"
    alpha: float = 1.5
    max_batch_size: int = 32

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {self.peak_rate}")
        if not 0.0 <= self.hold_fraction < 1.0:
            raise ValueError(f"hold_fraction must be in [0, 1), got {self.hold_fraction}")
        for label, (lo, hi) in (("prompt_range", self.prompt_range),
                                ("response_range", self.response_range)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{label} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")

    @property
    def duration(self) -> float:
        """Trace duration implied by the trapezoid ramp's mean rate.

        The trapezoid's area is ``peak * duration * (1 + hold) / 2``;
        solving for the duration that makes the expected count equal
        ``n_requests`` keeps utilization independent of scale.
        """
        mean_rate = self.peak_rate * (1.0 + self.hold_fraction) / 2.0
        return self.n_requests / mean_rate

    def at_fraction(self, fraction: float) -> "ScaleScenario":
        """The same scenario shrunk self-similarly to ``fraction``."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        n = max(1, round(self.n_requests * fraction))
        return ScaleScenario(
            name=self.name, n_requests=n, num_gpus=self.num_gpus,
            num_models=self.num_models, peak_rate=self.peak_rate,
            hold_fraction=self.hold_fraction, prompt_range=self.prompt_range,
            response_range=self.response_range, alpha=self.alpha,
            max_batch_size=self.max_batch_size,
        )


#: The million-request scale-out scenario: 8 GPUs, short generations,
#: trapezoid ramp to 60 req/s. Full scale is the ``scale``-marked CI job;
#: the perf gate smoke runs ``at_fraction`` of it.
FIG13_1M = ScaleScenario(
    name="fig13_1m",
    n_requests=1_000_000,
    num_gpus=8,
    num_models=256,
    peak_rate=60.0,
    hold_fraction=0.2,
    prompt_range=(4, 24),
    response_range=(4, 16),
)


def _ramp_arrival_times(
    n: int, duration: float, hold_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """``n`` sorted arrival times ~ the normalized trapezoid intensity.

    Inverse-CDF sampling over a dense piecewise-linear grid of the
    cumulative intensity: one ``random`` draw, one ``interp``, one sort —
    all vectorized. Conditioned on the count, this is exactly the
    distribution a thinned non-homogeneous Poisson process would give.
    """
    grid = np.linspace(0.0, duration, 4097)
    ramp = (1.0 - hold_fraction) / 2.0 * duration
    rate = np.minimum(grid / ramp, np.minimum(1.0, (duration - grid) / ramp))
    rate = np.maximum(rate, 0.0)
    cdf = np.concatenate(((0.0,), np.cumsum((rate[1:] + rate[:-1]) / 2.0)))
    cdf /= cdf[-1]
    times = np.interp(rng.random(n), cdf, grid)
    times.sort()
    return times


def _zipf_model_ids(
    n: int, num_models: int, alpha: float, rng: np.random.Generator
) -> "list[str]":
    """``n`` LoRA ids drawn Zipf(``alpha``) over ``num_models`` models."""
    ranks = np.arange(1, num_models + 1, dtype=np.float64)
    probs = ranks ** -alpha
    probs /= probs.sum()
    idx = rng.choice(num_models, size=n, p=probs)
    names = [f"lora-{k:04d}" for k in range(num_models)]
    return [names[k] for k in idx.tolist()]


def scale_trace(
    scenario: ScaleScenario = FIG13_1M,
    fraction: float = 1.0,
    seed: "int | None" = 0,
) -> Trace:
    """Generate a :class:`~repro.workloads.trace.Trace` for ``scenario``.

    Mirrors :func:`~repro.workloads.trace.generate_trace`'s three
    independent RNG streams (popularity, lengths, arrivals) so varying
    one knob leaves the other draws unchanged — but every stream is
    sampled in bulk.
    """
    sc = scenario.at_fraction(fraction)
    rng_pop, rng_len, rng_arr = spawn_rngs(seed, 3)
    n = sc.n_requests
    lora_ids = _zipf_model_ids(n, sc.num_models, sc.alpha, rng_pop)
    p_lo, p_hi = sc.prompt_range
    r_lo, r_hi = sc.response_range
    prompts = rng_len.integers(p_lo, p_hi + 1, size=n)
    responses = rng_len.integers(r_lo, r_hi + 1, size=n)
    times = _ramp_arrival_times(n, sc.duration, sc.hold_fraction, rng_arr)
    width = max(5, len(str(n - 1)))
    specs = [
        RequestSpec(
            request_id=f"req-{i:0{width}d}",
            lora_id=lora_ids[i],
            arrival_time=t,
            prompt_len=p,
            response_len=r,
        )
        for i, (t, p, r) in enumerate(
            zip(times.tolist(), prompts.tolist(), responses.tolist())
        )
    ]
    return Trace(tuple(specs))


def fig13_1m_trace(fraction: float = 1.0, seed: "int | None" = 0) -> Trace:
    """The ``fig13_1m`` trace (possibly shrunk self-similarly)."""
    return scale_trace(FIG13_1M, fraction=fraction, seed=seed)
