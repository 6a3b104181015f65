"""Compute backends: how one batched invocation actually executes.

Both backends expose the same narrow interface the engine drives —
KvCache admission/append/release (backed by the page allocator) plus
``execute(plan, past_lens)`` returning the step latency and one new token
per request:

* :class:`SimulatedBackend` prices the invocation with the analytical A100
  model and emits placeholder tokens; response lengths come from the trace.
* :class:`NumpyBackend` runs the functional Llama on real token ids and
  samples real next tokens; it can *also* price the step with the cost
  model, so the same run yields both semantics and timing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.core.batch import BatchEntry, BatchPlan, plan_batch
from repro.core.lora import LoraRegistry
from repro.hw.kernels import KernelCostModel
from repro.hw.spec import A100_80G, GpuSpec
from repro.kvcache.pool import KvPool, PagedKvData
from repro.models.config import LlamaConfig
from repro.models.llama import LlamaModel, TokenBatch
from repro.models.perf import (
    PUNICA_FLAGS,
    PerfFlags,
    StepWorkload,
    model_step_latency,
    spec_round_latency,
    step_latency_from_terms,
    step_latency_steady,
    step_latency_steady_run,  # noqa: F401 -- wrapped by name in perfbench/spans.py
    step_latency_terms,
)
from repro.models.tp import SINGLE_GPU, TensorParallelConfig
from repro.models.weights import LlamaWeights
from repro.runtime.request import Request
from repro.runtime.sampler import GreedySampler
from repro.utils.fastpath import fastpath_enabled
from repro.utils.units import GIB

if TYPE_CHECKING:
    import random

    from repro.runtime.spec import SpecConfig


@dataclass(frozen=True)
class StepExecution:
    """Result of one batched invocation."""

    latency: float
    tokens: dict[str, int]
    """request_id -> the one token this invocation produced for it."""


@dataclass(frozen=True)
class SpecExecution:
    """Result of one speculative draft/verify round (docs/speculative.md)."""

    latency: float
    committed: dict[str, tuple[int, ...]]
    """request_id -> the 1..draft_len+1 tokens the round committed for it
    (accepted drafts plus the target's bonus/correction token)."""
    accepted: dict[str, int]
    """request_id -> accepted draft-token count (``len(committed) - 1``)."""
    proposed: int
    """Draft tokens proposed per request this round (= ``spec.draft_len``)."""


def workload_from_plan(
    plan: BatchPlan,
    past_lens: Mapping[str, int],
    serve_lora: bool,
    lora_rank: int,
) -> StepWorkload:
    """Translate a planned batch into the analytical workload description.

    The plan-shaped parts (prefill lengths, decode request order, segment
    sizes) are stashed in ``plan.derived``, so when the engine reuses one
    plan across steady-state decode steps only the per-step ``decode_kv``
    lookup is recomputed. Freshly built plans (the reference path builds
    one per step) simply miss and compute everything as before.
    """
    cached = plan.derived.get("workload")
    if cached is None:
        prefill_lens = tuple(e.num_tokens for e in plan.prefill_entries())
        decode_ids = tuple(e.request_id for e in plan.decode_entries())
        segments = tuple(int(s) for s in plan.segment_sizes)
        cached = (prefill_lens, decode_ids, segments)
        plan.derived["workload"] = cached
    prefill_lens, decode_ids, segments = cached
    return StepWorkload(
        prefill_lens=prefill_lens,
        decode_kv_lens=tuple(past_lens[rid] for rid in decode_ids),
        lora_segments=segments if serve_lora else None,
        lora_rank=lora_rank,
    )


class SimulatedBackend:
    """Analytical-latency backend for full-scale (7B/13B/70B) experiments."""

    supports_steady = True
    """The engine's steady decode lane may call :meth:`execute_steady`."""

    def __init__(
        self,
        config: LlamaConfig,
        gpu: GpuSpec = A100_80G,
        tp: TensorParallelConfig = SINGLE_GPU,
        flags: PerfFlags = PUNICA_FLAGS,
        lora_rank: int = 16,
        serve_lora: bool = True,
        page_size: int = 16,
        kv_capacity_bytes: float | None = None,
        workspace_bytes: float = 2 * GIB,
        step_overhead: float = 0.0005,
        unified_pool=None,
        fast_path: bool | None = None,
    ):
        """``kv_capacity_bytes`` defaults to HBM minus the (sharded) backbone
        weights minus a workspace reserve — the paper's "large fraction of
        GPU memory is reserved for KvCache". ``step_overhead`` is the
        per-invocation host time (scheduling, sampling, token streaming).

        With a :class:`~repro.adapters.pool.UnifiedMemoryPool` as
        ``unified_pool``, KvCache accounting is delegated to it so KvCache
        and adapter weights share one byte budget (adapters are demoted to
        host RAM under KvCache pressure); ``kv_capacity_bytes`` is then
        ignored — the pool's budget governs."""
        self.config = config
        self.gpu = gpu
        self.tp = tp
        self.flags = flags
        self.lora_rank = lora_rank
        self.serve_lora = serve_lora
        self.step_overhead = step_overhead
        self.fast_path = fastpath_enabled(fast_path)
        self.cost_model = KernelCostModel(gpu, memoize=self.fast_path)
        self._terms_key = ("latency_terms", self)
        """Key for this backend's latency-term cache in ``plan.derived`` —
        scoped by backend identity because the terms depend on config, TP,
        flags and rank, and one plan may be executed by several backends
        (the shape-only ``"workload"`` entry, by contrast, is shared)."""
        self._terms_memo: dict = {}
        """Cross-plan :class:`StepLatencyTerms` memo. Rotating batch
        membership yields thousands of distinct plans whose *shapes*
        (token counts, LoRA segment sizes) repeat heavily; the terms are
        a pure function of shape — decode KV lengths enter only under
        ``cache_concat``, where the full workload keys the memo instead."""
        self.pool = unified_pool
        if unified_pool is not None:
            self.kv = unified_pool.kv
            self._token_counter = 0
            return
        if kv_capacity_bytes is None:
            weights = config.weight_bytes() // tp.world_size
            kv_capacity_bytes = gpu.hbm_capacity - weights - workspace_bytes
            if kv_capacity_bytes <= 0:
                raise ValueError(
                    f"{config.name} does not fit on {gpu.name} with tp={tp.world_size}"
                )
        # Under TP the KvCache is sharded too; capacity stays per-GPU but
        # each token's bytes shrink by the shard factor, so pool tokens in
        # *logical* (unsharded) units for scheduler accounting.
        bytes_per_token = max(1, config.kv_bytes_per_token() // tp.world_size)
        self.kv = KvPool(
            capacity_bytes=kv_capacity_bytes,
            page_size=page_size,
            bytes_per_token=bytes_per_token,
        )
        self._token_counter = 0

    # -- KvCache interface ------------------------------------------------
    def kv_can_admit(self, prompt_len: int, headroom_tokens: int = 0) -> bool:
        if self.pool is not None:
            return self.pool.kv_can_admit(prompt_len, headroom_tokens)
        return self.kv.can_admit(prompt_len, headroom_tokens)

    def kv_admit(self, request_id: str, prompt_len: int) -> None:
        if self.pool is not None:
            self.pool.kv_admit(request_id, prompt_len)
            return
        self.kv.allocate(request_id, prompt_len)

    def kv_can_append(self, request_id: str) -> bool:
        if self.pool is not None:
            return self.pool.kv_can_append(request_id)
        return self.kv.can_append_token(request_id)

    def kv_append(self, request_id: str) -> None:
        if self.pool is not None:
            self.pool.kv_append(request_id)
            return
        self.kv.append_token(request_id)

    def kv_append_many(self, request_ids) -> None:
        """Batched decode append for the engine's steady-state fast lane.

        Semantically ``for rid in request_ids: kv_append(rid)``; without a
        unified pool it goes straight to the allocator's single-token fast
        path. The fast lane only runs when a free page per request is
        guaranteed, so no append here can fail mid-batch.
        """
        if self.pool is not None:
            for rid in request_ids:
                self.pool.kv_append(rid)
            return
        self.kv.allocator.append_tokens(request_ids)

    def kv_can_append_n(self, request_id: str, n: int) -> bool:
        """Whether ``n`` more KV slots fit this sequence (spec reservation)."""
        if self.pool is not None:
            # Conservative under the shared byte budget: each appended
            # token consumes at most one fresh page.
            return self.pool.kv_free_tokens() >= n * self.kv.page_size
        return self.kv.allocator.can_append(request_id, n)

    def kv_append_n(self, request_id: str, n: int) -> None:
        if self.pool is not None:
            for _ in range(n):
                self.pool.kv_append(request_id)
            return
        self.kv.allocator.append(request_id, n)

    def kv_truncate(self, request_id: str, new_len: int) -> int:
        """Roll a sequence back to ``new_len`` KV slots; returns pages freed.

        With a unified pool the truncate still lands on the shared
        allocator (``self.kv`` *is* ``pool.kv``) and the pool's byte
        accounting reads allocator state live, so freed pages return to
        the shared budget immediately.
        """
        return self.kv.truncate(request_id, new_len)

    def kv_release(self, request_id: str) -> None:
        if self.pool is not None:
            self.pool.kv_release(request_id)
            return
        if request_id in self.kv:
            self.kv.free(request_id)

    def kv_free_tokens(self) -> int:
        if self.pool is not None:
            return self.pool.kv_free_tokens()
        return self.kv.free_tokens

    def kv_headroom_pages(self) -> int:
        """Pages guaranteed allocatable right now, under every budget.

        If this is ``>= len(batch)`` then one decode append per request
        cannot fail (each consumes at most one page), so the fast lane can
        skip the per-slot can-append/evict checks entirely.
        """
        if self.pool is not None:
            return self.pool.kv_free_tokens() // self.pool.kv.page_size
        return self.kv.free_pages

    # -- KV handoff (disaggregated prefill/decode) ------------------------
    def kv_export(self, request_id: str) -> int:
        """Release a sequence for transfer; returns its token count."""
        tokens = self.kv.seq_len(request_id)
        if self.pool is not None:
            self.pool.kv_release(request_id)
        else:
            self.kv.export_sequence(request_id)
        return tokens

    def kv_can_import(self, num_tokens: int, headroom_tokens: int = 0) -> bool:
        """Whether an exported sequence of ``num_tokens`` fits here now."""
        return self.kv_can_admit(num_tokens, headroom_tokens)

    def kv_import(self, request_id: str, num_tokens: int) -> None:
        """Admit a sequence whose KV history arrived over the interconnect."""
        if self.pool is not None:
            self.pool.kv_admit(request_id, num_tokens)
            return
        self.kv.import_sequence(request_id, num_tokens)

    def kv_bytes_of(self, num_tokens: int) -> float:
        """Wire bytes of ``num_tokens`` of KV history on this GPU."""
        return self.kv.bytes_of(num_tokens)

    # -- execution ----------------------------------------------------------
    def execute(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        requests: Mapping[str, Request] | None = None,
    ) -> StepExecution:
        if self.fast_path:
            latency = self._fast_latency(plan, past_lens)
        else:
            work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
            latency = model_step_latency(
                self.config, self.cost_model, work, tp=self.tp, flags=self.flags
            )
        tokens = {}
        for entry in plan.entries:
            self._token_counter += 1
            tokens[entry.request_id] = self._token_counter
        return StepExecution(latency=latency + self.step_overhead, tokens=tokens)

    def execute_spec(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        spec: "SpecConfig",
        rng: "random.Random",
        requests: Mapping[str, Request] | None = None,
    ) -> SpecExecution:
        """One speculative draft/verify round over an all-decode plan.

        Pricing goes through :func:`~repro.models.perf.spec_round_latency`
        on both the fast and reference paths — the round has no per-plan
        term cache, so armed runs are trivially float-identical across
        paths. Acceptance counts come from a geometric model at
        ``spec.acceptance_rate`` using the engine-owned ``rng`` (seeded
        per GPU), drawn in plan decode order so replays are deterministic.
        ``past_lens`` holds the pre-reservation KV lengths (``T - 1``),
        exactly what a non-speculative decode step would see.
        """
        work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
        latency = spec_round_latency(
            self.config,
            self.cost_model,
            work,
            spec.draft_len,
            spec.draft_cost_ratio,
            tp=self.tp,
            flags=self.flags,
        )
        committed: dict[str, tuple[int, ...]] = {}
        accepted: dict[str, int] = {}
        counter = self._token_counter
        for rid in plan.derived["workload"][1]:
            m = 0
            while m < spec.draft_len and rng.random() < spec.acceptance_rate:
                m += 1
            toks = []
            for _ in range(m + 1):
                counter += 1
                toks.append(counter)
            committed[rid] = tuple(toks)
            accepted[rid] = m
        self._token_counter = counter
        return SpecExecution(
            latency=latency + self.step_overhead,
            committed=committed,
            accepted=accepted,
            proposed=spec.draft_len,
        )

    def execute_steady(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        total_kv: int,
    ) -> StepExecution:
        """Steady-lane :meth:`execute`: the all-decode plan is last step's.

        ``total_kv`` is ``sum(past + 1 for past in past_lens.values())``,
        maintained incrementally by the engine so neither the length list
        nor the dict values need rebuilding per step (``past_lens`` is
        consulted only on the first call for a plan, to build its term
        cache). Bit-identical to :meth:`execute` — see
        :func:`~repro.models.perf.step_latency_steady`.
        """
        cached = plan.derived.get(self._terms_key)
        if cached is None:
            latency = self._fast_latency(plan, past_lens)
        else:
            latency = step_latency_steady(
                self.config, self.cost_model, cached[0], total_kv
            )
        counter = self._token_counter
        tokens = {}
        for rid in plan.derived["workload"][1]:
            counter += 1
            tokens[rid] = counter
        self._token_counter = counter
        return StepExecution(latency=latency + self.step_overhead, tokens=tokens)

    def _terms_for(self, work: StepWorkload):
        """Memoized :func:`step_latency_terms` for one invocation shape.

        Without ``cache_concat`` every term is shape-invariant in the
        decode KV lengths, so the memo keys on shape alone and plans that
        re-batch the same composition share one build. With
        ``cache_concat`` the full workload (lengths included) is the key,
        which degrades to at-most-one hit — identical values either way.

        Under the SGMV and Gather-BMM operators the LoRA terms depend on
        the segment vector only through its sum and count (see
        :meth:`~repro.hw.kernels.KernelCostModel.lora_addon`), so the key
        collapses the segments to those aggregates and rotating LoRA
        membership stops defeating the memo. The Loop operator prices
        each segment individually, so it keeps the full tuple.
        """
        if self.flags.cache_concat:
            key = work
        else:
            segs = work.lora_segments
            if segs is not None and self.flags.lora_impl != "loop":
                segs = (sum(segs), len(segs))
            key = (
                work.prefill_lens,
                len(work.decode_kv_lens),
                segs,
                work.lora_rank,
            )
        terms = self._terms_memo.get(key)
        if terms is None:
            terms = step_latency_terms(
                self.config, self.cost_model, work, tp=self.tp, flags=self.flags
            )
            self._terms_memo[key] = terms
        return terms

    def _terms_for_plan(self, plan: BatchPlan, past_lens: Mapping[str, int]):
        """:meth:`_terms_for` keyed straight off the plan's cached shape.

        On a memo hit this skips building the :class:`StepWorkload`
        entirely (the decode-KV tuple is O(batch) dict lookups plus
        validation, paid only to *compute a key* otherwise); the key is
        constructed to match :meth:`_terms_for`'s exactly, so both paths
        share one memo. Falls back to the workload path when the plan
        shape is not cached yet or under ``cache_concat`` (where the KV
        lengths are part of the key).
        """
        shape = plan.derived.get("workload")
        if shape is None or self.flags.cache_concat:
            work = workload_from_plan(
                plan, past_lens, self.serve_lora, self.lora_rank
            )
            return self._terms_for(work)
        prefill_lens, decode_ids, segments = shape
        if not self.serve_lora:
            seg_key = None
        elif self.flags.lora_impl != "loop":
            seg_key = (sum(segments), len(segments))
        else:
            seg_key = segments
        key = (prefill_lens, len(decode_ids), seg_key, self.lora_rank)
        terms = self._terms_memo.get(key)
        if terms is None:
            work = workload_from_plan(
                plan, past_lens, self.serve_lora, self.lora_rank
            )
            terms = step_latency_terms(
                self.config, self.cost_model, work, tp=self.tp, flags=self.flags
            )
            self._terms_memo[key] = terms
        return terms

    def _fast_latency(self, plan: BatchPlan, past_lens: Mapping[str, int]) -> float:
        """Step latency via the per-plan invariant-term cache.

        Bit-identical to the ``model_step_latency`` call the reference
        path makes (see :class:`~repro.models.perf.StepLatencyTerms` for
        the summation-order argument); only the batched-decode-attention
        term is recomputed as KvCache lengths advance. The cache lives on
        the plan, keyed by this backend (``_terms_key``) since the terms
        depend on its config, TP, flags and rank — all fixed for its
        lifetime.
        """
        cached = plan.derived.get(self._terms_key)
        if cached is None:
            terms = self._terms_for_plan(plan, past_lens)
            decode_ids = plan.derived["workload"][1]
            cached = (terms, decode_ids)
            plan.derived[self._terms_key] = cached
        terms, decode_ids = cached
        return step_latency_from_terms(
            self.config,
            self.cost_model,
            terms,
            [past_lens[rid] for rid in decode_ids],
        )


class NumpyBackend:
    """Functional backend: really generates tokens at toy scale."""

    def __init__(
        self,
        weights: LlamaWeights,
        registry: LoraRegistry | None = None,
        total_pages: int = 256,
        page_size: int = 8,
        sampler=None,
        lora_rank: int = 16,
        cost_model: KernelCostModel | None = None,
        step_overhead: float = 0.0,
    ):
        cfg = weights.config
        self.config = cfg
        self.registry = registry
        self.lora_rank = lora_rank
        self.serve_lora = registry is not None
        self.sampler = sampler or GreedySampler()
        self.cost_model = cost_model
        self.step_overhead = step_overhead
        self.kv_data = PagedKvData(
            total_pages=total_pages,
            page_size=page_size,
            num_layers=cfg.num_layers,
            num_kv_heads=cfg.num_kv_heads,
            head_dim=cfg.head_dim,
            dtype=np.float64,
        )
        self.model = LlamaModel(weights, self.kv_data, registry)
        self._draft_model: LlamaModel | None = None
        self._draft_kv: PagedKvData | None = None
        self._draft_synced: dict[str, int] = {}
        """request_id -> tokens of committed history in the draft cache."""

    # -- KvCache interface ------------------------------------------------
    def kv_can_admit(self, prompt_len: int, headroom_tokens: int = 0) -> bool:
        return self.kv_data.allocator.can_allocate(prompt_len + headroom_tokens)

    def kv_admit(self, request_id: str, prompt_len: int) -> None:
        self.kv_data.allocate(request_id, prompt_len)

    def kv_can_append(self, request_id: str) -> bool:
        return self.kv_data.allocator.can_append(request_id, 1)

    def kv_append(self, request_id: str) -> None:
        self.kv_data.append_slot(request_id)

    def kv_append_many(self, request_ids) -> None:
        for rid in request_ids:
            self.kv_data.append_slot(rid)

    def kv_can_append_n(self, request_id: str, n: int) -> bool:
        return self.kv_data.allocator.can_append(request_id, n)

    def kv_append_n(self, request_id: str, n: int) -> None:
        self.kv_data.allocator.append(request_id, n)

    def kv_truncate(self, request_id: str, new_len: int) -> int:
        released = self.kv_data.truncate(request_id, new_len)
        # The draft cache may hold entries past the new committed length
        # (e.g. the engine clipped a round at the response limit); drop
        # them so the next round's catch-up starts from real history.
        if (
            self._draft_kv is not None
            and request_id in self._draft_kv.allocator
            and self._draft_synced.get(request_id, 0) > new_len
        ):
            self._draft_kv.truncate(request_id, new_len)
            self._draft_synced[request_id] = new_len
        return released

    def kv_release(self, request_id: str) -> None:
        if request_id in self.kv_data.allocator:
            self.kv_data.free(request_id)
        self._drop_draft(request_id)

    def _drop_draft(self, request_id: str) -> None:
        if self._draft_kv is not None and request_id in self._draft_kv.allocator:
            self._draft_kv.free(request_id)
            self._draft_synced.pop(request_id, None)

    def kv_free_tokens(self) -> int:
        return self.kv_data.allocator.free_pages * self.kv_data.page_size

    def kv_headroom_pages(self) -> int:
        return self.kv_data.allocator.free_pages

    # -- KV handoff (disaggregated prefill/decode) ------------------------
    # Accounting-only: pages move between allocators but the stored K/V
    # payload is not copied across PagedKvData arrays yet (see ROADMAP),
    # so functional-mode disaggregation re-prefills after import.
    def kv_export(self, request_id: str) -> int:
        tokens = self.kv_data.allocator.seq_len(request_id)
        self.kv_data.free(request_id)
        self._drop_draft(request_id)
        return tokens

    def kv_can_import(self, num_tokens: int, headroom_tokens: int = 0) -> bool:
        return self.kv_data.allocator.can_allocate(num_tokens + headroom_tokens)

    def kv_import(self, request_id: str, num_tokens: int) -> None:
        self.kv_data.allocate(request_id, num_tokens)

    def kv_bytes_of(self, num_tokens: int) -> float:
        return float(num_tokens) * self.config.kv_bytes_per_token()

    # -- execution ----------------------------------------------------------
    def execute(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        requests: Mapping[str, Request] | None = None,
    ) -> StepExecution:
        if requests is None:
            raise ValueError("NumpyBackend.execute needs the request objects")
        token_ids: list[int] = []
        pasts: list[int] = []
        for entry in plan.entries:
            req = requests[entry.request_id]
            if req.prompt_tokens is None:
                raise ValueError(
                    f"{entry.request_id} has no prompt tokens (functional mode needs them)"
                )
            if entry.is_prefill:
                history = list(req.prompt_tokens) + list(req.generated_tokens)
                if len(history) != entry.num_tokens:
                    raise ValueError(
                        f"prefill entry for {entry.request_id} covers {entry.num_tokens} "
                        f"tokens but history has {len(history)}"
                    )
                token_ids.extend(history)
            else:
                last = (
                    req.generated_tokens[-1]
                    if req.generated_tokens
                    else req.prompt_tokens[-1]
                )
                token_ids.append(int(last))
            pasts.append(past_lens[entry.request_id])

        batch = TokenBatch(plan, np.asarray(token_ids, dtype=np.int64), tuple(pasts))
        logits = self.model.forward(batch)
        tokens = {}
        for i, entry in enumerate(plan.entries):
            req = requests[entry.request_id]
            sampler = req.sampler if req.sampler is not None else self.sampler
            tokens[entry.request_id] = sampler.sample(logits[i])

        if self.cost_model is not None:
            work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
            latency = model_step_latency(self.config, self.cost_model, work)
        else:
            latency = 0.0
        return StepExecution(latency=latency + self.step_overhead, tokens=tokens)

    # -- speculative decoding ---------------------------------------------
    def _ensure_draft(self, spec: "SpecConfig") -> None:
        """Lazily build the truncated-layer draft model (docs/speculative.md).

        The draft shares the target's embedding, first ``k`` transformer
        layers, final norm and LM head — a self-drafting proxy — and owns
        a KvCache of the same page geometry. It never sees LoRA
        (``registry=None``): drafts only *propose*; verification is what
        must match the adapter-specific target distribution.
        """
        if self._draft_model is not None:
            return
        cfg = self.config
        k = (
            spec.draft_layers
            if spec.draft_layers is not None
            else max(1, cfg.num_layers // 2)
        )
        k = min(k, cfg.num_layers)
        draft_cfg = replace(cfg, name=f"{cfg.name}-draft", num_layers=k)
        w = self.model.weights
        draft_weights = LlamaWeights(
            config=draft_cfg,
            embedding=w.embedding,
            layers=w.layers[:k],
            final_norm=w.final_norm,
            lm_head=w.lm_head,
        )
        # Same page count as the target: the draft caches strictly fewer
        # slots per sequence (no +draft_len+1 reservation), so a round
        # that fit the target cannot exhaust the draft pool.
        self._draft_kv = PagedKvData(
            total_pages=self.kv_data.allocator.total_pages,
            page_size=self.kv_data.page_size,
            num_layers=k,
            num_kv_heads=cfg.num_kv_heads,
            head_dim=cfg.head_dim,
            dtype=np.float64,
        )
        self._draft_model = LlamaModel(draft_weights, self._draft_kv, None)

    def _forward_one(
        self, model: LlamaModel, rid: str, lora_id: str | None, toks, past: int
    ):
        """Single-entry forward of ``toks`` with ``past`` cached tokens.

        Returns the last position's logits. Single-token invocations use
        the decode entry shape — the same plan shape a non-speculative
        decode step of batch size one would build, which is what makes
        verification bit-comparable to the greedy baseline.
        """
        entry = BatchEntry(
            request_id=rid,
            lora_id=lora_id,
            num_tokens=len(toks),
            is_prefill=len(toks) > 1,
        )
        plan = plan_batch([entry])
        batch = TokenBatch(plan, np.asarray(toks, dtype=np.int64), (past,))
        return model.forward(batch)[0]

    def execute_spec(
        self,
        plan: BatchPlan,
        past_lens: Mapping[str, int],
        spec: "SpecConfig",
        rng: "random.Random",
        requests: Mapping[str, Request] | None = None,
    ) -> SpecExecution:
        """Real draft-then-verify round (``acceptance_rate`` is ignored).

        Per request: sync the draft cache to committed history, draft
        ``draft_len`` tokens autoregressively, then verify sequentially
        on the target — position ``j`` forwards the previous committed
        token and samples; the sampled token commits, and the round stops
        at the first draft mismatch. Because every verify forward sees
        exactly the KV state the greedy baseline's decode step ``j``
        would see, the committed stream is token-identical to
        non-speculative greedy decoding (tests/test_spec_oracle.py).
        """
        if requests is None:
            raise ValueError("NumpyBackend.execute_spec needs the request objects")
        self._ensure_draft(spec)
        draft_alloc = self._draft_kv.allocator
        d = spec.draft_len
        committed: dict[str, tuple[int, ...]] = {}
        accepted: dict[str, int] = {}
        for entry in plan.decode_entries():
            rid = entry.request_id
            req = requests[rid]
            toks = list(req.prompt_tokens) + list(req.generated_tokens)
            past = past_lens[rid]
            if past != len(toks) - 1:
                raise ValueError(
                    f"spec round for {rid}: past {past} != committed "
                    f"history {len(toks)} - 1"
                )
            sampler = req.sampler if req.sampler is not None else self.sampler
            # Sync the draft cache: positions [0, past) hold history up
            # to toks[past-1]; toks[past] seeds the first draft step.
            if rid not in draft_alloc:
                self._draft_kv.allocate(rid, past)
                self._draft_synced[rid] = 0
            synced = self._draft_synced[rid]
            if synced > past:  # safety net; kv_truncate normally handles this
                self._draft_kv.truncate(rid, past)
                synced = past
            if synced < past:
                need = past - draft_alloc.seq_len(rid)
                if need > 0:
                    draft_alloc.append(rid, need)
                self._forward_one(
                    self._draft_model, rid, entry.lora_id, toks[synced:past], synced
                )
            # Draft d tokens; step i writes its input at position past + i.
            drafts: list[int] = []
            cur = toks[past]
            for i in range(d):
                pos = past + i
                if draft_alloc.seq_len(rid) < pos + 1:
                    draft_alloc.append(rid, pos + 1 - draft_alloc.seq_len(rid))
                logits = self._forward_one(
                    self._draft_model, rid, entry.lora_id, [cur], pos
                )
                cur = sampler.sample(logits)
                drafts.append(cur)
            # Sequential verify on the target: the engine reserved d + 1
            # slots, so position past + j is writable for j in [0, d].
            out: list[int] = []
            v = toks[past]
            for j in range(d + 1):
                logits = self._forward_one(self.model, rid, entry.lora_id, [v], past + j)
                tok = sampler.sample(logits)
                out.append(tok)
                if j == d or tok != drafts[j]:
                    break
                v = drafts[j]
            committed[rid] = tuple(out)
            accepted[rid] = len(out) - 1
            # Keep only the draft-cache prefix that is committed history:
            # positions [0, past] plus accepted drafts still on the path.
            keep = past + 1 + min(len(out) - 1, d - 1)
            self._draft_kv.truncate(rid, keep)
            self._draft_synced[rid] = keep

        if self.cost_model is not None:
            work = workload_from_plan(plan, past_lens, self.serve_lora, self.lora_rank)
            latency = spec_round_latency(
                self.config, self.cost_model, work, d, spec.draft_cost_ratio
            )
        else:
            latency = 0.0
        return SpecExecution(
            latency=latency + self.step_overhead,
            committed=committed,
            accepted=accepted,
            proposed=d,
        )
