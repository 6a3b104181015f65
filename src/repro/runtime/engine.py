"""The single-GPU continuous-batching engine (paper §5).

Each call to :meth:`GpuEngine.step` runs one batched model invocation:

* every RUNNING request contributes one decode token;
* at most ``prefill_batch_limit`` (=1, §5) pending requests whose LoRA
  weights have finished loading are prefilled in the same invocation;
* decode requests needing a new KvCache slot that cannot get one trigger
  eviction of the *newest* requests (preserving FCFS, §5.3); evicted
  requests are reported so the cluster scheduler can re-place them;
* finished requests (length limit or EOS) leave the batch immediately —
  the separable paged KvCache makes this free (§5.4).

The engine is clock-free: callers pass ``now`` in and get the step latency
back, so the same code runs under the discrete-event cluster simulator and
under simple closed-loop drivers.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


from repro.core.batch import (
    BatchEntry,
    BatchPlan,
    PlanCache,
    plan_batch,
    plan_decode_batch,
)
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.loader import LoraLoader
from repro.runtime.request import Request, RequestState
from repro.runtime.spec import SpecConfig
from repro.utils.fastpath import fastpath_enabled


@dataclass(frozen=True)
class EngineConfig:
    """Engine policy knobs (paper defaults)."""

    max_batch_size: int = 32
    """Profiled sweet spot on A100 (§5.1)."""
    prefill_batch_limit: int = 1
    """Prefills per invocation; 1 minimizes the latency penalty (§5)."""
    same_lora_only: bool = False
    """Baseline restriction: batch only requests of one LoRA model (§7)."""
    eos_token_id: int | None = None
    """Functional mode's end-of-sequence stopping condition."""
    admission_headroom_tokens: int = 0
    """Extra free KvCache tokens required before admitting a new request."""
    spec: "SpecConfig | None" = None
    """Arm the speculative decoding lane (docs/speculative.md): pure-decode
    invocations become draft/verify rounds committing 1..draft_len+1
    tokens per request; steps with pending work take the classic path."""

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.prefill_batch_limit < 1:
            # 0 used to pass validation but silently starves every queued
            # request: nothing pending can ever prefill, so the engine
            # reports no progress forever. Reject it outright.
            raise ValueError(
                "prefill_batch_limit must be >= 1 "
                "(0 would starve every queued request)"
            )


@dataclass(frozen=True)
class StepReport:
    """What one engine step did — the unit every metric aggregates over."""

    gpu_id: str
    start: float
    latency: float
    batch_size: int
    num_prefill: int
    num_decode: int
    num_lora_segments: int
    new_tokens: dict[str, int]
    finished: tuple[str, ...]
    evicted: tuple[str, ...]
    committed: "dict[str, tuple[int, ...]] | None" = None
    """Speculative rounds only: every token each request committed this
    step, in order (``new_tokens`` then holds the last of each). ``None``
    on classic steps, where each request commits exactly one token."""

    @property
    def end(self) -> float:
        return self.start + self.latency

    @property
    def tokens_generated(self) -> int:
        if self.committed is not None:
            return sum(len(toks) for toks in self.committed.values())
        return len(self.new_tokens)

    def committed_tokens(self) -> "dict[str, tuple[int, ...]]":
        """Tokens committed per request this step (singletons off-spec)."""
        if self.committed is not None:
            return self.committed
        return {rid: (tok,) for rid, tok in self.new_tokens.items()}


@dataclass
class _Slot:
    request: Request
    admit_seq: int


class GpuEngine:
    """Continuous-batching engine for one GPU (or one TP group)."""

    def __init__(
        self,
        gpu_id: str,
        backend,
        config: EngineConfig | None = None,
        loader: LoraLoader | None = None,
        tracer: "Tracer | None" = None,
        fast_path: bool | None = None,
        role: str = "both",
    ):
        self.gpu_id = gpu_id
        self.backend = backend
        self.config = config or EngineConfig()
        self.loader = loader or LoraLoader()
        if role not in ("both", "prefill", "decode"):
            raise ValueError(f"role must be 'both', 'prefill' or 'decode', got {role!r}")
        self.role = role
        """Disaggregated-serving role: ``"prefill"`` engines hand finished
        prefills off to the decode pool, ``"decode"`` engines only admit
        imported KV. ``"both"`` (default) is the classic colocated mode."""
        self.tracer = tracer
        """Optional :class:`~repro.obs.tracer.Tracer` receiving PLACE /
        PREFILL / DECODE_STEP / FINISH / QUEUE(evicted) events."""
        self._working: dict[str, _Slot] = {}
        self._working_order: list[_Slot] = []
        """The slots of ``_working`` in ascending ``admit_seq`` — the batch
        iteration order, maintained incrementally instead of re-sorted
        every step."""
        self._pending: list[_Slot] = []
        self._num_importing = 0
        """Pending slots holding imported KV (``needs_prefill`` False) that
        wait only for their adapter load before joining the decode batch.
        Zero outside disaggregated mode, so the hot loop's promotion check
        is one falsy integer test."""
        self._admit_seq = 0
        self.fast_path = fastpath_enabled(fast_path)
        self._plan_cache = PlanCache() if self.fast_path else None
        self._spec = self.config.spec
        if self._spec is not None and not hasattr(backend, "execute_spec"):
            raise ValueError(
                f"{gpu_id}: speculative decoding is armed but backend "
                f"{type(backend).__name__} has no execute_spec"
            )
        self._spec_rng = (
            random.Random(f"{self._spec.seed}:{gpu_id}")
            if self._spec is not None
            else None
        )
        """Acceptance RNG of the simulated backend's geometric model —
        engine-owned so the fast and reference paths consume identical
        draws (the backend has no per-path state of its own)."""
        self.spec_rounds = 0
        """Speculative rounds run (diagnostic, like ``fast_steps``)."""
        # The steady lane assumes one token per request per step; armed
        # engines always take the spec round instead.
        self._steady_ok = (
            self.fast_path
            and getattr(backend, "supports_steady", False)
            and self._spec is None
        )
        # Steady-state decode cache: valid while the batch membership is
        # unchanged and nothing is pending. ``_steady_plan is None`` means
        # the next step must take the general path and rebuild it.
        self._steady_plan: "BatchPlan | None" = None
        self._steady_slots: list[_Slot] = []
        self._steady_pairs: "list[tuple[Request, str]]" = []
        self._steady_past: dict[str, int] = {}
        self._steady_total = 0
        self._steady_rem: "list[int] | None" = None
        self._entry_cache: dict[str, BatchEntry] = {}
        """Decode :class:`BatchEntry` per request id — entries are
        immutable, so each request's is built once and reused across
        steady-plan rebuilds."""
        self.fast_steps = 0
        """Steps served by the steady-state decode lane (diagnostic only —
        deliberately not a registry metric so differential runs compare
        equal)."""
        self.slow_steps = 0
        self.alive = True
        """False once the GPU crashed; a dead engine accepts and runs nothing."""
        self.slowdown_factor = 1.0
        """Multiplier on step latency (fault injection: thermal throttling,
        a noisy neighbour, ECC retirement storms). 1.0 = healthy."""

    # ------------------------------------------------------------------
    # Scheduler-facing state
    # ------------------------------------------------------------------
    @property
    def working_set_size(self) -> int:
        """The LLM-invocation batch size the scheduler routes on (§5.1)."""
        return len(self._working) + len(self._pending)

    @property
    def is_idle(self) -> bool:
        return self.working_set_size == 0

    def kv_free_tokens(self) -> int:
        return self.backend.kv_free_tokens()

    def active_lora_ids(self) -> set[str]:
        slots = list(self._working.values()) + self._pending
        return {s.request.lora_id for s in slots}

    def can_accept(self, request: Request) -> bool:
        """Admission test the cluster scheduler runs (§5.1 constraints).

        Besides batch-size and KvCache headroom, the request's adapter must
        fit: a non-resident adapter's bytes count against the (possibly
        KvCache-shared) memory budget, so a GPU whose pinned adapters leave
        no room declines rather than failing the load later.
        """
        if not self.alive:
            return False
        if self.working_set_size >= self.config.max_batch_size:
            return False
        if self.config.same_lora_only:
            active = self.active_lora_ids()
            if active and request.lora_id not in active:
                return False
        if not self.loader.can_admit_adapter(
            request.lora_id, self._default_lora_bytes()
        ):
            return False
        return self.backend.kv_can_admit(
            request.effective_prompt_len, self.config.admission_headroom_tokens
        )

    def adapter_tier(self, lora_id: str) -> int:
        """Residency tier of an adapter on this GPU (2 GPU / 1 HOST / 0 DISK)
        — the locality signal the cluster scheduler's routing consults."""
        return int(self.loader.tier(lora_id))

    def _default_lora_bytes(self) -> float:
        """Fallback adapter size when the registry has no metadata."""
        return float(self.backend.config.lora_bytes(self.backend.lora_rank))

    def all_requests(self) -> list[Request]:
        """Every request currently on this GPU (working + pending), in
        admission order — what the migration pass iterates over."""
        return [s.request for s in self._all_slots()]

    def _all_slots(self) -> "list[_Slot]":
        """Working + pending slots in admission order. Both source lists are
        already ascending in ``admit_seq`` (working is maintained so;
        pending is append-ordered), so a linear merge replaces the old
        full sort."""
        return list(
            heapq.merge(self._working_order, self._pending, key=lambda s: s.admit_seq)
        )

    def next_ready_time(self) -> "float | None":
        """Earliest time a pending request's LoRA load completes.

        ``None`` when nothing is pending. The cluster simulator uses this to
        wake a GPU that returned an empty step while a weight copy was in
        flight (§5.2's overlap of loading and compute).
        """
        times = [self.loader.ready_time(s.request.lora_id) for s in self._pending]
        return min(times) if times else None

    def has_request(self, request_id: str) -> bool:
        return request_id in self._working or any(
            s.request.request_id == request_id for s in self._pending
        )

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add_request(self, request: Request, now: float) -> None:
        """Assign a request to this GPU; its LoRA load starts immediately."""
        if self.has_request(request.request_id):
            raise ValueError(f"request {request.request_id} already on {self.gpu_id}")
        if not self.can_accept(request):
            raise RuntimeError(
                f"{self.gpu_id} cannot accept {request.request_id} "
                f"(working set {self.working_set_size}, "
                f"free kv tokens {self.kv_free_tokens()})"
            )
        self.loader.request_load(request.lora_id, self._default_lora_bytes(), now)
        self.loader.acquire(request.lora_id, now)
        request.needs_prefill = True
        request.mark_running(self.gpu_id, now)
        self._pending.append(_Slot(request=request, admit_seq=self._admit_seq))
        self._admit_seq += 1
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.PLACE, request.request_id, self.gpu_id,
                lora=request.lora_id,
            )

    def cancel(self, request_id: str, requeue: bool = False) -> Request:
        """Remove a request: user cancellation, or migration step 1 (§5.3).

        With ``requeue=True`` the request keeps its generated prefix and
        returns to QUEUED (the migration path); otherwise it is CANCELLED.
        """
        self._steady_plan = None
        slot = self._working.pop(request_id, None)
        if slot is not None:
            self._working_order.remove(slot)
        if slot is None:
            for i, s in enumerate(self._pending):
                if s.request.request_id == request_id:
                    slot = self._pending.pop(i)
                    if not slot.request.needs_prefill:
                        self._num_importing -= 1
                    break
        if slot is None:
            raise KeyError(f"request {request_id} not on {self.gpu_id}")
        self.backend.kv_release(request_id)
        self.loader.release(slot.request.lora_id)
        if requeue:
            slot.request.evict()
        else:
            slot.request.mark_cancelled()
        return slot.request

    def fail(self, now: float) -> list[Request]:
        """GPU crash: mark the engine dead and displace every request.

        Displaced requests keep their generated prefix and return to QUEUED
        (the §5.3 migration semantics) so the cluster scheduler can re-place
        them with a re-prefill on a surviving GPU. KvCache and adapter pins
        die with the GPU, so no release bookkeeping survives the crash.
        """
        self.alive = False
        self._steady_plan = None
        slots = self._all_slots()
        self._working.clear()
        self._working_order.clear()
        self._pending.clear()
        self._num_importing = 0
        displaced = []
        for slot in slots:
            slot.request.evict()
            displaced.append(slot.request)
        return displaced

    # ------------------------------------------------------------------
    # KV handoff (disaggregated prefill/decode serving)
    # ------------------------------------------------------------------
    def export_request(self, request_id: str, now: float) -> "tuple[Request, int]":
        """Detach a prefilled request for handoff to a decode GPU.

        The request must be in the working (decoding) set — i.e. its
        prefill already ran here. Its KvCache pages are released locally
        (the bytes travel over the interconnect; the caller models that
        cost) and the adapter pin is dropped. Returns the request plus the
        token count of the exported KV history.
        """
        slot = self._working.pop(request_id, None)
        if slot is None:
            raise KeyError(f"request {request_id} not working on {self.gpu_id}")
        self._working_order.remove(slot)
        self._steady_plan = None
        kv_tokens = self.backend.kv_export(request_id)
        self.loader.release(slot.request.lora_id)
        request = slot.request
        request.suspend_for_transfer()
        request.kv_len = kv_tokens
        return request, kv_tokens

    def can_accept_import(self, request: Request, kv_tokens: int) -> bool:
        """Admission test for a request arriving with its KV history.

        Mirrors :meth:`can_accept` but sizes the KvCache check by the
        imported history instead of a prefill over the prompt."""
        if not self.alive:
            return False
        if self.working_set_size >= self.config.max_batch_size:
            return False
        if self.config.same_lora_only:
            active = self.active_lora_ids()
            if active and request.lora_id not in active:
                return False
        if not self.loader.can_admit_adapter(
            request.lora_id, self._default_lora_bytes()
        ):
            return False
        return self.backend.kv_can_import(
            kv_tokens, self.config.admission_headroom_tokens
        )

    def import_request(self, request: Request, kv_tokens: int, now: float) -> None:
        """Admit a request whose KV pages just arrived over the interconnect.

        No prefill is needed: the pages are materialized immediately and
        the request joins the decode batch as soon as its adapter is
        resident here (the load starts now and may overlap other work).
        """
        if self.has_request(request.request_id):
            raise ValueError(f"request {request.request_id} already on {self.gpu_id}")
        if not self.can_accept_import(request, kv_tokens):
            raise RuntimeError(
                f"{self.gpu_id} cannot import {request.request_id} "
                f"(working set {self.working_set_size}, "
                f"free kv tokens {self.kv_free_tokens()})"
            )
        self.loader.request_load(request.lora_id, self._default_lora_bytes(), now)
        self.loader.acquire(request.lora_id, now)
        self.backend.kv_import(request.request_id, kv_tokens)
        request.kv_len = kv_tokens
        request.needs_prefill = False
        request.mark_running(self.gpu_id, now)
        self._pending.append(_Slot(request=request, admit_seq=self._admit_seq))
        self._admit_seq += 1
        self._num_importing += 1
        self._steady_plan = None
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.PLACE, request.request_id, self.gpu_id,
                lora=request.lora_id, imported_kv=kv_tokens,
            )

    def _promote_imports(self, now: float) -> None:
        """Move imported slots whose adapter is resident into the decode
        batch; they contribute a decode token in this very invocation."""
        remaining: list[_Slot] = []
        for slot in self._pending:
            req = slot.request
            if not req.needs_prefill and self.loader.is_ready(req.lora_id, now):
                self._working[req.request_id] = slot
                self._order_insert(slot)
                self._num_importing -= 1
            else:
                remaining.append(slot)
        self._pending = remaining

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, now: float) -> StepReport | None:
        """Run one batched invocation; ``None`` when nothing can run."""
        if not self.alive:
            return None
        if (
            self._steady_plan is not None
            and not self._pending
            and self.backend.kv_headroom_pages() >= len(self._steady_slots)
        ):
            return self._step_steady(now)
        self.loader.advance(now)
        if self._num_importing:
            self._promote_imports(now)
        if self._spec is not None and not self._pending and self._working_order:
            return self._step_spec(now)
        self.slow_steps += 1
        # Reserve one new KvCache slot per decode request FIRST (evicting
        # newest requests on pressure), so prefill admission below can only
        # use pages genuinely left over.
        evicted: list[str] = []
        decode_slots: list[_Slot] = []
        past_lens: dict[str, int] = {}
        work_slots = list(self._working_order)
        if (
            self.fast_path
            and work_slots
            and self.backend.kv_headroom_pages() >= len(work_slots)
        ):
            # A free page per working request: no append can fail, so no
            # eviction can trigger — skip the per-slot checks and append
            # in one allocator pass (same request order, same pages).
            rids: list[str] = []
            for slot in work_slots:
                req = slot.request
                rids.append(req.request_id)
                past_lens[req.request_id] = req.kv_len
                req.kv_len += 1
                decode_slots.append(slot)
            self.backend.kv_append_many(rids)
        else:
            appended: set[str] = set()
            for slot in work_slots:
                req = slot.request
                rid = req.request_id
                if rid not in self._working:  # evicted as a victim earlier
                    continue
                past = req.kv_len
                if not self._append_with_eviction(rid, appended, evicted):
                    continue  # this request itself was evicted
                appended.add(rid)
                req.kv_len += 1
                past_lens[rid] = past
                decode_slots.append(slot)

        if self.tracer is not None:
            for rid in evicted:
                self.tracer.emit(
                    now, EventKind.QUEUE, rid, self.gpu_id, reason="evicted"
                )

        prefill_slots = self._select_prefills(now)
        if not decode_slots and not prefill_slots:
            if evicted:
                # Memory pressure with nothing runnable: surface the evictions.
                return StepReport(
                    gpu_id=self.gpu_id, start=now, latency=0.0, batch_size=0,
                    num_prefill=0, num_decode=0, num_lora_segments=0,
                    new_tokens={}, finished=(), evicted=tuple(evicted),
                )
            return None

        entries: list[BatchEntry] = []
        for slot in prefill_slots:
            req = slot.request
            entries.append(
                BatchEntry(
                    request_id=req.request_id,
                    lora_id=req.lora_id,
                    num_tokens=req.effective_prompt_len,
                    is_prefill=True,
                )
            )
            past_lens[req.request_id] = 0
        for slot in decode_slots:
            req = slot.request
            entries.append(
                BatchEntry(
                    request_id=req.request_id,
                    lora_id=req.lora_id,
                    num_tokens=1,
                    is_prefill=False,
                )
            )

        if self._plan_cache is not None:
            plan = self._plan_cache.plan(entries)
        else:
            plan = plan_batch(entries)
        requests = {
            s.request.request_id: s.request for s in prefill_slots + decode_slots
        }
        execution = self.backend.execute(plan, past_lens, requests=requests)
        latency = execution.latency * self.slowdown_factor
        end = now + latency

        finished: list[str] = []
        for slot in prefill_slots + decode_slots:
            req = slot.request
            if req.needs_prefill:
                req.kv_len = req.effective_prompt_len
                req.needs_prefill = False
                self._working[req.request_id] = slot
                self._order_insert(slot)
            token = execution.tokens[req.request_id]
            req.record_token(token, end)
            if self._is_finished(req, token):
                finished.append(req.request_id)

        for rid in finished:
            slot = self._working.pop(rid)
            self._working_order.remove(slot)
            self.backend.kv_release(rid)
            self.loader.release(slot.request.lora_id)
            slot.request.mark_finished(end)

        if self.tracer is not None:
            self._trace_step(now, end, prefill_slots, decode_slots, finished)

        self._refresh_steady()
        return StepReport(
            gpu_id=self.gpu_id,
            start=now,
            latency=latency,
            batch_size=len(entries),
            num_prefill=len(prefill_slots),
            num_decode=len(decode_slots),
            num_lora_segments=plan.num_lora_segments,
            new_tokens=dict(execution.tokens),
            finished=tuple(finished),
            evicted=tuple(evicted),
        )

    def _step_spec(self, now: float) -> "StepReport | None":
        """One speculative draft/verify round over the pure-decode batch.

        Reserves ``draft_len + 1`` KvCache slots per request up front
        (evicting newest requests under pressure, exactly like the classic
        path's single-slot reservation), runs the backend round, commits
        each request's accepted tokens, then rolls the rejected slots back
        via ``kv_truncate`` — the allocator's LIFO free list means the
        next round's reservation reacquires the same pages, so a rejected
        draft leaves no footprint in page assignment.
        """
        spec = self._spec
        reserve = spec.max_tokens_per_round
        self.slow_steps += 1
        evicted: list[str] = []
        decode_slots: list[_Slot] = []
        past_lens: dict[str, int] = {}
        appended: set[str] = set()
        for slot in list(self._working_order):
            req = slot.request
            rid = req.request_id
            if rid not in self._working:  # evicted as a victim earlier
                continue
            if not self._append_n_with_eviction(rid, reserve, appended, evicted):
                continue  # this request itself was evicted
            appended.add(rid)
            past_lens[rid] = req.kv_len
            decode_slots.append(slot)

        if self.tracer is not None:
            for rid in evicted:
                self.tracer.emit(
                    now, EventKind.QUEUE, rid, self.gpu_id, reason="evicted"
                )

        if not decode_slots:
            if evicted:
                return StepReport(
                    gpu_id=self.gpu_id, start=now, latency=0.0, batch_size=0,
                    num_prefill=0, num_decode=0, num_lora_segments=0,
                    new_tokens={}, finished=(), evicted=tuple(evicted),
                )
            return None

        entries = [
            BatchEntry(
                request_id=slot.request.request_id,
                lora_id=slot.request.lora_id,
                num_tokens=1,
                is_prefill=False,
            )
            for slot in decode_slots
        ]
        if self._plan_cache is not None:
            plan = self._plan_cache.plan(entries)
        else:
            plan = plan_batch(entries)
        requests = {s.request.request_id: s.request for s in decode_slots}
        execution = self.backend.execute_spec(
            plan, past_lens, spec, self._spec_rng, requests=requests
        )
        latency = execution.latency * self.slowdown_factor
        end = now + latency
        self.spec_rounds += 1

        finished: list[str] = []
        committed: dict[str, tuple[int, ...]] = {}
        rollbacks: "list[tuple[str, int, int]]" = []
        for slot in decode_slots:
            req = slot.request
            rid = req.request_id
            kept: list[int] = []
            for tok in execution.committed[rid]:
                kept.append(tok)
                req.record_token(tok, end)
                if self._is_finished(req, tok):
                    finished.append(rid)
                    break
            committed[rid] = tuple(kept)
            # kv_len stays tokens - 1 during decode: the round's inputs
            # occupied slots [past, past + len(kept)), the last committed
            # token's KV lands next round.
            new_kv = past_lens[rid] + len(kept)
            released_pages = self.backend.kv_truncate(rid, new_kv)
            released_tokens = past_lens[rid] + reserve - new_kv
            req.kv_len = new_kv
            if released_tokens:
                rollbacks.append((rid, released_tokens, released_pages))

        for rid in finished:
            slot = self._working.pop(rid)
            self._working_order.remove(slot)
            self.backend.kv_release(rid)
            self.loader.release(slot.request.lora_id)
            slot.request.mark_finished(end)

        if self.tracer is not None:
            self._trace_spec(
                now, end, decode_slots, committed, execution, rollbacks, finished
            )

        return StepReport(
            gpu_id=self.gpu_id,
            start=now,
            latency=latency,
            batch_size=len(decode_slots),
            num_prefill=0,
            num_decode=len(decode_slots),
            num_lora_segments=plan.num_lora_segments,
            new_tokens={rid: toks[-1] for rid, toks in committed.items()},
            finished=tuple(finished),
            evicted=tuple(evicted),
            committed=committed,
        )

    def _append_n_with_eviction(
        self, rid: str, n: int, appended: set[str], evicted: list[str]
    ) -> bool:
        """:meth:`_append_with_eviction` generalized to ``n`` slots — the
        speculative round's up-front reservation. Returns False when
        ``rid`` itself had to be evicted."""
        while not self.backend.kv_can_append_n(rid, n):
            victim = self._newest_evictable(exclude=appended)
            if victim is None:
                raise MemoryError(
                    f"{self.gpu_id}: no evictable request can free "
                    f"{n} KvCache slots for {rid}"
                )
            victim_id = victim.request.request_id
            evicted.append(self._evict(victim))
            if victim_id == rid:
                return False
        self.backend.kv_append_n(rid, n)
        return True

    def _trace_spec(
        self,
        now: float,
        end: float,
        decode_slots: "list[_Slot]",
        committed: "dict[str, tuple[int, ...]]",
        execution,
        rollbacks: "list[tuple[str, int, int]]",
        finished: "list[str]",
    ) -> None:
        """Emit one round's SPEC_DRAFT, then per request SPEC_VERIFY, one
        DECODE_STEP per committed token, SPEC_ROLLBACK when slots were
        released, and finally the FINISH events — all stamped at the round
        end, like the classic path's step events."""
        self.tracer.emit(
            end, EventKind.SPEC_DRAFT, None, self.gpu_id,
            start=now, batch=len(decode_slots), draft_len=execution.proposed,
        )
        rollback_of = {rid: (toks, pages) for rid, toks, pages in rollbacks}
        for slot in decode_slots:
            req = slot.request
            rid = req.request_id
            kept = committed[rid]
            self.tracer.emit(
                end, EventKind.SPEC_VERIFY, rid, self.gpu_id,
                start=now, proposed=execution.proposed,
                accepted=execution.accepted[rid], committed=len(kept),
            )
            base = req.num_generated - len(kept)
            for i in range(len(kept)):
                self.tracer.emit(
                    end, EventKind.DECODE_STEP, rid, self.gpu_id,
                    start=now, token_index=base + i,
                )
            rollback = rollback_of.get(rid)
            if rollback is not None:
                self.tracer.emit(
                    end, EventKind.SPEC_ROLLBACK, rid, self.gpu_id,
                    tokens=rollback[0], pages=rollback[1],
                )
        for rid in finished:
            req = next(
                s.request for s in decode_slots if s.request.request_id == rid
            )
            self.tracer.emit(
                end, EventKind.FINISH, rid, self.gpu_id, tokens=req.num_generated
            )

    def _step_steady(self, now: float) -> StepReport:
        """Steady-state decode lane: the batch is exactly last step's batch
        (no pending work, no membership change since) and a free page per
        request is guaranteed, so per-slot can-append/evict checks, prefill
        selection, and re-planning are all skipped. Every observable
        effect — trace events, token values, request state, KvCache
        contents — is identical to the general path by construction.
        """
        self.loader.advance(now)
        self.fast_steps += 1
        plan = self._steady_plan
        pairs = self._steady_pairs
        self.backend.kv_append_many(self._steady_past)
        execution = self.backend.execute_steady(
            plan, self._steady_past, self._steady_total
        )
        latency = execution.latency * self.slowdown_factor
        end = now + latency
        tokens = execution.tokens

        finished: list[str] = []
        rem = self._steady_rem
        if rem is not None:
            # Length-limit-only stopping (no EOS token): a per-slot
            # countdown replaces the reached_limit()/record_token calls.
            # first_token_time is already stamped (every working request
            # has generated at least one token) so the append is all that
            # record_token would do.
            for i, (req, rid) in enumerate(pairs):
                req.kv_len += 1
                req.generated_tokens.append(tokens[rid])
                left = rem[i] - 1
                rem[i] = left
                if left == 0:
                    finished.append(rid)
        else:
            for req, rid in pairs:
                req.kv_len += 1
                token = tokens[rid]
                req.record_token(token, end)
                if self._is_finished(req, token):
                    finished.append(rid)

        if finished:
            self._steady_plan = None
            for rid in finished:
                slot = self._working.pop(rid)
                self._working_order.remove(slot)
                self.backend.kv_release(rid)
                self.loader.release(slot.request.lora_id)
                slot.request.mark_finished(end)
        else:
            self._steady_total += len(pairs)

        if self.tracer is not None:
            self._trace_step(now, end, [], self._steady_slots, finished)

        if finished:
            self._refresh_steady()
        return StepReport(
            gpu_id=self.gpu_id,
            start=now,
            latency=latency,
            batch_size=len(pairs),
            num_prefill=0,
            num_decode=len(pairs),
            num_lora_segments=plan.num_lora_segments,
            new_tokens=tokens,
            finished=tuple(finished),
            evicted=(),
        )

    def _refresh_steady(self) -> None:
        """(Re)arm the steady-state cache after a step, when the *next*
        step is known to be a pure decode of the current working set."""
        if not self._steady_ok or self._pending or not self._working_order:
            self._steady_plan = None
            return
        slots = list(self._working_order)
        sig_parts = []
        pairs = []
        past: dict[str, int] = {}
        total = 0
        rem: "list[int] | None" = (
            [] if self.config.eos_token_id is None else None
        )
        for s in slots:
            req = s.request
            spec = req.spec
            rid = spec.request_id
            sig_parts.append((rid, spec.lora_id, 1, False))
            pairs.append((req, rid))
            past[rid] = req.kv_len
            total += req.kv_len
            if rem is not None:
                left = spec.response_len - len(req.generated_tokens)
                if (
                    left <= 0
                    or not req.generated_tokens
                    or req.state is not RequestState.RUNNING
                ):
                    rem = None  # fall back to the per-token finish check
                else:
                    rem.append(left)
        sig = tuple(sig_parts)
        plan = self._plan_cache.get(sig)
        if plan is None:
            cache = self._entry_cache
            entries = []
            for rid, lora_id, _, _ in sig_parts:
                entry = cache.get(rid)
                if entry is None:
                    entry = cache[rid] = BatchEntry(
                        request_id=rid, lora_id=lora_id,
                        num_tokens=1, is_prefill=False,
                    )
                entries.append(entry)
            plan = plan_decode_batch(entries)
            self._plan_cache.put(sig, plan)
        self._steady_plan = plan
        self._steady_slots = slots
        self._steady_pairs = pairs
        self._steady_past = past
        self._steady_total = total + len(slots)
        self._steady_rem = rem

    def _order_insert(self, slot: _Slot) -> None:
        """Insert into ``_working_order`` keeping ascending ``admit_seq``.
        Loads complete nearly in admission order, so scanning from the end
        is O(1) in the common case."""
        order = self._working_order
        i = len(order)
        while i > 0 and order[i - 1].admit_seq > slot.admit_seq:
            i -= 1
        order.insert(i, slot)

    # ------------------------------------------------------------------
    def _trace_step(
        self,
        now: float,
        end: float,
        prefill_slots: "list[_Slot]",
        decode_slots: "list[_Slot]",
        finished: "list[str]",
    ) -> None:
        """Emit the invocation's per-request PREFILL / DECODE_STEP / FINISH
        events (time = step end; the ``start`` attr carries the step start,
        which the latency breakdown closes segments at)."""
        for slot in prefill_slots:
            req = slot.request
            self.tracer.emit(
                end, EventKind.PREFILL, req.request_id, self.gpu_id,
                start=now,
                tokens=req.spec.prompt_len + max(0, req.num_generated - 1),
            )
        for slot in decode_slots:
            req = slot.request
            self.tracer.emit(
                end, EventKind.DECODE_STEP, req.request_id, self.gpu_id,
                start=now, token_index=req.num_generated - 1,
            )
        for rid in finished:
            req = next(
                s.request
                for s in prefill_slots + decode_slots
                if s.request.request_id == rid
            )
            self.tracer.emit(
                end, EventKind.FINISH, rid, self.gpu_id, tokens=req.num_generated
            )

    def _is_finished(self, req: Request, token: int) -> bool:
        if req.reached_limit():
            return True
        eos = self.config.eos_token_id
        return eos is not None and token == eos

    def _append_with_eviction(
        self, rid: str, appended: set[str], evicted: list[str]
    ) -> bool:
        """Append one KvCache slot for ``rid``, evicting newest requests on
        pressure (§5.3: "evicts the newest request ... preserves FCFS").

        Requests that already got their slot this step are never victims.
        Returns False when ``rid`` itself had to be evicted.
        """
        while not self.backend.kv_can_append(rid):
            victim = self._newest_evictable(exclude=appended)
            if victim is None:
                raise MemoryError(
                    f"{self.gpu_id}: no evictable request can free a page for {rid}"
                )
            victim_id = victim.request.request_id
            evicted.append(self._evict(victim))
            if victim_id == rid:
                return False
        self.backend.kv_append(rid)
        return True

    def _newest_evictable(self, exclude: set[str]) -> "_Slot | None":
        """Newest-admitted working slot not in ``exclude`` — scanned from the
        tail of the admit-ordered list (the old ``max`` over all slots)."""
        for slot in reversed(self._working_order):
            if slot.request.request_id not in exclude:
                return slot
        return None

    def _evict(self, slot: _Slot) -> str:
        rid = slot.request.request_id
        self._steady_plan = None
        del self._working[rid]
        self._working_order.remove(slot)
        self.backend.kv_release(rid)
        self.loader.release(slot.request.lora_id)
        slot.request.evict()
        return rid

    def _select_prefills(self, now: float) -> list[_Slot]:
        """Pick pending requests ready to prefill, FIFO, up to the limit."""
        limit = self.config.prefill_batch_limit
        if not self._pending:
            return []
        selected: list[_Slot] = []
        remaining: list[_Slot] = []
        for slot in self._pending:
            req = slot.request
            ready = (
                req.needs_prefill  # import slots wait for _promote_imports
                and len(selected) < limit
                and self.loader.is_ready(req.lora_id, now)
                and self.backend.kv_can_admit(req.effective_prompt_len)
                and self._lora_compatible(req)
            )
            if ready:
                self.backend.kv_admit(req.request_id, req.effective_prompt_len)
                selected.append(slot)
            else:
                remaining.append(slot)
        self._pending = remaining
        return selected

    def _lora_compatible(self, req: Request) -> bool:
        if not self.config.same_lora_only:
            return True
        active = {s.request.lora_id for s in self._working.values()}
        return not active or req.lora_id in active
