"""Assemble the programs under test from the public ``repro`` API.

Both the server child (``server.py``) and the functional token-match
replay (``run.py``) build the NumPy model from here, so the replay uses
exactly the weights and adapters the server served.
"""

from __future__ import annotations

from workloads import (
    FUNCTIONAL, KV_PAGE_SIZE, KV_PAGES, MAX_BATCH_SIZE, MODEL_GEOMETRY, RANKS, SIM_GPUS,
    SIM_QUANTUM, SIM_STEP_OVERHEAD, SIM_WARP, adapter_ids, adapter_rank,
)

PERMISSIVE_RATE = 1e9
"""Admission is not under test: every stream the generator sends is admitted."""


def permissive_policy():
    from repro.serve.limits import TenantPolicy

    return TenantPolicy(rate=PERMISSIVE_RATE, burst=PERMISSIVE_RATE, max_inflight=1 << 20)


def functional_model(seed: int):
    """Tiny Llama weights plus the adapter registry, all derived from ``seed``."""
    from repro.core.lora import LoraRegistry, random_lora_weights
    from repro.models.config import tiny_config
    from repro.models.weights import random_llama_weights

    cfg = tiny_config(**MODEL_GEOMETRY)
    weights = random_llama_weights(cfg, seed=seed)
    registry = LoraRegistry()
    for i, lora_id in enumerate(adapter_ids(FUNCTIONAL.num_adapters)):
        registry.register(
            random_lora_weights(
                lora_id, cfg.num_layers, cfg.proj_dims(), adapter_rank(i),
                seed=seed * 1000 + 50 + i,
            )
        )
    return weights, registry


def functional_engine(weights, registry, max_batch_size: int):
    from repro.runtime.backend import NumpyBackend
    from repro.runtime.engine import EngineConfig, GpuEngine

    backend = NumpyBackend(
        weights, registry, total_pages=KV_PAGES, page_size=KV_PAGE_SIZE,
        lora_rank=max(RANKS),
    )
    return GpuEngine("gpu0", backend, EngineConfig(max_batch_size=max_batch_size))


def build_functional_server(seed: int):
    """One ``FunctionalBridge`` over one NumPy ``GpuEngine`` behind TCP."""
    from repro.serve.bridge import FunctionalBridge
    from repro.serve.limits import AdmissionController
    from repro.serve.metrics import ServeMetrics
    from repro.serve.server import ServeServer

    weights, registry = functional_model(seed)
    engine = functional_engine(weights, registry, MAX_BATCH_SIZE)
    bridge = FunctionalBridge(
        engine,
        AdmissionController(default_policy=permissive_policy()),
        metrics=ServeMetrics(),
        vocab_size=weights.config.vocab_size,
        seed=seed,
    )
    return ServeServer(bridge, host="127.0.0.1", port=0), None


def build_sim_server(seed: int):
    """``SimulatorBridge`` -> ``ServeGateway`` -> ``Frontend`` -> ``ClusterSimulator``.

    Returns the server and the cluster simulator (for the modelled
    per-layer figures read at exit).
    """
    from repro.serve.harness import build_sim_stack

    stack = build_sim_stack(
        seed=seed, num_gpus=SIM_GPUS, max_batch_size=MAX_BATCH_SIZE,
        step_overhead=SIM_STEP_OVERHEAD, warp=SIM_WARP, quantum=SIM_QUANTUM,
        policy=permissive_policy(),
    )
    return stack.server, stack.bridge.simulator
