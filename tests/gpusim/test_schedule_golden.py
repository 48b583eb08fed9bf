"""Pinned event schedules of the simulated GPU.

Each scenario runs a complete simulation and reduces it to what the
event schedule decides:

* the sha256 of the trace document (every kernel, memcpy, API and
  slack interval, with exact float timestamps, in record order);
* ``repr()`` of the runtime, the starvation cost and the engine
  utilizations of every :class:`~repro.gpusim.CudaRuntime` the run
  built (calibration mini-simulations included).

A change to which events run, in what order or at what time moves at
least one of these values: at a shared tick, whether the compute
engine reads its idle gap before or after a copy engine notes its
busy-until time decides the starvation cost. Refactors of the DES
kernel, the engines, the streams or the trace store must leave this
file passing unchanged. Event *counts* are deliberately not pinned.

Regenerate only after an intentional behaviour change with::

    PYTHONPATH=src python tests/gpusim/test_schedule_golden.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

import pytest

from repro.apps import get_app
from repro.des import Environment
from repro.faults import FaultPlan, GpuStall, LinkFlap
from repro.gpusim import CudaGraph, CudaRuntime, KernelSpec
from repro.hw import MiB
from repro.network import SlackModel
from repro.proxy.matmul import ProxyConfig, run_proxy
from repro.trace import ColumnarTrace, CopyKind


@contextmanager
def _captured_runtimes() -> Iterator[List[CudaRuntime]]:
    """Record every CudaRuntime constructed inside the block."""
    built: List[CudaRuntime] = []
    init = CudaRuntime.__init__

    def recording_init(self: CudaRuntime, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        built.append(self)

    CudaRuntime.__init__ = recording_init  # type: ignore[method-assign]
    try:
        yield built
    finally:
        CudaRuntime.__init__ = init  # type: ignore[method-assign]


def _trace_digest(trace: Any) -> str:
    if not isinstance(trace, ColumnarTrace):
        # Fast-forwarded runs return an epoch-tiled trace; encode it
        # through a columnar copy (sorted order, bit-exact values).
        trace = ColumnarTrace(iter(trace), name=trace.name)
    text = json.dumps(trace.to_doc(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _app(name: str) -> Callable[[], Any]:
    def run() -> tuple:
        app = get_app(name)
        profile = app.profiler(app.default_config(True))
        return profile.trace, profile.runtime_s, ()

    return run


def _proxy(
    slack_s: float, fast_forward: bool, faults: Any = None
) -> Callable[[], Any]:
    def run() -> tuple:
        result = run_proxy(
            ProxyConfig(matrix_size=2048, threads=4, iterations=40),
            SlackModel(slack_s),
            fast_forward=fast_forward,
            faults=faults,
        )
        m = result.sim_metrics
        extra = (
            result.starvation_cost_s,
            result.injected_slack_s,
            m["gpu.compute_utilization"],
            m["gpu.copy_h2d_utilization"],
            m["gpu.copy_d2h_utilization"],
        )
        return result.trace, result.loop_runtime_s, extra

    return run


_FAULTS = FaultPlan(
    seed=7,
    events=(
        GpuStall(start_s=2e-3, duration_s=6e-3, extra_s=40e-6),
        LinkFlap(start_s=5e-3, down_s=1e-3),
    ),
)


def _concurrent_kernels() -> tuple:
    """Three streams of small co-scheduled kernels plus transfers."""
    env = Environment()
    rt = CudaRuntime(env, slack=SlackModel(5e-6), concurrent_kernels=True)
    kernels = [
        KernelSpec(name=f"k{i}", duration_s=(i + 1) * 30e-6, sm_fraction=f)
        for i, f in enumerate((0.25, 0.5, 0.75))
    ]

    def host(tid: int) -> Any:
        stream = rt.create_stream()
        for step in range(6):
            yield from rt.memcpy_async(MiB // 4, CopyKind.H2D, stream, tid)
            yield from rt.launch(kernels[(tid + step) % 3], stream, tid)
            yield from rt.launch(kernels[step % 3], stream, tid)
            yield from rt.memcpy_async(MiB // 8, CopyKind.D2H, stream, tid)
        yield from rt.synchronize(stream=stream, thread=tid)

    def main() -> Any:
        yield env.all_of([env.process(host(t)) for t in range(3)])
        return env.now

    proc = env.process(main())
    env.run()
    return rt.tracer.trace, proc.value, ()


def _graph_replay() -> tuple:
    """Two host threads replaying one captured graph, non-blocking."""
    env = Environment()
    rt = CudaRuntime(env, slack=SlackModel(10e-6))
    graph = (
        CudaGraph(rt, name="step")
        .add_memcpy(MiB, CopyKind.H2D)
        .add_kernel(KernelSpec(name="fwd", duration_s=120e-6))
        .add_memcpy(MiB // 2, CopyKind.H2D)
        .add_kernel(KernelSpec(name="bwd", duration_s=80e-6))
        .add_memcpy(MiB // 4, CopyKind.D2H)
        .instantiate()
    )

    def host(tid: int) -> Any:
        stream = rt.create_stream()
        for _ in range(5):
            yield from graph.launch(stream=stream, thread=tid)
        yield from rt.synchronize(thread=tid)

    def main() -> Any:
        yield env.all_of([env.process(host(t)) for t in range(2)])
        return env.now

    proc = env.process(main())
    env.run()
    return rt.tracer.trace, proc.value, (graph.replays,)


SCENARIOS: Dict[str, Callable[[], Any]] = {
    "lammps-quick": _app("lammps"),
    "cosmoflow-quick": _app("cosmoflow"),
    "inference-quick": _app("inference"),
    "proxy-4t-0us-ff": _proxy(0.0, True),
    "proxy-4t-0us-full": _proxy(0.0, False),
    "proxy-4t-10us-ff": _proxy(10e-6, True),
    "proxy-4t-10us-full": _proxy(10e-6, False),
    "proxy-4t-10us-faults": _proxy(10e-6, False, _FAULTS),
    "concurrent-kernels": _concurrent_kernels,
    "graph-replay": _graph_replay,
}


def schedule_digest(name: str) -> Dict[str, str]:
    """Run one scenario and reduce it to its pinned values."""
    with _captured_runtimes() as runtimes:
        trace, runtime_s, extra = SCENARIOS[name]()
    return {
        "trace_sha256": _trace_digest(trace),
        "runtime": repr(runtime_s),
        "extra": repr(extra),
        "starvation": repr(tuple(rt.total_starvation_cost() for rt in runtimes)),
        "utilization": repr(
            tuple(tuple(sorted(rt.engine_utilization().items())) for rt in runtimes)
        ),
    }


GOLDEN: Dict[str, Dict[str, str]] = {
    "concurrent-kernels": {
        "extra": "()",
        "runtime": "0.0017135999969468685",
        "starvation": "(0.0,)",
        "trace_sha256": "5db74b4ea717002fbd5bc6dca68a5e176166166d3ee4b13e77d1f1f3d5d79abb",
        "utilization": "((('compute', 0.9937579350788124), ('copy_d2h', 0.06320050637323092), ('copy_h2d', 0.11291396660592665)),)"
    },
    "cosmoflow-quick": {
        "extra": "()",
        "runtime": "11.974169378462648",
        "starvation": "(0.029015064197665197,)",
        "trace_sha256": "1130deb9d1fd554146685e8fee0bc4f752b9b4041991621179b62de433e2e3d6",
        "utilization": "((('compute', 0.9362934415931805), ('copy_d2h', 0.006639138135243065), ('copy_h2d', 0.056053090857908924)),)"
    },
    "graph-replay": {
        "extra": "(10,)",
        "runtime": "0.002066199994697864",
        "starvation": "(0.0,)",
        "trace_sha256": "4889b80e5065be86661c62b322e4e91ab39bbb23477c2f7a2b7a57b4d857a060",
        "utilization": "((('compute', 0.9897364332859262), ('copy_d2h', 0.06314898237461623), ('copy_h2d', 0.30278343594481577)),)"
    },
    "inference-quick": {
        "extra": "()",
        "runtime": "5.804065563497716",
        "starvation": "(0.031743000570713775,)",
        "trace_sha256": "eb58e9f93c3294020361c6201ea9a4f25512a3d7a7cfe924997fc1acc3bcb2a1",
        "utilization": "((('compute', 0.8342710909460505), ('copy_d2h', 0.0028129860746467466), ('copy_h2d', 0.0016196965071731807)),)"
    },
    "lammps-quick": {
        "extra": "()",
        "runtime": "19.103848967727572",
        "starvation": "(0.0004932000174449058,)",
        "trace_sha256": "9a960ec46861b35342ea4fbc8e845f73563ad18896b250c4e705267a49c5e5c5",
        "utilization": "((('compute', 0.24741618061678305), ('copy_d2h', 0.20160884364745268), ('copy_h2d', 0.10100745157377267)),)"
    },
    "proxy-4t-0us-ff": {
        "extra": "(0.0, 0.0, 0.997336262169701, 0.837399058445114, 0.4269211763600054)",
        "runtime": "0.25062896109739086",
        "starvation": "(0.0, 3.600000127335079e-06)",
        "trace_sha256": "35cf846dc709d92a14fba9aa130b10f8e0fb4409be70a7d943647f62aa8356bd",
        "utilization": "((('compute', 0.9849674144842823), ('copy_d2h', 0.4342878295104912), ('copy_h2d', 0.7795910092351614)), (('compute', 0.7010946797341011), ('copy_d2h', 0.9977181459175697), ('copy_h2d', 0.37249289598105256)))"
    },
    "proxy-4t-0us-full": {
        "extra": "(0.0, 0.0, 0.997336262169701, 0.837399058445114, 0.4269211763600054)",
        "runtime": "0.25062896109739086",
        "starvation": "(0.0, 3.600000127335079e-06)",
        "trace_sha256": "b3c6c48e42fb05a0f607c7693ea02c4d78454164c48a6f7f764c173d8a5b2d12",
        "utilization": "((('compute', 0.997336262169701), ('copy_d2h', 0.4269211763600054), ('copy_h2d', 0.837399058445114)), (('compute', 0.7010946797341011), ('copy_d2h', 0.9977181459175697), ('copy_h2d', 0.37249289598105256)))"
    },
    "proxy-4t-10us-faults": {
        "extra": "(0.0, 0.007999999797903001, 0.9972166616165437, 0.8368648058646, 0.4267475612119539)",
        "runtime": "0.2507889610960774",
        "starvation": "(0.0, 3.600000127335079e-06)",
        "trace_sha256": "8f6b6d5d7e2cd2b98e6f4991ff9338e1c0b687b27ac1ee5efaad9ec432ee6726",
        "utilization": "((('compute', 0.9972166616165437), ('copy_d2h', 0.4267475612119539), ('copy_h2d', 0.8368648058646)), (('compute', 0.7010946797341011), ('copy_d2h', 0.9977181459175697), ('copy_h2d', 0.37249289598105256)))"
    },
    "proxy-4t-10us-ff": {
        "extra": "(0.0, 0.007999999797903001, 0.9972153114326615, 0.8372654313626635, 0.42688644203075665)",
        "runtime": "0.25066896109638037",
        "starvation": "(0.0, 3.600000127335079e-06)",
        "trace_sha256": "c8c9b18392c9007379ab70baaa55a10ca84ad2691d61e610dc7a321f069b16a9",
        "utilization": "((('compute', 0.9842936835572788), ('copy_d2h', 0.43408251919777313), ('copy_h2d', 0.7789296675828745)), (('compute', 0.7010946797341011), ('copy_d2h', 0.9977181459175697), ('copy_h2d', 0.37249289598105256)))"
    },
    "proxy-4t-10us-full": {
        "extra": "(0.0, 0.007999999797903001, 0.9972153114326615, 0.8372654313626635, 0.42688644203075665)",
        "runtime": "0.25066896109638037",
        "starvation": "(0.0, 3.600000127335079e-06)",
        "trace_sha256": "5f5af8a75a7c69678e3368feee0adef24fceb5ec30cc99ed45151b2b168c10a6",
        "utilization": "((('compute', 0.9972153114326615), ('copy_d2h', 0.42688644203075665), ('copy_h2d', 0.8372654313626635)), (('compute', 0.7010946797341011), ('copy_d2h', 0.9977181459175697), ('copy_h2d', 0.37249289598105256)))"
    }
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_golden(name: str) -> None:
    assert schedule_digest(name) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    digests = {name: schedule_digest(name) for name in sorted(SCENARIOS)}
    print("GOLDEN: Dict[str, Dict[str, str]] = " + json.dumps(digests, indent=4, sort_keys=True))
