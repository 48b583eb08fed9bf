"""One fresh interpreter of the benchmark: ``python3 perfbench/child.py SPEC``.

``SPEC`` is a JSON object naming a ``role`` (``prefill``, ``paper``,
``fleet`` or ``serve``) and its parameters. The child stamps
``time.monotonic()`` the moment its set-up is done (``ready``); the
parent stamped the same clock just before it started the process, so
their difference is the set-up time from interpreter start. Each timed
interval is bracketed by ``calib.reference()`` runs (``*_ref``
fields), starting with one right after ``ready``. Results go to
``spec["result"]`` as JSON. Nothing here is imported by the parent:
every ``repro`` import happens in a child.
"""

import json
import resource
import sys
import time

from calib import reference


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_repro() -> float:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    return time.perf_counter() - t0


def _traced(spec, run, after=None):
    """``run()`` under the ledger and the metrics registry when tracing.

    ``after(result)`` runs inside the collecting block, for counters a
    component publishes on request (the penalty service).
    """
    if not spec.get("trace"):
        return run(), None
    import ledger
    from repro.api import RunReport, collecting

    spans = ledger.Ledger().install()
    try:
        with collecting() as registry:
            result = run()
            if after is not None:
                after(result)
            metrics = RunReport.collect(registry, kind="bench").metrics
    finally:
        spans.uninstall()
    doc = spans.to_doc()
    doc["counters"] = ledger.report_counters(metrics)
    return result, doc


# -- roles ------------------------------------------------------------------
def prefill(spec):
    """Fill the cache dir with the quick response surface (untimed)."""
    _import_repro()
    from repro.experiments import ExperimentContext

    ExperimentContext(quick=True).surrogate()
    return {}


def paper(spec):
    """``repro all`` after a stamped ``import repro``."""
    import_s = _import_repro()
    ready = time.monotonic()
    ready_ref = reference()
    out = {"ready": ready, "ready_ref": ready_ref, "import_s": import_s}
    if not spec.get("run"):
        return out
    import contextlib

    import repro.cli

    def run():
        with open(spec["stdout"], "w") as fh, contextlib.redirect_stdout(fh):
            return repro.cli.main(["all"])

    t0 = time.perf_counter()
    code, ledger_doc = _traced(spec, run)
    out["op_s"] = time.perf_counter() - t0
    out["op_ref"] = (ready_ref + reference()) / 2
    out.update(exit_code=code, peak_rss_mb=_peak_rss_mb(), ledger=ledger_doc)
    return out


def _fleet_inputs(spec):
    import dataclasses

    from repro.cdi import ClusterSpec, FleetConfig

    cluster = ClusterSpec(nodes=64)
    scale = spec["load_scale"]
    tenants = tuple(
        dataclasses.replace(t, rate_per_s=t.rate_per_s * scale)
        for t in FleetConfig().tenants
    )
    return cluster, FleetConfig(
        cluster=cluster,
        tenants=tenants,
        horizon_s=spec["horizon_days"] * 86400.0,
        seed=spec["seed"],
    )


def fleet(spec):
    """Stream + surrogate set-up, then two-mode fleet passes.

    The first pass after set-up is the process's cold pass; then come
    ``spec["warm_passes"]`` more. Program entry points are looked up at
    call time so that the ledger's wrappers see the calls.
    """
    import_s = _import_repro()
    import hashlib

    import numpy as np

    from repro import cdi
    from repro.experiments import ExperimentContext
    from repro.obs import publish_trace_store
    from repro.trace import ColumnarTrace

    cluster, config = _fleet_inputs(spec)
    topology = cdi.FleetTopology.uniform(4, cluster.total_gpus // 4)

    def setup():
        return (
            cdi.generate_fleet_jobs(config),
            ExperimentContext(quick=True).surrogate(),
        )

    def one_pass(jobs, model, ref_before):
        t0 = time.perf_counter()
        trace = ColumnarTrace()
        trad = cdi.run_fleet(jobs, cluster, "traditional")
        res = cdi.run_fleet(
            jobs, cluster, "cdi",
            topology=topology, surrogate=model, trace=trace,
        )
        wall_s = time.perf_counter() - t0
        ref_after = reference()
        publish_trace_store(trace)
        digest = hashlib.sha256()
        unfinished = 0
        for r in (trad, res):
            for col in (r.start_s, r.wait_s, r.end_s, r.cores_start_s,
                        r.trapped_core_s, r.trapped_gpu_s):
                digest.update(np.ascontiguousarray(col).tobytes())
            unfinished += int((~np.isfinite(r.end_s)).sum())
        digest.update(res.slack_s.tobytes())
        digest.update(res.penalty.tobytes())
        return {
            "wall_s": wall_s,
            "ref": (ref_before + ref_after) / 2,
            "ref_after": ref_after,
            "digest": digest.hexdigest(),
            "jobs": 2 * len(jobs),
            "unfinished": unfinished,
            "penalty_refusals": res.penalty_refusals,
            "cdi_mean_wait_h": res.mean_wait_s / 3600.0,
            "cdi_gpu_util": res.gpu_utilization,
        }

    jobs, model = setup()
    ready = time.monotonic()
    ready_ref = reference()
    passes = [one_pass(jobs, model, ready_ref)]
    out = {"ready": ready, "ready_ref": ready_ref, "import_s": import_s}
    if spec.get("trace"):
        # Set-up plus one pass, untraced then traced, in this process.
        walls = []
        for trace in (False, True):
            t0 = time.perf_counter()
            res, doc = _traced(
                dict(spec, trace=trace),
                lambda: one_pass(*setup(), passes[-1]["ref_after"]),
            )
            walls.append(time.perf_counter() - t0)
            passes.append(res)
        out["ledger"] = doc
        out["overhead_frac"] = walls[1] / walls[0] - 1.0
    else:
        for _ in range(spec["warm_passes"]):
            passes.append(one_pass(jobs, model, passes[-1]["ref_after"]))
    out["passes"] = passes
    out["peak_rss_mb"] = _peak_rss_mb()
    prefix = spec.get("parity_prefix", 0)
    if prefix:
        head = cdi.FleetJobs(
            arrival_s=jobs.arrival_s[:prefix],
            duration_s=jobs.duration_s[:prefix],
            cores=jobs.cores[:prefix],
            gpus=jobs.gpus[:prefix],
            tenant=jobs.tenant[:prefix],
            tenant_names=jobs.tenant_names,
        )
        try:
            for mode in ("traditional", "cdi"):
                cdi.assert_fleet_parity(head, cluster, mode)
            out["parity"] = "ok"
        except AssertionError as exc:
            out["parity"] = str(exc)
    return out


#: The quick surrogate's 14 (matrix size, threads) series and its grid.
SERVE_SERIES = (
    (512, 1), (512, 2), (512, 4), (512, 8),
    (2048, 1), (2048, 2), (2048, 4), (2048, 8),
    (8192, 1), (8192, 2), (8192, 4), (8192, 8),
    (32768, 1), (32768, 2),
)
SLACK_MIN_S, SLACK_MAX_S = 1e-6, 1e-2
#: Above the grid, each series' callers probe ever longer slacks, so
#: every such query lies beyond the last measured point: a real miss.
#: Burst rounds step from the grid's top by this ratio; the open-loop
#: stream starts above them, at twice the grid's top.
ABOVE_STEP = 1.01
#: Relative penalty tolerance against the offline surrogate: refits
#: after above-grid observations rebase the log-slack coordinates, which
#: moves interpolated penalties by rounding only (measured <= 2e-11).
PENALTY_RTOL = 1e-9


def _in_domain(rng, count):
    import numpy as np

    pick = rng.integers(0, len(SERVE_SERIES), count)
    series = np.array(SERVE_SERIES, dtype=np.int64)[pick]
    slack = 10.0 ** rng.uniform(
        np.log10(SLACK_MIN_S), np.log10(SLACK_MAX_S), count
    )
    return pick, series[:, 0], slack, series[:, 1]


def serve_stream(seed, rate, count, above_share):
    """Open-loop Poisson stream of ``(size, slack, threads)`` queries."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    pick, sizes, slack, threads = _in_domain(rng, count)
    above = rng.random(count) < above_share
    for index in range(len(SERVE_SERIES)):
        probes = np.flatnonzero(above & (pick == index))
        slack[probes] = 2 * SLACK_MAX_S * ABOVE_STEP ** np.arange(len(probes))
    return due, sizes, slack, threads, above


def serve(spec):
    """Time to a ready service, burst rounds, then an open-loop stream.

    Each burst round sends ``burst`` in-domain queries at once through
    ``predict_many`` (the warm path), then two above-grid queries per
    series, one after another (28 real DES cold-path measurements), and
    runs the reference loop; there are ``spec["rounds"]`` rounds. The
    open-loop stream (``stream_seconds``) times each query from when it
    was due.
    """
    import_s = _import_repro()
    import asyncio

    import numpy as np

    from repro.experiments import ExperimentContext
    from repro.serve import ColdPathConfig, PenaltyService, SurrogateModel

    holder = {}
    answered = []  # (sizes, threads, slacks, (penalty, bound) rows, above)

    async def start():
        ctx = ExperimentContext(quick=True)
        service = PenaltyService(
            surrogate=ctx.surrogate(),
            cold_path=ColdPathConfig(max_concurrent=1),
        )
        await service.start()
        holder["ready"] = time.monotonic()
        holder["ready_ref"] = reference()
        return ctx, service

    async def rounds(service):
        rng = np.random.default_rng([spec["seed"], spec["segment"], 3])
        out = []
        ref_before = holder["ready_ref"]
        for _ in range(spec["rounds"]):
            _, sizes, slacks, threads = _in_domain(rng, spec["burst"])
            queries = list(zip(sizes.tolist(), slacks.tolist(), threads.tolist()))
            t0 = time.perf_counter()
            got = await service.predict_many(queries)
            warm_s = time.perf_counter() - t0
            answered.append((
                sizes, threads, slacks, np.array(got), np.zeros(len(got), bool)
            ))
            step = 2 * len(out) + 1
            probes = [
                (n, SLACK_MAX_S * ABOVE_STEP ** k, t)
                for k in (step, step + 1) for n, t in SERVE_SERIES
            ]
            cold = []
            t0 = time.perf_counter()
            for n, slack, t in probes:
                cold.append(await service.predict(n, slack, t))
            cold_s = time.perf_counter() - t0
            sizes, slacks, threads = (np.array(col) for col in zip(*probes))
            answered.append((
                sizes, threads, slacks, np.array(cold),
                np.ones(len(cold), bool),
            ))
            ref_after = reference()
            out.append({
                "warm_s": warm_s, "cold_s": cold_s,
                "ref": (ref_before + ref_after) / 2,
            })
            ref_before = ref_after
        return out

    async def stream(service):
        loop = asyncio.get_running_loop()
        count = int(spec["rate"] * spec["stream_seconds"])
        due, sizes, slacks, threads, above = serve_stream(
            spec["seed"], spec["rate"], count, spec["above_share"]
        )
        latency = np.full(count, np.nan)
        got = np.full((count, 2), np.nan)
        late = np.empty(count)
        errors = []

        async def one(i, due_at):
            try:
                p = await service.predict(
                    int(sizes[i]), float(slacks[i]), int(threads[i])
                )
            except Exception as exc:  # every refusal counts as failed
                errors.append(f"{type(exc).__name__}: {exc}")
                return
            latency[i] = loop.time() - due_at
            got[i] = p

        tasks = []
        misses0 = service.stats()["cold_misses"]
        t0 = loop.time() + 0.01
        for i in range(count):
            due_at = t0 + due[i]
            wait = due_at - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            late[i] = loop.time() - due_at
            tasks.append(loop.create_task(one(i, due_at)))
        await asyncio.gather(*tasks)
        ok = np.isfinite(got[:, 0])
        answered.append((sizes[ok], threads[ok], slacks[ok], got[ok], above[ok]))
        lat = latency[ok]
        return {
            "queries": count,
            "errors": errors,
            "p50_s": float(np.percentile(lat, 50)),
            "p99_s": float(np.percentile(lat, 99)),
            "max_s": float(lat.max()),
            "late_mean_ms": float(late.mean() * 1e3),
            "late_max_ms": float(late.max() * 1e3),
            "cold_misses": int(service.stats()["cold_misses"] - misses0),
        }

    async def main():
        ctx, service = await start()
        try:
            burst = await rounds(service)
            res = (
                await stream(service) if spec.get("stream_seconds") else None
            )
        finally:
            await service.stop()
        return ctx, service, burst, res

    (ctx, service, burst, res), ledger_doc = _traced(
        spec, lambda: asyncio.run(main()), after=lambda r: r[1].publish()
    )
    out = {
        "ready": holder["ready"],
        "ready_ref": holder["ready_ref"],
        "import_s": import_s,
        "rounds": burst,
        "stream": res,
        "peak_rss_mb": _peak_rss_mb(),
        "ledger": ledger_doc,
    }

    # Output check: every in-domain answer against an offline refit.
    offline = SurrogateModel.fit(ctx.surface())
    sizes, threads, slacks, got, above = (
        np.concatenate([a[k] for a in answered]) for k in range(5)
    )
    inside = ~above
    want_pen, want_bound, reason = offline.evaluate(
        sizes[inside], threads[inside], slacks[inside]
    )
    got_pen, got_bound = got[inside, 0], got[inside, 1]
    observed = np.array([
        service.surrogate.series_points(int(n), int(t))
        != offline.series_points(int(n), int(t))
        for n, t in zip(sizes[inside], threads[inside])
    ])
    pen_ok = np.abs(got_pen - want_pen) <= 1e-12 + PENALTY_RTOL * np.abs(want_pen)
    # Cross-validated bounds only widen when a point joins above the
    # grid; a series that received no observation keeps them exactly.
    bound_ok = np.where(observed, got_bound >= want_bound, got_bound == want_bound)
    out.update({
        "checked": int(len(sizes)),
        "mismatched": int((~(pen_ok & bound_ok & (reason == 0))).sum()),
        "above_bad": int((got[above, 0] < 0).sum()),
    })
    return out


ROLES = {"prefill": prefill, "paper": paper, "fleet": fleet, "serve": serve}


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = ROLES[spec["role"]](spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
