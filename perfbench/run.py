#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: ``paper``, ``fleet``, ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the metrics registry
off; ``--trace 1`` makes a separate traced run and reports the
per-layer ledger. Every timing is host time. Each program process is a
fresh interpreter started by this script (``perfbench/child.py``), with
a cache dir of its own under ``.perfbench/``. The last line of standard
output is the JSON result; see ``perfbench/README.md`` for what each
metric means on each workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import ledger  # noqa: E402

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("paper", "fleet", "serve")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_s", "s"),
    ("warm_s", "s"),
)
#: Fresh interpreters whose set-up time makes one run's ``setup_s`` median.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

#: sha256 of the ``repro all`` output with its ``[id: N.Ns]`` lines removed.
PAPER_OUTPUT_SHA256 = (
    "a1be4d8299ee42f4422e22923f6c48ccc28acd6e53339f920c40c746281bf7f7"
)
PAPER_EXPERIMENTS = 23
TIMING_LINE = re.compile(r"^\[[a-z0-9_]+: \d+\.\ds\]$", re.M)

#: Workload parameters (``tiny`` shrinks them for the smoke test).
PARAMS = {
    "fleet": {"load_scale": 2.5, "horizon_days": 365, "warm_passes": 2,
              "parity_prefix": 5000},
    "serve": {"rounds": 6, "burst": 2000, "rate": 2000.0,
              "above_share": 0.01, "stream_seconds": 5.0},
}
TINY = {
    "fleet": {"load_scale": 2.5, "horizon_days": 14, "warm_passes": 1,
              "parity_prefix": 500},
    "serve": {"rounds": 2, "burst": 200, "rate": 200.0,
              "above_share": 0.01, "stream_seconds": 1.0},
}


class ChildFailed(RuntimeError):
    """A benchmark child process exited non-zero or timed out."""


class Bench:
    """One benchmark invocation: its work dir, children and seed."""

    def __init__(self, args, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.setup_samples = 1 if args.tiny else SETUP_SAMPLES
        self.params = dict((TINY if args.tiny else PARAMS).get(args.workload, {}))
        self.work = work
        self._n = 0
        self._prefill = None

    def processes(self, params):
        """Specs for fresh processes to start until ``--seconds`` pass.

        The traced run makes a single, traced process. Otherwise at least
        ``setup_samples`` processes start, so that ``setup_s`` is a median.
        """
        if self.trace:
            yield dict(params, trace=True)
            return
        t_end = time.monotonic() + self.seconds
        count = 0
        while count < self.setup_samples or time.monotonic() < t_end:
            count += 1
            yield dict(params)

    def path(self, stem):
        self._n += 1
        return self.work / f"{self._n:03d}-{stem}"

    def cache_dir(self, filled=False):
        """A cache dir of the caller's own: empty, or a copy of the filled one."""
        target = self.path("cache")
        if not filled:
            target.mkdir()
            return target
        if self._prefill is None:
            self._prefill = self.path("prefill")
            self._prefill.mkdir()
            self.child("prefill", cache=self._prefill)
        shutil.copytree(self._prefill, target)
        return target

    def child(self, role, cache, **spec):
        """Run ``child.py`` in a fresh interpreter; return its result doc.

        The doc gains ``setup_raw_s``, from just before the process
        started to the child's ``ready`` stamp on the monotonic clock,
        and ``setup_s``, the same rescaled by the reference runs on
        either side of it.
        """
        result = self.path(f"{role}.json")
        log = self.path(f"{role}.log")
        spec = dict(spec, role=role, result=str(result), seed=self.seed)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env["REPRO_CACHE_DIR"] = str(cache)
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        with open(log, "wb") as err:
            spawn_ref = calib.reference()
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=err, stderr=subprocess.STDOUT
            )
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise ChildFailed(f"{role} child exited {code}:\n{tail}")
        doc = json.loads(result.read_text())
        if "ready" in doc:
            doc["setup_raw_s"] = doc["ready"] - spawned
            doc["setup_s"] = calib.rescale(
                doc["setup_raw_s"], spawn_ref, doc["ready_ref"]
            )
        return doc


def _raw(values):
    return [round(v, 4) for v in values]


# -- workloads ---------------------------------------------------------------
def _paper_output(path):
    text = Path(path).read_text()
    stripped = TIMING_LINE.sub("", text)
    return len(TIMING_LINE.findall(text)), hashlib.sha256(
        stripped.encode()
    ).hexdigest()


def _paper_pair(b, trace):
    """``repro all`` on an empty cache dir (cold), then on the filled one."""
    cache = b.cache_dir()
    docs = []
    for label in ("cold", "warm"):
        stdout = b.path(f"paper-{label}.txt")
        doc = b.child("paper", cache, run=True, stdout=str(stdout), trace=trace)
        doc["lines"], doc["digest"] = _paper_output(stdout)
        doc["op_scaled_s"] = calib.rescale(doc["op_s"], doc["op_ref"])
        docs.append(doc)
    return docs


def paper(b):
    """Cold/warm ``repro all`` pairs for ``--seconds``; set-up is the import."""
    if b.trace:
        pairs = [_paper_pair(b, False), _paper_pair(b, True)]
        untraced = pairs[:1]
    else:
        pairs = []
        t_end = time.monotonic() + b.seconds
        while not pairs or time.monotonic() < t_end:
            pairs.append(_paper_pair(b, False))
        untraced = pairs
    docs = [d for pair in pairs for d in pair]
    runs = list(docs)
    while not b.trace and len(runs) < b.setup_samples:
        runs.append(b.child("paper", b.cache_dir(), run=False))
    attempted = PAPER_EXPERIMENTS * len(docs)
    failed = PAPER_EXPERIMENTS * sum(
        d["exit_code"] != 0 or d["lines"] != PAPER_EXPERIMENTS for d in docs
    )
    digests = {d["digest"] for d in docs}
    correct = digests == {PAPER_OUTPUT_SHA256} and failed == 0
    if not correct:
        failed = attempted
    cold = [pair[0] for pair in untraced]
    warm = [pair[1] for pair in untraced]
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(
                max(d["peak_rss_mb"] for d in pair) for pair in untraced
            ),
            "cold_s": statistics.median(d["op_scaled_s"] for d in cold),
            "warm_s": statistics.median(d["op_scaled_s"] for d in warm),
        },
        "info": {
            "cold_raw_s": _raw(d["op_s"] for d in cold),
            "warm_raw_s": _raw(d["op_s"] for d in warm),
            "setup_raw_s": _raw(r["setup_raw_s"] for r in runs),
            "output_sha256": sorted(digests),
        },
    }
    if b.trace:
        traced = pairs[1]

        def wall(pair):
            return sum(d["op_s"] for d in pair)

        out["ledger"], out["spans"] = _layers(
            b, traced,
            import_s=statistics.median(d["import_s"] for d in traced),
            overhead_frac=wall(traced) / wall(pairs[0]) - 1.0,
        )
    return out


def fleet(b):
    """Seeded multi-tenant stream at stable load, both scheduling modes.

    Fresh processes start one after another for ``--seconds``: each
    sets up, makes its cold pass, then its warm passes. The first also
    checks parity; in the traced run it is the only one.
    """
    runs = []
    for spec in b.processes(b.params):
        if runs:
            spec.pop("parity_prefix")
        runs.append(b.child("fleet", b.cache_dir(filled=True), **spec))
    main = runs[0]
    passes = [p for r in runs for p in r["passes"]]
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["unfinished"] for p in passes)
    digests = {p["digest"] for p in passes}
    refusals = sum(p["penalty_refusals"] for p in passes)
    correct = (
        main.get("parity") == "ok" and len(digests) == 1
        and failed == 0 and refusals == 0
    )
    if not correct:
        failed = attempted
    cold = [r["passes"][0] for r in runs]
    warm = [p for r in runs for p in r["passes"][1:]]
    warm_s = statistics.median(calib.rescale(p["wall_s"], p["ref"]) for p in warm)
    first = main["passes"][0]
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "cold_s": statistics.median(
                calib.rescale(p["wall_s"], p["ref"]) for p in cold
            ),
            "warm_s": warm_s,
        },
        "info": {
            "jobs_per_pass": first["jobs"],
            "jobs_per_s": first["jobs"] / warm_s,
            "cold_raw_s": _raw(p["wall_s"] for p in cold),
            "warm_raw_s": _raw(p["wall_s"] for p in warm),
            "setup_raw_s": _raw(r["setup_raw_s"] for r in runs),
            "cdi_mean_wait_h": first["cdi_mean_wait_h"],
            "cdi_gpu_util": first["cdi_gpu_util"],
            "parity": main.get("parity"),
            "digest": sorted(digests),
        },
    }
    if b.trace:
        out["ledger"], out["spans"] = _layers(
            b, [main], import_s=main["import_s"],
            overhead_frac=main["overhead_frac"],
        )
    return out


def serve(b):
    """Burst rounds through an in-process ``PenaltyService``, plus one stream.

    Fresh processes start one after another for ``--seconds``: each
    starts the service on a fresh copy of the filled cache and runs its
    burst rounds; the first also runs the open-loop stream. The traced
    run makes one untraced and one traced process with the same inputs.
    """
    runs = []
    if b.trace:
        for trace in (False, True):
            runs.append(b.child(
                "serve", b.cache_dir(filled=True), segment=0, trace=trace,
                **b.params,
            ))
    else:
        for spec in b.processes(b.params):
            if runs:
                spec["stream_seconds"] = 0
            runs.append(b.child(
                "serve", b.cache_dir(filled=True), segment=len(runs), **spec
            ))
    measured = runs[:1] if b.trace else runs
    rounds = [r for run in measured for r in run["rounds"]]
    streams = [run["stream"] for run in runs if run["stream"]]
    attempted = sum(r["checked"] for r in runs)
    failed = sum(len(s["errors"]) for s in streams)
    correct = failed == 0 and all(
        r["mismatched"] == 0 and r["above_bad"] == 0 for r in runs
    )
    if not correct:
        failed = attempted
    stream = streams[0]
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
            "cold_s": statistics.median(
                calib.rescale(r["cold_s"], r["ref"]) for r in rounds
            ),
            "warm_s": statistics.median(
                calib.rescale(r["warm_s"], r["ref"]) for r in rounds
            ),
        },
        "info": {
            "rounds": len(rounds),
            "burst_queries": b.params["burst"],
            "warm_raw_s": _raw(r["warm_s"] for r in rounds),
            "cold_raw_s": _raw(r["cold_s"] for r in rounds),
            "setup_raw_s": _raw(r["setup_raw_s"] for r in runs),
            "stream_queries": stream["queries"],
            "stream_rate_per_s": b.params["rate"],
            "stream_p50_ms": stream["p50_s"] * 1e3,
            "stream_p99_ms": stream["p99_s"] * 1e3,
            "stream_max_ms": stream["max_s"] * 1e3,
            "generator_late_mean_ms": stream["late_mean_ms"],
            "generator_late_max_ms": stream["late_max_ms"],
            "stream_cold_misses": stream["cold_misses"],
            "errors": [e for s in streams for e in s["errors"]][:5],
        },
    }
    if b.trace:
        plain, traced = runs

        def round_s(run):
            return statistics.median(
                r["warm_s"] + r["cold_s"] for r in run["rounds"]
            )

        out["ledger"], out["spans"] = _layers(
            b, [traced], import_s=traced["import_s"],
            overhead_frac=round_s(traced) / round_s(plain) - 1.0,
            generator_late_ms=traced["stream"]["late_mean_ms"],
        )
    return out


def _layers(b, docs, **kw):
    """Per-layer metrics (span totals, counters, ``-X importtime``) and spans."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["REPRO_CACHE_DIR"] = str(b.cache_dir())
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    merged = ledger.merge([d["ledger"] for d in docs])
    metrics = ledger.layer_metrics(
        merged,
        scipy_s=ledger.import_seconds(proc.stderr, "scipy"),
        networkx_s=ledger.import_seconds(proc.stderr, "networkx"),
        **kw,
    )
    return metrics, [
        [i, *span] for i, d in enumerate(docs) for span in d["ledger"]["spans"]
    ]


# -- provenance and output ----------------------------------------------------
def provenance(args, params):
    git_sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    params_doc = json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "tiny": args.tiny, "params": params},
        sort_keys=True,
    )

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "params_sha256": hashlib.sha256(params_doc.encode()).hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2

    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Compile bytecode first, so no run's set-up pays for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )
        bench = Bench(args, work)
        result = {"paper": paper, "fleet": fleet, "serve": serve}[
            args.workload
        ](bench)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["provenance"] = provenance(args, bench.params)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # One row per span: process, name, start, end, parent, thread.
        spans = result.pop("spans")
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        names = ledger.LAYER_METRICS
        values = result["ledger"]
    else:
        names = END_TO_END
        values = result["metrics"]
    for key, value in result["info"].items():
        print(f"{args.workload} {key}: {value}")
    print(f"{args.workload} provenance: {json.dumps(result['provenance'])}")
    metrics = {}
    for name, unit in names:
        print(f"{args.workload} {name}: {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
