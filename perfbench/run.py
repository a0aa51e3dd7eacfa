"""End-to-end benchmark: the paper reproduction, the cold CLI, cold-start serving.

Run from the repository root (the checkout's ``src/`` is put on the
children's ``PYTHONPATH``; no BLAS thread variable is set, so the user's
defaults are what is measured)::

    python3 perfbench/run.py --workload repro-quick --seed 0 --seconds 20 --trace 0

Workloads, each driving the real entry points in fresh interpreters:

``repro-quick``
    ``python -m repro.experiments.run all --seed S`` at quick scale,
    repeated until ``--seconds`` have passed (at least once).  An
    operation is one experiment; its wall time is read off the
    timestamps of the runner's unbuffered output.
``cli-cold``
    A cold ``repro.cli train --model sq-vae --dataset pdbbind
    --warm-start-bias`` then a cold ``repro.cli sample --count 200`` of
    its checkpoint, repeated.  An operation is one train+sample pair.
``serve-cold``
    ``repro.cli serve --port 0`` on a checkpoint built before timing;
    two connections run a closed loop alternating ``sample`` (count 8,
    seeded) with ``score`` (8 PDBbind matrices generated from the seed).
    An operation is one request.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:
``setup_s`` (median of several set-ups: spawn until
``repro.experiments.run`` is imported; harness set-up only for the CLI,
whose users pay imports on every invocation; spawn until the first
``ping`` reply for the server), the median operation latency, and
operations completed per second.  Workload-specific figures
(``repro_wall_s``, ``exp.*_s``, ``cli_train_s``, ``serve_p99_ms``, ...)
are printed above the result line with their units and sample counts;
they are not gated, because on a shared 2-core host their run-to-run
spread (p99 in particular) is close to the largest bound allowed.

``--trace 1`` runs the workload untraced, then once more under
``traced.py``, and prints the per-layer metrics: self seconds per layer,
counters, the ``-X importtime`` breakdown and ``other.self_s`` (traced
wall minus every layer's self time), so each table adds up to
``trace.wall_s``.

Outputs are checked and every operation counts as attempted, and as
failed on a mismatch, non-zero exit, timeout or dropped connection.  The
last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from importtime import import_metrics  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("repro-quick", "cli-cold", "serve-cold")

# The whole benchmark must finish within 180 s; children get what is left.
BUDGET_S = 165.0
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 10.0
CONNECTIONS = 2

EXPERIMENTS = ("fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2")
HEADER = re.compile(r"^=== (\w+) \([\d.]+s\) ===$")
PANEL = re.compile(r"^--- \w+ ---$")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b",
                    re.IGNORECASE)
NOT_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)

TRAIN_ARGS = ("train", "--model", "sq-vae", "--dataset", "pdbbind",
              "--warm-start-bias")
SAMPLE_COUNT = 200
DECODED = re.compile(rf"^(\d+)/{SAMPLE_COUNT} samples decoded", re.MULTILINE)
SERVE_COUNT = 8
SCORE_POOL = 64
MATRIX_SIZE = 32

# Span layer -> its self-time metric, and the counters the spans keep.
BUSY = {"data": "data.busy_s", "training": "training.busy_s",
        "quantum.fwd": "quantum.fwd_busy_s", "quantum.bwd": "quantum.bwd_busy_s",
        "autodiff": "autodiff.self_s", "optim": "optim.busy_s",
        "evaluation": "evaluation.busy_s", "chem": "chem.busy_s"}
COUNTERS = ("data.calls", "data.rows", "data.repeat_calls", "training.fits",
            "training.samples", "quantum.fwd_calls", "quantum.fwd_rows",
            "quantum.bwd_calls", "autodiff.backward_calls", "optim.steps",
            "optim.param_elems", "evaluation.decode_rows", "chem.molecules",
            "chem.usable")


# ----------------------------------------------------------------------
# Statistics and the machine stamp
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50)


def openblas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if undetectable."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return int(query())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def machine_stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
        "blas_threads": openblas_threads(),
        "commit": git_commit(),
    }


# ----------------------------------------------------------------------
# One benchmark invocation
# ----------------------------------------------------------------------
class Run:
    """Deadline, work directory, child environment and the op ledger."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + BUDGET_S
        self.work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.details: list[tuple[str, float, str, int]] = []
        self._children: list[subprocess.Popen] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
        return ok

    def detail(self, name: str, values, unit: str, scale: float = 1.0) -> None:
        if values:
            self.details.append((name, median(values) * scale, unit, len(values)))

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def path(self, name: str) -> Path:
        return self.work / name

    def python(self, *args, trace_out: Path | None = None) -> list[str]:
        """argv for a fresh interpreter; ``trace_out`` runs it under traced.py."""
        if trace_out is None:
            return [sys.executable, "-u", *args]
        if args[0] != "-m":
            raise ValueError(f"only -m entry points can be traced, got {args}")
        return [sys.executable, "-u", "-X", "importtime", str(BENCH / "traced.py"),
                "--out", str(trace_out), *args[1:]]

    def popen(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
        self._children.append(proc)
        return proc

    def call(self, argv, stderr_path: Path | None = None):
        """Run to completion: (wall seconds, return code or None, stdout)."""
        start = time.perf_counter()
        with open(stderr_path or os.devnull, "w") as err:
            proc = self.popen(argv, stdout=subprocess.PIPE, stderr=err, text=True)
            try:
                out, __ = proc.communicate(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                stop(proc)
                return time.perf_counter() - start, None, ""
        return time.perf_counter() - start, proc.returncode, out

    def close(self) -> None:
        for proc in self._children:
            stop(proc)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Interrupt a child, then kill it if it lingers; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class Trace:
    """Per-layer totals gathered from every traced process of a run."""

    def __init__(self):
        self.wall_s = 0.0
        self.self_s = dict.fromkeys(BUSY, 0.0)
        self.counters: dict[str, float] = {}
        self.imports = dict.fromkeys(import_metrics(""), 0.0)
        self.plan_hits = 0
        self.plan_misses = 0

    def add_process(self, wall_s: float, spans_path: Path, stderr_path: Path) -> bool:
        """Fold one traced process in; False when it left no span file."""
        self.wall_s += wall_s
        for name, value in import_metrics(stderr_path.read_text()).items():
            self.imports[name] += value
        if not spans_path.is_file():
            return False
        report = json.loads(spans_path.read_text())
        for layer, seconds in report["self_s"].items():
            self.self_s[layer] += seconds
        for name, value in report["counters"].items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        self.plan_hits += report["plan_cache"]["hits"]
        self.plan_misses += report["plan_cache"]["misses"]
        return True

    def metrics(self) -> dict[str, float]:
        metrics = dict(self.imports)
        metrics.update({name: self.counters.get(name, 0.0) for name in COUNTERS})
        metrics.update({name: self.self_s[layer] for layer, name in BUSY.items()})
        molecules = metrics["chem.molecules"]
        metrics["chem.usable_ratio"] = (metrics["chem.usable"] / molecules
                                        if molecules else 0.0)
        metrics["autodiff.plan_hits"] = float(self.plan_hits)
        metrics["autodiff.plan_misses"] = float(self.plan_misses)
        metrics.update(serving_metrics(None))
        layered = sum(self.self_s.values()) + self.imports["imports.total_s"]
        metrics["other.self_s"] = self.wall_s - layered
        metrics["trace.wall_s"] = self.wall_s
        return metrics


# ----------------------------------------------------------------------
# repro-quick
# ----------------------------------------------------------------------
def load_goldens() -> dict:
    return json.loads((BENCH / "goldens.json").read_text())


def run_experiments(run: Run, trace_out: Path | None = None,
                    stderr_path: Path | None = None):
    """One ``experiments.run all``: (wall, return code, {name: (seconds, tokens)})."""
    argv = run.python("-m", "repro.experiments.run", "all",
                      "--seed", str(run.seed), trace_out=trace_out)
    start = time.perf_counter()
    with open(stderr_path or os.devnull, "w") as err:
        proc = run.popen(argv, stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(run.remaining(), proc.kill)
        watchdog.start()
        events = [(time.perf_counter(), line.rstrip("\n")) for line in proc.stdout]
        proc.wait()
        watchdog.cancel()
    wall = time.perf_counter() - start
    results: dict[str, tuple[float, list[str]]] = {}
    previous = start
    section: list[str] | None = None
    for stamp, line in events:
        match = HEADER.match(line)
        if match:
            section = []
            results[match.group(1)] = (stamp - previous, section)
        elif PANEL.match(line):
            section = None  # ASCII panels follow the table; only cells count
        elif section is not None:
            section.append(line)
        if line:
            # The runner prints "\n=== name" in one write, so the blank
            # line before a header does not mark the experiment's start.
            previous = stamp
    parsed = {name: (seconds, NUMBER.findall("\n".join(lines)))
              for name, (seconds, lines) in results.items()}
    return wall, proc.returncode, parsed


def check_experiments(run: Run, returncode, parsed, goldens: dict) -> list[str]:
    """Count every experiment as an op; return the names that passed."""
    passed = []
    for name in EXPERIMENTS:
        golden = goldens["experiments"][name]
        found = parsed.get(name)
        if returncode != 0 or found is None:
            run.op(False, f"{name}: missing (exit {returncode})")
            continue
        tokens = found[1]
        if run.seed == goldens["seed"]:
            ok = run.op(tokens == golden, f"{name}: results differ from goldens")
        else:
            ok = run.op(
                len(tokens) == len(golden)
                and not any(NOT_FINITE.fullmatch(token) for token in tokens),
                f"{name}: {len(tokens)} cells (expected {len(golden)}) or non-finite",
            )
        if ok:
            passed.append(name)
    return passed


def repeat(run: Run, seconds: float, once) -> list:
    """Call ``once(index)`` until ``seconds`` have passed (at least once),
    stopping early when the budget left would not fit another call."""
    results, started = [], time.perf_counter()
    while True:
        results.append(once(len(results)))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds or run.remaining() < 2 * elapsed / len(results):
            return results


def op_metrics(setups, latencies_s, ops_per_s: float) -> dict[str, float]:
    return {
        "setup_s": median(setups),
        "op_p50_ms": median(latencies_s) * 1e3,
        "ops_per_s": ops_per_s,
    }


def repro_quick(run: Run, trace: bool) -> dict[str, float]:
    goldens = load_goldens()
    setups = []
    for __ in range(0 if trace else SETUP_REPEATS):
        wall, code, __ = run.call(run.python("-c", "import repro.experiments.run"))
        if run.op(code == 0, "import repro.experiments.run"):
            setups.append(wall)

    walls, per_experiment = [], {name: [] for name in EXPERIMENTS}
    for wall, code, parsed in repeat(run, run.seconds,
                                     lambda index: run_experiments(run)):
        passed = check_experiments(run, code, parsed, goldens)
        for name in passed:
            per_experiment[name].append(parsed[name][0])
        if len(passed) == len(EXPERIMENTS):
            walls.append(wall)
    run.detail("repro_wall_s", walls, "s")
    for name in EXPERIMENTS:
        if name != "table1":
            run.detail(f"exp.{name}_s", per_experiment[name], "s")
    if not trace:
        return op_metrics(setups, walls, len(walls) / sum(walls))

    traced = Trace()
    spans, err = run.path("spans.json"), run.path("stderr.txt")
    wall, code, parsed = run_experiments(run, trace_out=spans, stderr_path=err)
    check_experiments(run, code, parsed, goldens)
    run.op(traced.add_process(wall, spans, err), "traced run wrote no spans")
    metrics = traced.metrics()
    metrics["trace.overhead_frac"] = wall / median(walls) - 1.0
    return metrics


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
def cli_pair(run: Run, index: int, trace: Trace | None = None):
    """Cold train then cold sample; (train s, sample s) or None on failure."""
    from repro.nn.serialization import read_checkpoint_metadata

    seed = str(run.seed * 1000 + index)
    checkpoint = run.path("ckpt.npz")
    checkpoint.unlink(missing_ok=True)
    walls = []
    for step, args in (
        ("train", [*TRAIN_ARGS, "--out", str(checkpoint), "--seed", seed]),
        ("sample", ["sample", "--checkpoint", str(checkpoint),
                    "--count", str(SAMPLE_COUNT), "--seed", seed]),
    ):
        spans, err = run.path(f"{step}.spans.json"), run.path(f"{step}.stderr.txt")
        spans.unlink(missing_ok=True)
        traced = trace is not None
        wall, code, out = run.call(
            run.python("-m", "repro.cli", *args,
                       trace_out=spans if traced else None),
            stderr_path=err if traced else None,
        )
        if traced and not trace.add_process(wall, spans, err):
            code = None
        if step == "train":
            try:
                ok = (code == 0
                      and read_checkpoint_metadata(checkpoint)["model"] == "sq-vae")
            except (OSError, ValueError, KeyError):
                ok = False
        else:
            decoded = DECODED.search(out)
            ok = code == 0 and decoded is not None and int(decoded.group(1)) > 0
        if not run.op(ok, f"cli {step} --seed {seed} (exit {code})"):
            return None
        walls.append(wall)
    return tuple(walls)


def cli_cold(run: Run, trace: bool) -> dict[str, float]:
    # Harness set-up: the work directory and an interpreter start-up
    # probe; imports belong to the invocations, where users pay them.
    setups = []
    for __ in range(0 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(run.work, ignore_errors=True)
        run.work.mkdir(parents=True)
        __, code, __ = run.call([sys.executable, "-c", "pass"])
        setups.append(time.perf_counter() - start)
        run.op(code == 0, "interpreter start-up probe")

    # A traced run splits its time between the untraced and traced halves.
    seconds = run.seconds / 2 if trace else run.seconds
    pairs = [pair for pair in repeat(run, seconds, lambda index: cli_pair(run, index))
             if pair is not None]
    run.detail("cli_train_s", [train for train, __ in pairs], "s")
    run.detail("cli_sample_s", [sample for __, sample in pairs], "s")
    walls = [sum(pair) for pair in pairs]
    if not trace:
        return op_metrics(setups, walls, len(walls) / sum(walls))

    traced = Trace()
    traced_walls = [sum(pair) for pair in repeat(
        run, seconds, lambda index: cli_pair(run, 500 + index, traced))
        if pair is not None]
    metrics = traced.metrics()
    metrics["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0
    return metrics


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
class Server:
    """A cold ``repro.cli serve`` child, started and stopped by the harness."""

    def __init__(self, run: Run, checkpoint: Path, name: str,
                 trace_out: Path | None = None):
        self.ready = run.path(f"{name}.ready")
        self.stderr_path = run.path(f"{name}.stderr.txt")
        argv = run.python("-m", "repro.cli", "serve", "--checkpoint", str(checkpoint),
                          "--port", "0", "--ready-file", str(self.ready),
                          trace_out=trace_out)
        self.started = time.perf_counter()
        with open(self.stderr_path, "w") as err:
            self.proc = run.popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.perf_counter() + min(60.0, run.remaining())
        while not self.ready.is_file() or not self.ready.read_text().endswith("\n"):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.stderr_path.read_text()}")
            time.sleep(0.002)
        host, port = self.ready.read_text().split()
        self.address = (host, int(port))
        with Connection(self.address) as conn:
            reply, __ = conn.request(b'{"kind": "ping"}\n')
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        self.setup_s = time.perf_counter() - self.started

    def stop(self) -> float:
        """Stop with SIGINT; the server's wall from spawn to exit."""
        stop(self.proc)
        return time.perf_counter() - self.started


class Connection:
    """One JSON-lines connection; ``request`` returns (reply, bytes read)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT_S)
        self.file = self.sock.makefile("rwb")

    def request(self, line: bytes):
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return json.loads(reply), len(reply)

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def score_requests(run: Run):
    """Score request lines over PDBbind matrices from the seed, with their
    expected replies from the in-process ``per_molecule_scores``."""
    from repro.data import load_pdbbind_ligands
    from repro.serving import per_molecule_scores

    pool = load_pdbbind_ligands(n_samples=SCORE_POOL, seed=run.seed).raw
    requests = []
    for start in range(0, SCORE_POOL, SERVE_COUNT):
        chunk = pool[start:start + SERVE_COUNT].astype(float)
        expected = {name: values.tolist()
                    for name, values in per_molecule_scores(chunk).items()}
        line = json.dumps({"kind": "score", "matrices": chunk.tolist()}) + "\n"
        requests.append((line.encode(), expected))
    return requests


def client_loop(run: Run, address, conn_id: int, until: float, scores, records):
    """Closed loop: alternate sample and score until ``until``."""
    conn = None
    index = 0
    while time.perf_counter() < until:
        if index % 2 == 0:
            kind = "sample"
            seed = run.seed * 1_000_000 + conn_id * 100_000 + index
            line = json.dumps({"kind": "sample", "count": SERVE_COUNT,
                               "seed": seed}).encode() + b"\n"
            expected = None
        else:
            kind = "score"
            line, expected = scores[(conn_id + index // 2) % len(scores)]
        index += 1
        start = time.perf_counter()
        try:
            if conn is None:
                conn = Connection(address)
            reply, size = conn.request(line)
        except (OSError, ValueError) as exc:
            records.append((kind, REQUEST_TIMEOUT_S, False, 0, f"{kind}: {exc!r}"))
            if conn is not None:
                conn.close()
                conn = None
            continue
        latency = time.perf_counter() - start
        if kind == "sample":
            matrices = reply.get("matrices") or []
            ok = (reply.get("ok") is True and len(matrices) == SERVE_COUNT
                  and all(len(rows) == MATRIX_SIZE
                          and all(len(row) == MATRIX_SIZE for row in rows)
                          for rows in matrices))
        else:
            ok = reply.get("ok") is True and all(
                reply.get(name) == values for name, values in expected.items())
        records.append((kind, latency, ok, size, f"{kind}: {str(reply)[:200]}"))
    if conn is not None:
        conn.close()


def serve_session(run: Run, server: Server, scores, seconds: float) -> dict:
    """The timed closed loop against a ready server, then its stats."""
    records: list = []
    started = time.perf_counter()
    until = started + seconds
    threads = [threading.Thread(target=client_loop,
                                args=(run, server.address, conn_id, until,
                                      scores, records))
               for conn_id in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    for __, __, ok, __, what in records:
        run.op(ok, what)
    with Connection(server.address) as conn:
        reply, __ = conn.request(b'{"kind": "stats"}\n')
    run.op(reply.get("ok") is True, "stats request")
    return {"records": records, "elapsed": elapsed, "stats": reply.get("stats", {})}


def serving_metrics(session: dict | None) -> dict[str, float]:
    """The ``serving.*`` metrics of an untraced session; zeros without one."""
    session = session or {"records": [], "stats": {}}
    records = session["records"]
    batcher = session["stats"].get("batcher", {})
    registry = session["stats"].get("registry", {})

    def p50_ms(kind):
        values = [latency for k, latency, __, __, __ in records if k == kind]
        return median(values) * 1e3 if values else 0.0

    sizes = [size for __, __, ok, size, __ in records if ok]
    return {
        "serving.mean_batch_size": float(batcher.get("mean_batch_size", 0.0)),
        "serving.batches": float(batcher.get("batches", 0)),
        "serving.expired": float(batcher.get("expired", 0)),
        "serving.registry_misses": float(registry.get("misses", 0)),
        "serving.sample_p50_ms": p50_ms("sample"),
        "serving.score_p50_ms": p50_ms("score"),
        "serving.response_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
    }


def serve_cold(run: Run, trace: bool) -> dict[str, float]:
    checkpoint = run.path("serve.npz")
    __, code, __ = run.call(run.python(
        "-m", "repro.cli", *TRAIN_ARGS, "--out", str(checkpoint),
        "--seed", str(run.seed)))
    if not run.op(code == 0 and checkpoint.is_file(), "building the checkpoint"):
        raise RuntimeError("could not build the serving checkpoint")
    scores = score_requests(run)

    setups = []
    for index in range(0 if trace else SETUP_REPEATS - 1):
        cold = Server(run, checkpoint, f"cold{index}")
        setups.append(cold.setup_s)
        cold.stop()
    server = Server(run, checkpoint, "server")
    setups.append(server.setup_s)
    seconds = run.seconds / 2 if trace else run.seconds
    try:
        session = serve_session(run, server, scores, seconds)
    finally:
        server.stop()
    records = session["records"]
    latencies = [latency for __, latency, __, __, __ in records]
    done = sum(1 for __, __, ok, __, __ in records if ok)
    run.detail("serve_mol_per_s", [SERVE_COUNT * done / session["elapsed"]], "mol/s")
    run.detail("serve_p50_ms", latencies, "ms", 1e3)
    run.details.append(("serve_p99_ms", percentile(latencies, 99) * 1e3, "ms",
                        len(latencies)))
    if not trace:
        return op_metrics(setups, latencies, done / session["elapsed"])

    traced = Trace()
    spans = run.path("server.spans.json")
    server = Server(run, checkpoint, "traced", trace_out=spans)
    try:
        traced_session = serve_session(run, server, scores, seconds)
    finally:
        wall = server.stop()
    run.op(traced.add_process(wall, spans, server.stderr_path),
           "traced server wrote no spans")
    traced_done = sum(1 for __, __, ok, __, __ in traced_session["records"] if ok)
    metrics = traced.metrics()
    metrics.update(serving_metrics(session))
    metrics["trace.overhead_frac"] = (
        (traced_session["elapsed"] / max(traced_done, 1))
        / (session["elapsed"] / max(done, 1)) - 1.0)
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
RUNNERS = {"repro-quick": repro_quick, "cli-cold": cli_cold,
           "serve-cold": serve_cold}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.work.mkdir(parents=True, exist_ok=True)
        values = RUNNERS[args.workload](run, bool(args.trace))
    finally:
        run.close()

    names = [metric["name"] for metric in wanted]
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}")
    print("machine " + json.dumps(machine_stamp()))
    for name, value, unit, count in run.details:
        print(f"  {name:<28} {value:>14.4f} {unit:<6} n={count}")
    for metric in wanted:
        print(f"  {metric['name']:<28} {values[metric['name']]:>14.4f} {metric['unit']}")
    print(f"  operations attempted {run.attempted} failed {run.failed}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
