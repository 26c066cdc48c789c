"""Time-to-magic-root benchmark of magiclbm.

Runs one workload (see workloads.py and README.md) through the public
CLI entry point ``magiclbm.cli.main``, in this one process, one command
at a time: a closed loop with a single caller.  Rounds of the
workload's commands repeat until the next round would end after
``--seconds``.  Every output is checked against closed forms computed
here, and for byte-identical repeats.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.

The end-to-end times are corrected for the speed of the machine, which
drifts on a shared host: a fixed reference loop (``reference_loop``)
runs before and after every command and set-up sample, and each time
is scaled by ``REF_LOOP_S`` over the mean of the two loop times beside
it.  The times read as seconds on a machine where the loop takes
``REF_LOOP_S``; the traced run reports the raw wall times.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload roots --seed 1 --seconds 60 --trace 0

Outputs (generated INI files, CSVs, plot scripts, span files and the
cross-run state) go to perfbench/out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 11
# Median time of reference_loop() on the reference machine (README).
REF_LOOP_S = 0.075
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "evals": "count", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "package.import_s": "s",
    "config.busy_s": "s",
    "kernels.us_per_step": "us",
    "kernels.d1q3.us_per_step": "us",
    "kernels.d2q9.us_per_step": "us",
    "kernels.mlups": "MLUPS",
    "kernels.busy_s": "s",
    "kernels.call_us.p50": "us",
    "kernels.call_us.p90": "us",
    "kernels.calls": "count",
    "kernels.steps": "count",
    "kernels.d1q3.steps": "count",
    "kernels.d2q9.steps": "count",
    "experiments.march.calls": "count",
    "experiments.march.steps_per_call": "count",
    "experiments.march.busy_s": "s",
    "experiments.march.self_s": "s",
    "experiments.root.self_s": "s",
    "experiments.measure.busy_s": "s",
    "experiments.measure.self_s": "s",
    "fitting.calls": "count",
    "fitting.busy_s": "s",
    "results.busy_s": "s",
    "results.bytes": "bytes",
    "cli.self_s": "s",
    "trace.solve_s": "s",
    "trace.reference_solve_s": "s",
    "trace.accounted": "ratio",
    "machine.ref_loop_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def code_hash():
    """Digest of the program and of the benchmark inputs' generator."""
    digest = hashlib.sha256()
    files = [os.path.join(HERE, "workloads.py")]
    for folder, _, names in os.walk(os.path.join(SRC, "magiclbm")):
        files += [os.path.join(folder, n) for n in names if n.endswith(".py")]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def reference_loop():
    """Wall time of a fixed loop of small numpy operations, like the
    kernels' per-step work; it gauges the speed of the machine now."""
    import numpy as np  # after main() has capped the library threads

    f, g = np.zeros((9, 64, 4)), np.ones(64)
    start = time.perf_counter()
    for _ in range(3000):
        f[1:5] += 0.001 * f[5:9]
        f = f[:, ::-1].copy()
        g = np.roll(g, 1)
    return time.perf_counter() - start


def speed_scale(before, after):
    """Factor that turns a time taken between two reference loops into
    seconds at the reference machine's speed."""
    return 2.0 * REF_LOOP_S / (before + after)


def setup_sample(items):
    """One set-up sample, in a fresh interpreter (see setup_probe.py),
    with the speed scale of the reference loops around it."""
    before = reference_loop()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *items],
        capture_output=True, text=True, timeout=120, check=True,
    )
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["scale"] = speed_scale(before, reference_loop())
    return sample


def invoke(cli_main, argv):
    """Exit code of one CLI command; its stdout is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        return 1


class Runner:
    """Runs rounds of a workload's operations and checks every output."""

    def __init__(self, ops, run_dir):
        self.ops = ops
        self.argvs, self.csv_paths = [], []
        os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
        self.ini_paths = []
        for op in ops:
            ini_path = os.path.join(run_dir, "inputs", op.label + ".ini")
            with open(ini_path, "w", encoding="utf-8") as handle:
                handle.write(op.ini)
            out_dir = os.path.join(run_dir, op.label)
            self.ini_paths.append(ini_path)
            self.argvs.append([op.command, "--config", ini_path, "--out", out_dir])
            self.csv_paths.append(os.path.join(out_dir, op.command + ".csv"))
        self.attempted = self.failed = 0
        self.correct = True
        self.first = {}
        self.roots = {}
        self.evals = None
        self.ref_loops = []

    def round(self, call):
        """Run every operation once through ``call(argv)``; return the
        wall time of the commands, raw and corrected for machine speed."""
        elapsed, corrected, evals = 0.0, 0.0, 0
        before = reference_loop()
        for op, argv, csv_path in zip(self.ops, self.argvs, self.csv_paths):
            with contextlib.suppress(FileNotFoundError):
                os.remove(csv_path)
            start = time.perf_counter()
            code = call(argv)
            took = time.perf_counter() - start
            after = reference_loop()
            elapsed += took
            corrected += took * speed_scale(before, after)
            self.ref_loops += [before, after]
            before = after
            self.attempted += 1
            evals += self._check(op, code, csv_path)
        if self.evals is None:
            self.evals = evals
        return elapsed, corrected

    def _check(self, op, code, csv_path):
        if code != 0:
            return self._fail(op, [f"exit code {code}"])
        with open(csv_path, "rb") as handle:
            data = handle.read()
        if self.first.setdefault(op.label, data) != data:
            self._incorrect(f"{op.label}: CSV differs from the first round's")
        evals, root, problems = workloads.check(op, data.decode("utf-8"))
        if problems:
            return self._fail(op, problems)
        if root is not None:
            self.roots[op.label] = root
        return evals

    def _fail(self, op, problems):
        self.failed += 1
        for problem in problems:
            print(f"failed {op.label}: {problem}", file=sys.stderr)
        return 0

    def _incorrect(self, message):
        self.correct = False
        print(f"incorrect: {message}", file=sys.stderr)

    def check_across_runs(self, state_path, seed):
        """Compare with earlier runs of the same code in this checkout.

        CSVs of one seed must be byte-identical between runs (traced or
        not); roots of different seeds must agree to within the search
        tolerance, since the seed changes only how the product is split.
        """
        state = {"roots": {}, "csv": {}}
        if os.path.exists(state_path):
            with open(state_path, encoding="utf-8") as handle:
                state = json.load(handle)
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in self.first.items()}
        for label, digest in state["csv"].get(str(seed), {}).items():
            if digests.get(label, digest) != digest:
                self._incorrect(f"{label}: CSV differs from an earlier run of seed {seed}")
        for label, root in self.roots.items():
            earlier = state["roots"].setdefault(label, root)
            if abs(earlier - root) > workloads.SEED_ROOT_TOL:
                self._incorrect(f"{label}: root {root!r} moved from {earlier!r} with the seed")
        state["csv"].setdefault(str(seed), {}).update(digests)
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=1, sort_keys=True)


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magiclbm", "cli.py")):
        print(f"error: no magiclbm sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, SRC)

    ops = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(OUT, args.workload, f"seed-{args.seed}")
    runner = Runner(ops, run_dir)
    items = [f"{int(op.builds)}:{path}" for op, path in zip(ops, runner.ini_paths)]

    from magiclbm.cli import main as cli_main

    def plain(argv):
        return invoke(cli_main, argv)

    start = time.perf_counter()
    rounds, walls, setup = [], [], []

    def measure(one_round):
        # Set-up samples are spread over the run, one before each of the
        # first rounds, so that they see the same machine as the rounds.
        while not walls or (
            time.perf_counter() - start + statistics.median(walls) <= args.seconds
        ):
            if len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(items))
            began = time.perf_counter()
            rounds.append(one_round())
            walls.append(time.perf_counter() - began)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(items))

    if args.trace:
        tracer = spans.Tracer()
        reference, _ = runner.round(plain)  # untraced; traced CSVs must match it
        offsets = []

        def traced(argv):
            tracer.run = runner.attempted
            return tracer.call(spans.MAIN, invoke, (cli_main, argv))

        def traced_round():
            offsets.append(len(tracer.spans))
            return runner.round(traced)

        with tracer.installed():
            measure(traced_round)
        offsets.append(len(tracer.spans))
        tracer.write(os.path.join(run_dir, "spans.jsonl"))
        values = spans.median_metrics([
            spans.layer_metrics(tracer.spans[a:b], a, r)
            for a, b, (r, _) in zip(offsets, offsets[1:], rounds)
        ])
        values["package.import_s"] = statistics.median(s["import_s"] for s in setup)
        values["trace.reference_solve_s"] = reference
        values["machine.ref_loop_s"] = statistics.median(runner.ref_loops)
        metrics = metric_block(values, PER_LAYER_UNITS)
    else:
        measure(lambda: runner.round(plain))
        values = {
            "solve_s": statistics.median(c for _, c in rounds),
            "setup_s": statistics.median(
                (s["import_s"] + s["config_s"]) * s["scale"] for s in setup
            ),
            "evals": runner.evals,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = metric_block(values, END_TO_END_UNITS)

    runner.check_across_runs(
        os.path.join(OUT, args.workload, f"state-{code_hash()}.json"), args.seed
    )
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"round times {', '.join(f'{r:.3f}' for r, _ in rounds)} s, corrected "
        f"{', '.join(f'{c:.3f}' for _, c in rounds)} s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
