"""repmech end-to-end benchmark: one closed-loop client calling `repmech.cli.main`.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src. A run:

1. set-up: writes the workload's seeded configs and grid files under
   .perfbench_work/<workload>/;
2. warms up one op per class, untimed;
3. runs the op list ROUNDS times, one op at a time, timing each `cli.main`
   call. Before the first round and after each round it also times a fresh
   interpreter importing `repmech.cli` (see `time_import`), so that the
   ROUNDS + 1 spawns behind `setup_s` are spread over the run;
4. outside the timed region, reruns a sample of ops and compares their
   summary JSON byte for byte, and checks every op against its closed-form
   oracle.

The round count is fixed, so the figures do not depend on how fast the host
or the program is. --seconds is the nominal run length; the op lists are
sized so that ROUNDS rounds take about that long.

Times are reported in reference seconds. The host's speed drifts, so every
CALIBRATE_EVERY ops the run also times the calibration kernels
(calibration.py), which run no repmech code. Each op's time is scaled by
REFERENCE_S over the median of the CALIBRATION_WINDOW kernel samples nearest
to it. Each op's time is then its median over the rounds. A minimum would
favour the round whose calibration samples happened to read slow, so it
turns calibration noise into a varying bias. On six seeds each of orbits,
extremals and identities (2-vCPU VM), the median over rounds with a window of
nine samples, in place of the minimum with a window of five, cut the spread
of wall_s, op_s_p50 and op_s_p90 from 0.064 to 0.044 on average and from
0.158 to 0.065 at worst.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 the run times one untraced round, then one round with span
wrappers installed (see tracing.py), and reports the per-layer metrics
instead; the spans are written to .perfbench_work/<workload>/trace.json.

Exit status is 0 when the run completed (the JSON says whether every op was
correct) and 2 when the program is missing.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads, so timings do not depend on
# how OpenBLAS sizes its pool on the host
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
START_REFERENCE_S = 0.26  # reference seconds of a bare start plus an `import numpy`
ROUNDS = 3
CALIBRATE_EVERY = 2       # ops between calibration samples
CALIBRATION_WINDOW = 9    # samples whose median scales an op
RERUN_EVERY = 20          # every 20th op of the round order is rerun


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(code, env):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"python3 -c {code!r} failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def time_import():
    """Time of a fresh interpreter importing repmech.cli, in reference seconds.

    The import is timed next to two reference spawns that no program change
    can move, because ./src is not on their path: a bare interpreter start
    (`python3 -c pass`) and `python3 -c "import numpy"`. It is scaled by
    START_REFERENCE_S over their sum. The calibration kernels do not follow
    import cost; these spawns do. Over 4 minutes of spawns on a 2-vCPU VM,
    the spread of the medians of blocks of 4 was 0.18 for raw import times,
    0.070 when scaled by the bare start alone and 0.036 when scaled by the sum.
    """
    bare = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env = dict(bare, PYTHONPATH="src")
    reference = spawn("pass", bare) + spawn("import numpy", bare)
    return spawn("import repmech.cli", env) / reference * START_REFERENCE_S


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import repmech
    import repmech.cli
    if Path(repmech.__file__).resolve().parent != ROOT / "src" / "repmech":
        fail(f"imported repmech from {repmech.__file__}, not ./src")
    return repmech.cli


class Round:
    """One pass over the op list: raw per-op seconds, exit codes, calibration samples."""

    def __init__(self):
        self.times = []
        self.codes = []
        self.samples = []   # taken before ops 0, CALIBRATE_EVERY, 2 * CALIBRATE_EVERY, ...

    def scaled_times(self):
        """Op times in reference seconds, each scaled by the samples around it."""
        out = []
        half = CALIBRATION_WINDOW // 2
        for i, t in enumerate(self.times):
            j = min(max(i // CALIBRATE_EVERY - half, 0),
                    max(len(self.samples) - CALIBRATION_WINDOW, 0))
            local = statistics.median(self.samples[j:j + CALIBRATION_WINDOW])
            out.append(t * calibration.REFERENCE_S / local)
        return out

    @property
    def wall(self):
        """Sum of the op times, in reference seconds."""
        return math.fsum(self.scaled_times())


class Runner:
    """Runs ops through cli.main in this process."""

    def __init__(self, cli, ops, work):
        self.cli = cli
        self.ops = ops
        self.work = work

    def out_dir(self, tag, op):
        return self.work / tag / op.key

    def run_op(self, op, tag):
        argv = [op.subcommand, "--config", str(op.config), "--out", str(self.out_dir(tag, op))]
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:   # a program defect fails this op, not the run
            print(f"perfbench: {op.key} raised {exc!r}", file=sys.stderr)
            rc = 1
        return time.perf_counter() - t0, rc

    def round(self, tag, tracer=None):
        r = Round()
        for i, op in enumerate(self.ops):
            if i % CALIBRATE_EVERY == 0:
                r.samples.append(calibration.sample())
            if tracer is not None:
                tracer.current_op = i
            dt, rc = self.run_op(op, tag)
            r.times.append(dt)
            r.codes.append(rc)
        return r

    def summary_bytes(self, tag, op):
        path = self.out_dir(tag, op) / f"{op.subcommand}_summary.json"
        return path.read_bytes() if path.exists() else None

    def summary(self, tag, op):
        data = self.summary_bytes(tag, op)
        return json.loads(data) if data is not None else None


def warm_up(runner):
    """Run the smallest op of each class once, untimed."""
    smallest = {}
    for op in runner.ops:
        if op.klass not in smallest or op.size < smallest[op.klass].size:
            smallest[op.klass] = op
    for op in smallest.values():
        runner.run_op(op, "warm")


def verify(runner, tag, codes):
    """Oracle-check each op's output: (indices of bad ops, max relative error, reasons)."""
    bad, errors, reasons = set(), [], []
    for i, (op, rc) in enumerate(zip(runner.ops, codes)):
        summary = runner.summary(tag, op)
        if rc != 0 or summary is None:
            bad.add(i)
            reasons.append(f"{op.key}: exit code {rc}")
            continue
        good, err, why = oracles.check_op(op, summary, runner.out_dir(tag, op))
        if err is not None:
            errors.append(err)
        if not good:
            bad.add(i)
            reasons.append(f"{op.key}: {why}")
    return bad, max(errors, default=0.0), reasons


def rerun_sample(runner, tag):
    """Indices of sampled ops that fail or write different summary bytes when rerun."""
    changed = []
    for i in range(0, len(runner.ops), RERUN_EVERY):
        op = runner.ops[i]
        _, rc = runner.run_op(op, "rerun")
        if rc != 0 or runner.summary_bytes("rerun", op) != runner.summary_bytes(tag, op):
            changed.append(i)
    return changed


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end_metrics(setup_s, rounds, err_max):
    op_s = [statistics.median(ts) for ts in zip(*(r.scaled_times() for r in rounds))]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (math.fsum(op_s), "s"),
        "op_s_p50": (percentile(op_s, 50), "s"),
        "op_s_p90": (percentile(op_s, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_err_max": (err_max, "ratio"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; a run always makes ROUNDS rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repmech" / "cli.py").is_file():
        fail(f"no repmech sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ops = workloads.build(args.workload, args.seed, work)
    runner = Runner(import_cli(), ops, work)
    warm_up(runner)

    rounds = []
    if args.trace:
        rounds.append(runner.round("timed"))   # the untraced reference for trace.overhead_frac
    else:
        setup_times = [time_import()]
        for _ in range(ROUNDS):
            rounds.append(runner.round("timed"))
            setup_times.append(time_import())

    bad, err_max, reasons = verify(runner, "timed", rounds[0].codes)
    for i in rerun_sample(runner, "timed"):
        bad.add(i)
        reasons.append(f"{ops[i].key}: summary differs on rerun")

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.round("traced", tracer)
        finally:
            tracer.uninstall()
        for i, op in enumerate(ops):
            if runner.summary_bytes("traced", op) != runner.summary_bytes("timed", op):
                bad.add(i)
                reasons.append(f"{op.key}: traced summary differs")
        tracer.write(work / "trace.json")
        summaries = [runner.summary("traced", op) for op in ops]
        metrics = tracing.layer_metrics(tracer, ops, summaries, traced.wall, rounds[0].wall)
    else:
        metrics = end_to_end_metrics(statistics.median(setup_times), rounds, err_max)

    attempted = len(rounds) * len(ops)
    failed = sum(1 for r in rounds for i, rc in enumerate(r.codes) if rc != 0 or i in bad)
    for line in reasons[:20]:
        print(f"perfbench: FAIL {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"ops/round={len(ops)} failed={failed}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
