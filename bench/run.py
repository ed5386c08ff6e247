"""survmae benchmark: end-to-end workloads, per-layer trace and size sweep.

Run from the repository root:

    python3 bench/run.py --workload oracle_cv --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --write-reference

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``oracle_cv``  - ``run_experiment`` on the criterion-6 shape, in-process;
* ``fitted_cli`` - ``survmae synth --kind orig-dep`` then ``survmae
  experiment --models km,coxph,weibull_aft`` through ``cli.main``;
* ``eval_file``  - ``survmae eval data.csv --curves curves.csv``.

A run imports survmae from ``src/`` of the checkout (nothing is installed),
builds the workload's bank of input instances, and iterates over them in an
order drawn from ``--seed`` for ``--seconds``, in a closed loop on one
thread. Every iteration's output is compared with the stored output of the
seed commit for that instance (``reference/``); a mismatch or an exception
counts as a failed iteration.

With ``--trace 0`` the run first makes one untimed pass over the bank, then
builds the same instances on ``survmae_baseline`` (a frozen copy of the
package, see its README.md) and times every iteration together with the
same instance on the baseline, in alternating order, until ``--seconds``
have passed and a pass over the bank is complete. The last line of stdout
is a JSON object with the end-to-end metrics:

* ``setup_s`` - median over five fresh-process set-ups of importing
  survmae and building the inputs;
* ``iter_rel_p50`` - median over the iterations of the iteration's time
  over its baseline partner's;
* ``subjects_per_s_rel`` - subject predictions per second of iteration time
  over the same on the baseline (total baseline time over total time);
* ``peak_rss_mb`` - peak resident memory after the untimed pass, before the
  baseline is loaded.

The lines above it also print the absolute ``iter_s_p50``, ``iter_s_tail``
(the highest percentile with at least ten iterations beyond it),
``subjects_per_s`` and ``error_rate``; these drift with the shared host's
speed, which the paired ratios cancel. ``--trace 1`` iterates untraced for
half the time, then makes one traced pass over the input bank (see
``tracer.py``), runs the size sweep (``sweep.py``) and reports the per-layer
metrics instead. Full results, with provenance, go to ``bench/results/``.

``--profile smoke`` uses tiny inputs; it is what ``test_smoke.py`` runs.
``--write-reference`` regenerates ``reference/`` from the current sources;
do that only in a change that alters outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "work"
REFERENCE = BENCH / "reference"

WORKLOADS = ("oracle_cv", "fitted_cli", "eval_file")
SETUP_PROBES = 4  # fresh-process set-ups besides the measuring process's own
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1

BASELINE = "survmae_baseline"  # frozen copy of survmae, see survmae_baseline/README.md
END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_rel_p50": "ratio",
    "subjects_per_s_rel": "ratio",
    "peak_rss_mb": "MB",
    # printed and kept in the result file, not in the result line
    "iter_s_p50": "s",
    "iter_s_tail": "s",
    "subjects_per_s": "1/s",
    "baseline_iter_s_p50": "s",
}
# per-layer busy seconds per iteration ("X.s"), from the traced run
BUSY = (
    "core.StepCurve",
    "core.load_dataset",
    "core.save_dataset",
    "core.SurvivalDataset.subset",
    "core.SurvivalDataset.from_arrays",
    "core.stratified_kfold",
    "estimators.km_fit",
    "estimators.coxph_fit",
    "estimators.cox_survival_curve",
    "estimators.weibull_aft_fit",
    "mae.margin_surrogates",
    "mae.extract_predicted_times",
    "mae.ipcw_t_surrogates",
    "mae.pseudo_obs_surrogates",
    "mae.pop_po_surrogates",
    "mae.point_scores",
    "metrics.concordance_index",
    "metrics.integrated_brier_score",
    "metrics.log_likelihood",
    "metrics.one_calibration",
    "metrics.d_calibration",
    "synth.make_semi_synthetic",
    "synth.sample_censor_times",
    "harness.load_curve_file",
    "harness.noisy_oracle_predictions",
)
# span minus its child spans ("X.self_s")
SELF = ("harness.run_experiment", "harness.evaluate_dataset", "cli.main")
# call counts per iteration, summed over the listed span names
CALLS = {
    "core.StepCurve.new.calls": ("core.StepCurve.__post_init__",),
    "core.StepCurve.lookup.calls": ("core.StepCurve.value", "core.StepCurve.value_before"),
    "estimators.km_fit.calls": ("estimators.km_fit",),
    "estimators.cox_survival_curve.calls": ("estimators.cox_survival_curve",),
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    import sweep  # noqa: PLC0415 - imports survmae, so only after it is on the path

    units = {f"{k}.s": "s" for k in BUSY}
    units.update({f"{k}.self_s": "s" for k in SELF})
    units.update({k: "count" for k in CALLS})
    units["harness.cells_defined_ratio"] = "ratio"
    units["import.survmae_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    for n in sweep.SIZES:
        units.update({sweep.metric_name(case, n): "s" for case in sweep.CASES})
    units["sweep.skipped"] = "count"
    units["sweep.errors"] = "count"
    return units


def pin_threads() -> None:
    """Keep BLAS/OpenMP pools to one thread (at most nproc) before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def setup(name: str, profile: str, seed: int, workdir: Path):
    """Import survmae and build the inputs: the work that ``setup_s`` times."""
    start = time.perf_counter()
    import survmae  # noqa: F401, PLC0415

    imported = time.perf_counter()
    import workloads  # noqa: PLC0415

    wl = workloads.build(name, profile, seed, workdir)
    return wl, imported - start, time.perf_counter() - start


def probe_setup(name: str, profile: str, seed: int) -> dict:
    """Time one set-up in a fresh process."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name,
            "--profile", profile, "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_stat(samples):
    """(value, percentile) of the highest integer percentile with at least ten
    samples beyond it (nearest rank); the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = 100 * (n - 10) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


class Runner:
    """Closed-loop iterations over a workload's instances in turn; every
    output is checked against the reference output of its instance."""

    def __init__(self, wl, references, workloads_mod):
        self.wl = wl
        self.references = references
        self.workloads = workloads_mod
        self.attempted = 0
        self.subjects = 0
        self.failures = []
        self.defined = []  # cells-defined ratio of every checked output

    def iterate(self, tracer=None) -> float:
        """Run, time and check the next instance, under a root span if traced."""
        inst = self.wl.instances[self.attempted % len(self.wl.instances)]
        self.attempted += 1
        self.subjects += inst.subjects
        run = tracer.wrap("bench.iteration", inst.run) if tracer else inst.run
        start = time.perf_counter()
        try:
            out = run()
        except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failures.append(f"instance {inst.index}: {traceback.format_exc(limit=4)}")
            return elapsed
        elapsed = time.perf_counter() - start
        problem = self.workloads.mismatch(self.references[inst.index], out)
        if problem:
            self.failures.append(f"instance {inst.index}: reference check: {problem}")
        self.defined.append(self.workloads.defined_ratio(out))
        return elapsed

    def loop(self, seconds: float, baseline=None):
        """Iterate in whole passes over the bank, so that every instance
        runs equally often, and stop at the pass boundary nearest to
        ``seconds`` (after one pass at least). With a
        ``baseline`` bank (the same instances built on the frozen baseline
        package), each iteration is paired with a run of the same instance
        on the baseline, in alternating order. Returns the iteration times,
        the paired baseline times and the subjects scored."""
        times, base, subjects = [], [], self.subjects
        bank = len(self.wl.instances)
        start = pass_start = time.perf_counter()
        while True:
            if times and not len(times) % bank:
                now = time.perf_counter()
                if now - start + (now - pass_start) / 2 >= seconds:
                    break
                pass_start = now
            if baseline is None:
                times.append(self.iterate())
                continue
            other = baseline[self.attempted % bank]
            if len(times) % 2:
                base.append(timed(other.run))
                times.append(self.iterate())
            else:
                times.append(self.iterate())
                base.append(timed(other.run))
        return times, base, self.subjects - subjects


def timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def load_references(name: str, profile: str):
    return json.loads((REFERENCE / f"{profile}-{name}.json").read_text())["outputs"]


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy  # noqa: PLC0415
    import scipy  # noqa: PLC0415

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def layer_metrics(snaps) -> dict:
    """Per-iteration medians of busy and self time, and per-iteration means
    of the call counts, over one traced pass through every instance."""
    out = {}
    for key in BUSY:
        out[f"{key}.s"] = statistics.median(s["busy"].get(key, 0.0) for s in snaps)
    for key in SELF:
        out[f"{key}.self_s"] = statistics.median(s["self_s"].get(key, 0.0) for s in snaps)
    for name, spans in CALLS.items():
        out[name] = statistics.fmean(sum(s["calls"].get(x, 0) for x in spans) for s in snaps)
    return out


def run_workload(args) -> int:
    name, profile, seed = args.workload, args.profile, args.seed
    setups = [probe_setup(name, profile, seed) for _ in range(SETUP_PROBES)]
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as workdir:
        wl, import_s, setup_s = setup(name, profile, seed, Path(workdir))
        setups.append({"import_s": import_s, "setup_s": setup_s})
        import workloads  # noqa: PLC0415 - already imported by setup()

        runner = Runner(wl, load_references(name, profile), workloads)
        for _ in wl.instances:  # warm-up pass: checked and counted, not timed
            runner.iterate()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "workload": name,
            "seed": seed,
            "profile": profile,
            "seconds": args.seconds,
            "trace": args.trace,
            "sizes": dict(wl.sizes, bank=len(wl.instances)),
            "instance_order": [inst.index for inst in wl.instances],
            "provenance": provenance(),
            "setup_samples": setups,
        }
        if args.trace:
            metrics = traced_run(args, runner, result, setups, Path(workdir), workloads)
        else:
            baseline = workloads.build(name, profile, seed, Path(workdir) / "baseline",
                                       package=BASELINE).instances
            baseline[0].run()  # warm-up of the baseline
            metrics = end_to_end(runner, baseline, setups, peak_rss_mb, result, args.seconds)

    failed = len(runner.failures)
    result.update(
        attempted=runner.attempted,
        failed=failed,
        error_rate=failed / runner.attempted,
        failures=runner.failures[:5],
        metrics=metrics,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {name}  seed {seed}  profile {profile}  sizes {json.dumps(result['sizes'])}")
    for key, m in result.get("shown", metrics).items():
        note = result["notes"].get(key, "")
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"  {'error_rate':<44} {result['error_rate']:>14.6g} ratio  "
          f"({failed} failed of {runner.attempted} attempted)")
    for failure in runner.failures[:3]:
        print(f"  failure: {failure.strip().splitlines()[-1]}")
    print(f"  result file: {(RESULTS / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(runner, baseline, setups, peak_rss_mb, result, seconds) -> dict:
    """Set-up time and memory as measured; iteration time and throughput
    relative to the baseline package, timed in pairs on the same instance.

    The host's speed drifts by a third or more over minutes, and absolute
    iteration times drift with it (they are printed and kept in the result
    file all the same). Both halves of a pair run within a second of each
    other, so their ratio does not drift."""
    times, base, subjects = runner.loop(seconds, baseline)
    tail, pct = tail_stat(times)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "iter_rel_p50": statistics.median(t / b for t, b in zip(times, base)),
        "subjects_per_s_rel": sum(base) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    absolute = {
        "iter_s_p50": statistics.median(times),
        "iter_s_tail": tail,
        "subjects_per_s": subjects / sum(times),
        "baseline_iter_s_p50": statistics.median(base),
    }
    passes = len(times) // len(runner.wl.instances)
    result.update(iteration_s=times, baseline_iteration_s=base)
    result["notes"] = {
        "setup_s": f"(median of {len(setups)} fresh-process set-ups)",
        "iter_rel_p50": f"({len(times)} pairs, {passes} passes over the bank)",
        "subjects_per_s_rel": f"({subjects / passes:g} subject predictions per pass)",
        "peak_rss_mb": "(after a warm-up pass, before the baseline is loaded)",
        "iter_s_tail": f"(p{pct} of {len(times)} iterations, "
                       f"{len(times) - math.ceil(pct * len(times) / 100)} beyond)",
    }
    result["shown"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in {**values, **absolute}.items()}
    return {k: result["shown"][k] for k in values}


def traced_run(args, runner, result, setups, workdir, workloads) -> dict:
    import sweep  # noqa: PLC0415
    from tracer import Tracer  # noqa: PLC0415

    untraced, _, _ = runner.loop(args.seconds / 2)
    # one traced pass over the bank, so that counts cover every instance once
    tracer = Tracer()
    traced, snaps, spans = [], [], []
    tracer.install()
    try:
        for _ in runner.wl.instances:
            tracer.log = spans if not traced else None
            traced.append(runner.iterate(tracer))
            snaps.append(tracer.take())
    finally:
        tracer.uninstall()
    values = layer_metrics(snaps)
    values["harness.cells_defined_ratio"] = statistics.fmean(runner.defined[-len(traced):])
    values["import.survmae_s"] = statistics.median(s["import_s"] for s in setups)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    cap_s = workloads.PROFILES[args.profile]["sweep_cap_s"]
    sweep_values, skipped, errors = sweep.run(args.seed, cap_s, workdir)
    values.update(sweep_values)
    values["sweep.skipped"] = len(skipped)
    values["sweep.errors"] = len(errors)

    span_log = RESULTS / f"{runner.wl.name}-seed{args.seed}-trace1-spans.jsonl"
    RESULTS.mkdir(parents=True, exist_ok=True)
    with span_log.open("w") as fh:
        for span_id, parent, name, start, end in spans:
            fh.write(json.dumps({"iteration": 0, "id": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")
    result.update(
        untraced_iteration_s=untraced,
        traced_iteration_s=traced,
        sweep_skipped=skipped,
        sweep_errors=errors,
        sweep_cap_s=cap_s,
        span_log=span_log.name,
        notes={
            **{name: "(stopped at the cap: lower bound)" for name in skipped},
            **{name: f"(raised {err.split(':')[0]})" for name, err in errors.items()},
        },
    )
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


def run_all(args) -> int:
    """Run every workload in its own process; print each report, then one table."""
    rows, totals = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--profile", args.profile]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        summary = json.loads(last)
        rows[name] = summary
        totals["correct"] &= summary["correct"]
        totals["attempted"] += summary["attempted"]
        totals["failed"] += summary["failed"]
        for key, m in summary["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = m
    print(f"{'metric':<44} {'unit':<6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for key, m in rows[WORKLOADS[0]]["metrics"].items():
        print(f"{key:<44} {m['unit']:<6}"
              + "".join(f"{rows[w]['metrics'][key]['value']:>14.6g}" for w in WORKLOADS))
    print(f"{'error_rate':<44} {'ratio':<6}"
          + "".join(f"{rows[w]['failed'] / rows[w]['attempted']:>14.6g}" for w in WORKLOADS))
    print(json.dumps(totals))
    return 0


def write_reference(profile: str) -> int:
    """Store the output of every input instance of every workload."""
    REFERENCE.mkdir(exist_ok=True)
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="reference-", dir=WORK) as workdir:
            import workloads  # noqa: PLC0415 - imports survmae

            wl = workloads.build(name, profile, 0, Path(workdir),
                                 tuple(range(workloads.PROFILES[profile]["bank"])))
            outputs = {}
            for inst in wl.instances:
                first, second = inst.run(), inst.run()
                if first != second:
                    raise RuntimeError(f"{name} instance {inst.index} is not deterministic")
                outputs[inst.index] = first
        doc = {"workload": name, "profile": profile, "sizes": wl.sizes,
               "provenance": provenance(), "outputs": [outputs[i] for i in sorted(outputs)]}
        (REFERENCE / f"{profile}-{name}.json").write_text(json.dumps(doc) + "\n")
        print(f"wrote reference for {name} ({profile}, {len(outputs)} instances)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference/ from the current sources")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.write_reference):
        parser.error("--workload is required")

    if not (SRC / "survmae" / "__init__.py").is_file():
        print(f"error: survmae sources not found at {SRC / 'survmae'}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    if args.write_reference:
        return write_reference(args.profile)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix="probe-", dir=WORK) as workdir:
            _, import_s, setup_s = setup(args.workload, args.profile, args.seed, Path(workdir))
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
