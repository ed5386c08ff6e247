"""Benchmark workloads: input generation, one iteration, and output checks.

Every workload generates a bank of input instances with NumPy and the
benchmark's own CSV writer; survmae only receives the generated arrays or
files, and is always called with its own seed fixed at 0. Each iteration
runs the next instance in an order drawn from the benchmark seed, so every
run covers the whole bank in the same proportions (some instances are
costlier, e.g. where a Cox fold fails to converge) and every iteration can
be checked against the stored output of the seed commit (``reference/``).

The same instances can be built against the frozen baseline copy of
survmae (``survmae_baseline``) instead, for the paired timing of ``run.py``.
Only the package named by ``build`` is imported, and only when it builds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

NAMES = ("oracle_cv", "fitted_cli", "eval_file")

# "full" is the measured profile; "smoke" is the tiny-n profile of the
# benchmark's own tests. ``bank`` is the number of distinct input instances
# that ``reference/`` holds outputs for; a run iterates over the ``measured``
# ones only, so that each is repeated often enough in a run for its fastest
# iteration to be steady. Instances 8-15 keep the two fitted_cli instances
# (11 and 14) on which one Cox fold fails to converge.
PROFILES = {
    "full": {
        "bank": 16,
        "measured": tuple(range(8, 16)),
        "oracle_cv": {"n": 500},
        "fitted_cli": {"n": 1000},
        "eval_file": {"n": 1000, "grid": 100},
        "sweep_cap_s": 3.0,
    },
    "smoke": {
        "bank": 2,
        "measured": (0, 1),
        "oracle_cv": {"n": 100},
        "fitted_cli": {"n": 200},
        "eval_file": {"n": 100, "grid": 20},
        "sweep_cap_s": 0.05,
    },
}

ORACLE_NOISES = ("0.05", "0.2", "0.5", "1.0", "2.0")
FITTED_MODELS = ("km", "coxph", "weibull_aft")
FOLDS = 5
N_FEATURES = 5


@dataclass
class Instance:
    """One input instance: ``run()`` performs a single timed iteration."""

    index: int
    run: Callable[[], object]
    subjects: int  # subject predictions scored per iteration


@dataclass
class Workload:
    name: str
    sizes: dict
    instances: list  # in iteration order


def write_csv(path: Path, header, columns) -> None:
    """Write numeric columns; integer columns as integers, floats with 17
    significant digits so that they read back exactly."""
    fmt = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns]
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",",
               header=",".join(header), comments="")


def covariate_data(rng: np.random.Generator, n: int):
    """Right-censored data whose event and censor times both depend on x."""
    x = rng.normal(size=(n, N_FEATURES))
    events_t = 10.0 * rng.weibull(1.5, n) * np.exp(-(x @ [0.5, -0.3, 0.2, 0.0, 0.4]) / 1.5)
    censor_t = rng.exponential(15.0, n) * np.exp(x @ [0.3, 0.0, 0.0, -0.2, 0.0])
    times = np.minimum(events_t, censor_t)
    return times, (events_t <= censor_t).astype(int), x


def run_cli(pkg, argv) -> str:
    """Call ``cli.main`` of ``pkg`` in-process and return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"survmae {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _oracle_cv(pkg, rng, sizes, workdir):
    n = sizes["n"]
    truths = 10.0 * rng.weibull(1.5, n)
    raw = pkg.core.SurvivalDataset.from_arrays(truths, np.ones(n, dtype=bool))
    spec = pkg.synth.CensoringSpec(kind="uniform_admin")
    ds = pkg.synth.make_semi_synthetic(raw, spec, seed=0)
    models = [pkg.harness.parse_model_spec(f"noisy:{s}") for s in ORACLE_NOISES]

    def run():
        return pkg.harness.run_experiment(ds, models, k=FOLDS, seed=0).to_json_dict()

    return run, ds.n * len(models)


def _fitted_cli(pkg, rng, sizes, workdir):
    n = sizes["n"]
    times, events, x = covariate_data(rng, n)
    raw = workdir / "raw.csv"
    write_csv(
        raw,
        ["time", "event"] + [f"x{j}" for j in range(N_FEATURES)],
        [times, events] + list(x.T),
    )
    semi, report = workdir / "semi.csv", workdir / "report.json"

    def run():
        report.unlink(missing_ok=True)
        run_cli(pkg, ["synth", str(raw), "--kind", "orig-dep", "-o", str(semi)])
        run_cli(pkg, [
            "experiment", str(semi), "--models", ",".join(FITTED_MODELS),
            "--k", str(FOLDS), "-o", str(report),
        ])
        return json.loads(report.read_text())

    # synth keeps the uncensored subjects; each lands in exactly one test fold
    return run, int(events.sum()) * len(FITTED_MODELS)


def _eval_file(pkg, rng, sizes, workdir):
    n, k = sizes["n"], sizes["grid"]
    truths = 10.0 * rng.weibull(1.5, n)
    censor = rng.uniform(0.0, 25.0, n)
    times = np.minimum(truths, censor)
    x = rng.normal(size=(n, 2))
    data = workdir / "data.csv"
    write_csv(
        data,
        ["time", "event", "true_time", "x0", "x1"],
        [times, (truths <= censor).astype(int), truths, x[:, 0], x[:, 1]],
    )
    grid = np.linspace(30.0 / k, 30.0, k)
    medians = truths * np.exp(rng.normal(0.0, 0.3, n))
    surv = np.exp(-math.log(2.0) * (grid[None, :] / medians[:, None]) ** 1.5)
    curves = workdir / "curves.csv"
    write_csv(curves, ["t"] + [repr(t) for t in grid.tolist()], [np.arange(n)] + list(surv.T))

    def run():
        return json.loads(run_cli(pkg, ["eval", str(data), "--curves", str(curves)]))

    return run, n


_BUILDERS = {"oracle_cv": (601, _oracle_cv), "fitted_cli": (602, _fitted_cli),
             "eval_file": (603, _eval_file)}


def build(name: str, profile: str, seed: int, workdir: Path, indices=None,
          package: str = "survmae") -> Workload:
    """Generate the instances ``indices`` (default: the measured ones) of
    workload ``name`` inside ``workdir``, ordered by ``seed``, to run on
    ``package``."""
    pkg = SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}")
                             for m in ("cli", "core", "harness", "synth")})
    stream, builder = _BUILDERS[name]
    sizes = dict(PROFILES[profile][name], folds=FOLDS)
    if indices is None:
        indices = PROFILES[profile]["measured"]
    instances = []
    for index in np.random.default_rng(seed).permutation(indices).tolist():
        instance_dir = Path(workdir) / str(index)
        instance_dir.mkdir(parents=True)
        rng = np.random.default_rng((stream, index))
        instances.append(Instance(index, *builder(pkg, rng, sizes, instance_dir)))
    return Workload(name, sizes, instances)


def defined_ratio(output) -> float:
    """Defined score cells over attempted cells of one workload output."""
    if "per_fold" in output:
        cells = [v for per_model in output["per_fold"].values()
                 for rows in per_model.values() for v in rows]
    else:
        cells = list(output.values())
    return sum(v is not None for v in cells) / len(cells)


def mismatch(expected, actual, path="$", rel=1e-12):
    """First difference between two JSON values, or None when they agree.

    Numbers must agree to ``rel`` relative tolerance; None (a missing cell)
    must meet None; strings, ranks and keys must match exactly.
    """
    if isinstance(expected, bool) or isinstance(actual, bool):
        return None if expected is actual else f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(actual - expected) <= rel * max(abs(actual), abs(expected)):
            return None
        return f"{path}: {actual!r} differs from reference {expected!r}"
    if isinstance(expected, dict) and isinstance(actual, dict):
        if list(expected) != list(actual):
            return f"{path}: keys {list(actual)} != {list(expected)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}.{key}", rel)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}[{i}]", rel)
            if found:
                return found
        return None
    return None if expected == actual else f"{path}: {actual!r} != {expected!r}"
