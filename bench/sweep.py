"""Per-layer size sweep of the known scaling hot spots.

Each case calls one layer function at n in {1e3, 1e4, 1e5} on inputs made
from the benchmark seed. A call that runs past the per-case cap is stopped
with SIGALRM and recorded as skipped, not failed; its value is then the time
at which it was stopped, a lower bound. A call that raises (``coxph_fit``
can end in ``ConvergenceError`` on large inputs) is recorded as an error
with the time it took to raise. Values are the median of the repeats at the
small sizes and one call at the largest.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

from survmae import core, estimators, mae, metrics

from workloads import N_FEATURES, covariate_data, write_csv

SIZES = (1_000, 10_000, 100_000)
CASES = (
    "metrics.concordance_index",
    "mae.margin_surrogates",
    "mae.pseudo_obs_surrogates",
    "core.load_dataset",
    "core.SurvivalDataset.from_arrays",
    "estimators.coxph_fit",
)


def metric_name(case: str, n: int) -> str:
    return f"{case}.n1e{round(np.log10(n))}_s"


class _CapExceeded(Exception):
    pass


def _timed(fn, cap_s):
    """Seconds one call of ``fn`` took, and how it ended: None when it
    returned, "skipped" when the cap stopped it, else the error it raised."""
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:  # an alarm handled after the call ended raises nothing
            raise _CapExceeded

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    outcome = None
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            fn()
        finally:
            armed[0] = False
    except _CapExceeded:
        outcome = "skipped"
    except Exception as exc:  # noqa: BLE001 - recorded, the sweep goes on
        outcome = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    return elapsed, outcome


def run(seed: int, cap_s: float, workdir):
    """Time every case at every size.

    Returns the values, the names of skipped cases and a name-to-error map.
    """
    values, skipped, errors = {}, [], {}
    for n in SIZES:
        rng = np.random.default_rng((604, seed, n))
        times, events, x = covariate_data(rng, n)
        ds = core.SurvivalDataset.from_arrays(times, events, x)
        preds = mae.PredictedTimes(values=times * np.exp(rng.normal(0.0, 0.5, n)))
        km = estimators.km_fit(ds.times, ds.events)
        csv_path = workdir / f"sweep_{n}.csv"
        write_csv(
            csv_path,
            ["time", "event"] + [f"x{j}" for j in range(N_FEATURES)],
            [times, events] + list(x.T),
        )
        calls = {
            "metrics.concordance_index": lambda: metrics.concordance_index(preds, ds),
            "mae.margin_surrogates": lambda: mae.margin_surrogates(ds, km),
            "mae.pseudo_obs_surrogates": lambda: mae.pseudo_obs_surrogates(ds),
            "core.load_dataset": lambda: core.load_dataset(csv_path),
            "core.SurvivalDataset.from_arrays":
                lambda: core.SurvivalDataset.from_arrays(times, events, x),
            "estimators.coxph_fit": lambda: estimators.coxph_fit(ds),
        }
        repeats = 3 if n < SIZES[-1] else 1
        for case in CASES:
            name = metric_name(case, n)
            samples = []
            for _ in range(repeats):
                elapsed, outcome = _timed(calls[case], cap_s)
                samples.append(elapsed)
                if outcome:
                    break
            if outcome == "skipped":
                skipped.append(name)
            elif outcome:
                errors[name] = outcome
            values[name] = samples[-1] if outcome else statistics.median(samples)
        csv_path.unlink()
    return values, skipped, errors
