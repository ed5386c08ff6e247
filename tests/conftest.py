import numpy as np

from survmae import SurvivalDataset, km_fit


def random_censored_dataset(rng, n=None, censor_count=None, t_scale=10.0):
    """A dataset with continuous times and an exact number of censored subjects."""
    if n is None:
        n = int(rng.integers(3, 51))
    times = rng.uniform(0.1, t_scale, n)
    if censor_count is None:
        censor_count = int(rng.integers(0, n))
    events = np.ones(n, dtype=bool)
    if censor_count:
        events[rng.choice(n, censor_count, replace=False)] = False
    return SurvivalDataset.from_arrays(times, events)


def blocked_pair_counts(preds, times, events, block=512):
    """``(comparable, concordant, tied)`` pair counts of the C-index, compared
    block by block of ``block`` rows in O(n^2): the oracle of the counts in
    ``metrics``. A pair is comparable when the earlier time is an event and
    the times differ; it is concordant when the earlier subject also has the
    smaller prediction, and tied when the predictions are equal."""
    comparable = concordant = tied = 0
    for start in range(0, times.size, block):
        stop = min(start + block, times.size)
        comp = events[start:stop, None] & (times[start:stop, None] < times[None, :])
        p_block = preds[start:stop, None]
        comparable += int(comp.sum())
        concordant += int(np.sum(comp & (p_block < preds[None, :])))
        tied += int(np.sum(comp & (p_block == preds[None, :])))
    return comparable, concordant, tied


def refit_pseudo_obs(ds):
    """Pseudo-observation surrogates with each leave-one-out Kaplan-Meier
    curve refit from scratch: the oracle of the incremental jackknife in
    ``pseudo_obs_surrogates``. Uncensored subjects keep their times."""
    curve = km_fit(ds.times, ds.events).curve
    horizon = curve.t_last
    theta = curve.integrate(0.0, horizon)
    n = ds.n
    surrogate = ds.times.copy()
    for i in np.flatnonzero(~ds.events):
        keep = np.delete(np.arange(n), i)
        sub = km_fit(ds.times[keep], ds.events[keep]).curve
        loo = sub.integrate(0.0, min(sub.t_last, horizon))
        if sub.t_last < horizon:
            loo += sub.v_last * (horizon - sub.t_last)
        surrogate[i] = n * theta - (n - 1) * loo
    return surrogate
