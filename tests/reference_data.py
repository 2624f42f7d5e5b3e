"""Per-sample reference versions of ``data.generate`` and ``data.split``.

These are the plain loops that the columnar code replaced: one RNG call
sequence per sample, one Python row per sample.  Tests check the columnar
versions against them bit for bit.
"""

import numpy as np

from fairmoe.data import class_templates, gain


def generate_rows(config):
    """[(image, label, group, attribute)] drawn one sample at a time."""
    rng = np.random.default_rng(config.seed)
    low, high = class_templates(config)
    t = rng.uniform(0.0, 1.0, size=config.n_samples)
    groups = (t >= config.threshold).astype(np.intp)
    priors = np.asarray(config.class_priors)
    rows = []
    for i in range(config.n_samples):
        y = int(rng.choice(config.n_classes, p=priors[groups[i]]))
        base = (1.0 - t[i]) * low[y] + t[i] * high[y]
        noise = rng.uniform(-config.noise_sigma, config.noise_sigma, size=base.shape)
        img = np.clip(gain(t[i]) * base + noise, 0.0, 1.0)
        rows.append((img, y, int(groups[i]), float(t[i])))
    return rows


def split_indices(labels, groups, train_fraction, seed):
    """(train, test) sorted index lists, stratified by (group, class)."""
    rng = np.random.default_rng(seed)
    strata = {}
    for i, key in enumerate(zip(groups, labels)):
        strata.setdefault(key, []).append(i)

    target = round(train_fraction * len(labels))
    quota, remainders = {}, []
    for key, idx in sorted(strata.items()):
        exact = train_fraction * len(idx)
        quota[key] = int(np.floor(exact))
        remainders.append((exact - quota[key], key))
    short = target - sum(quota.values())
    for _, key in sorted(remainders, reverse=True)[:short]:
        quota[key] += 1

    train_idx, test_idx = [], []
    for key, idx in sorted(strata.items()):
        perm = rng.permutation(len(idx))
        take = quota[key]
        train_idx.extend(idx[j] for j in perm[:take])
        test_idx.extend(idx[j] for j in perm[take:])
    return sorted(train_idx), sorted(test_idx)
