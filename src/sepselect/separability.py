"""Per-feature class-pair separability and the stacked feature-space matrix.

For a feature i and a class pair (c, c~), both modeled as Gaussians with
class-conditional mean and variance, the Bhattacharyya distance is

    B = (mu_c - mu_c~)^2 / (4 (s2_c + s2_c~))
        + 0.5 * ln((s2_c + s2_c~) / (2 sqrt(s2_c * s2_c~)))

and the bounded Jeffries-Matusita form is JM = 2 (1 - exp(-B)), in [0, 2].
JM is symmetric and 0 for c = c~, so the pairs c < c~, row-major, give the
M x C(C-1)/2 feature-space matrix in which features are embedded and clustered.

All operations are pure; the per-feature computation is vectorized (each
feature's row depends only on that feature's statistics), so results are
order-deterministic.
"""

import numpy as np

from .errors import DataError

# Variance clamp: B divides by s2_c + s2_c~ and takes ln of a variance
# ratio, so singleton or constant classes need a strictly positive floor.
VAR_FLOOR = 1e-10


def class_stats(d):
    """(mean, variance): the (M, C) class-conditional means and biased
    variances of every feature, each variance clamped to >= VAR_FLOOR."""
    codes = d.label_codes()
    m, c = d.n_features, d.n_classes
    mean = np.empty((m, c))
    var = np.empty((m, c))
    for ci in range(c):
        mask = codes == ci
        if not mask.any():
            raise DataError(f"class '{d.class_ids[ci]}' has no samples")
        sub = d.instances[mask]
        mean[:, ci] = sub.mean(axis=0)
        var[:, ci] = sub.var(axis=0)  # biased (divide by class count)
    return mean, np.maximum(var, VAR_FLOOR)


def build_feature_space(d):
    """The (M, C(C-1)/2) feature-space array: row i holds feature i's JM
    distance of every class pair c < c~, in row-major order (the pairs of
    pair_column_names), each in [0, 2]."""
    mean, variance = class_stats(d)
    a, b = np.triu_indices(d.n_classes, 1)
    s2_sum = variance[:, a] + variance[:, b]
    bhat = (mean[:, a] - mean[:, b]) ** 2 / (4.0 * s2_sum) + 0.5 * np.log(
        s2_sum / (2.0 * np.sqrt(variance[:, a] * variance[:, b]))
    )
    return 2.0 * (1.0 - np.exp(-bhat))


def pair_column_names(class_ids):
    """Header names of the feature-space columns: the pairs c < c~, row-major."""
    return [f"pair_{a}_{b}" for i, a in enumerate(class_ids) for b in class_ids[i + 1 :]]
