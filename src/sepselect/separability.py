"""Per-feature class-pair separability and the stacked feature-space matrix.

For a feature i and a class pair (c, c~), both modeled as Gaussians with
class-conditional mean and variance, the Bhattacharyya distance is

    B = (mu_c - mu_c~)^2 / (4 (s2_c + s2_c~))
        + 0.5 * ln((s2_c + s2_c~) / (2 sqrt(s2_c * s2_c~)))

and the bounded Jeffries-Matusita form is JM = 2 (1 - exp(-B)), in [0, 2).
Stacking each feature's row-major-reshaped C x C JM matrix yields the
M x C^2 feature-space matrix in which features are embedded and clustered.

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


def _jm_from_stats(mean, variance):
    # mean, variance: (M, C); returns (M, C, C)
    mu_a = mean[..., :, None]
    mu_b = mean[..., None, :]
    s2_a = variance[..., :, None]
    s2_b = variance[..., None, :]
    s2_sum = s2_a + s2_b
    bhat = (mu_a - mu_b) ** 2 / (4.0 * s2_sum) + 0.5 * np.log(
        s2_sum / (2.0 * np.sqrt(s2_a * s2_b))
    )
    jm = 2.0 * (1.0 - np.exp(-bhat))
    # identical distributions give B = 0 exactly; clear fp residue on the diagonal
    diag = np.arange(mean.shape[-1])
    jm[..., diag, diag] = 0.0
    return jm


def build_feature_space(d):
    """The (M, C^2) feature-space array: row i is feature i's JM matrix
    reshaped row-major; each JM matrix is symmetric, with a zero diagonal
    and entries in [0, 2]."""
    jm = _jm_from_stats(*class_stats(d))  # (M, C, C)
    m, c = d.n_features, d.n_classes
    return jm.reshape(m, c * c)


def pair_column_names(class_ids):
    """Header names for the C^2 columns of the feature-space matrix, row-major."""
    return [f"pair_{a}_{b}" for a in class_ids for b in class_ids]
