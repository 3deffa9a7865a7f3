//! In-memory classification datasets and train/val/test splitting.

use bfly_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled classification dataset. Each row of `features` is one sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Sample features, one row per sample.
    pub features: Matrix,
    /// Class label per sample, in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label ranges.
    ///
    /// # Panics
    /// Panics if `labels.len() != features.rows()` or any label is out of
    /// range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "feature/label count mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        Self { features, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Selects samples by index into a new dataset.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let mut features = Matrix::zeros(indices.len(), self.dim());
        let mut labels = Vec::with_capacity(indices.len());
        for (dst, &src) in indices.iter().enumerate() {
            features.row_mut(dst).copy_from_slice(self.features.row(src));
            labels.push(self.labels[src]);
        }
        Dataset { features, labels, num_classes: self.num_classes }
    }

    /// Randomly shuffles the samples in place (features and labels together).
    pub fn shuffle(&mut self, rng: &mut impl Rng) {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        self.permute(&order);
    }

    /// Reorders the samples in place so that sample `k` becomes the old
    /// sample `order[k]`; `order` must be a permutation of `0..len`. Each
    /// cycle of the permutation is walked once with a single row of
    /// scratch, so no second copy of the features is made.
    fn permute(&mut self, order: &[usize]) {
        let (n, dim) = (self.len(), self.dim());
        assert_eq!(order.len(), n, "permutation length mismatch");
        self.labels = order.iter().map(|&i| self.labels[i]).collect();
        let data = self.features.as_mut_slice();
        let mut done = vec![false; n];
        let mut first = vec![0.0f32; dim];
        for start in 0..n {
            if done[start] {
                continue;
            }
            first.copy_from_slice(&data[start * dim..(start + 1) * dim]);
            let mut k = start;
            while order[k] != start {
                done[k] = true;
                let src = order[k];
                data.copy_within(src * dim..(src + 1) * dim, k * dim);
                k = src;
            }
            done[k] = true;
            data[k * dim..(k + 1) * dim].copy_from_slice(&first);
        }
    }

    /// Keeps the first `len` samples and releases the rest's memory.
    fn truncate(&mut self, len: usize) {
        let dim = self.dim();
        let mut data = std::mem::replace(&mut self.features, Matrix::zeros(0, dim)).into_vec();
        data.truncate(len * dim);
        data.shrink_to_fit();
        self.features = Matrix::from_vec(len, dim, data);
        self.labels.truncate(len);
    }

    /// Standardises features to zero mean / unit variance per dimension,
    /// computed over this dataset. Returns the (mean, std) used, so the same
    /// statistics can be applied to held-out splits via [`Dataset::standardize_with`].
    pub fn standardize(&mut self) -> (Vec<f32>, Vec<f32>) {
        let n = self.len().max(1) as f64;
        let dim = self.dim();
        let mut mean = vec![0f64; dim];
        for r in 0..self.len() {
            for (m, &x) in mean.iter_mut().zip(self.features.row(r)) {
                *m += x as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0f64; dim];
        for r in 0..self.len() {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(self.features.row(r)) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let mean: Vec<f32> = mean.into_iter().map(|m| m as f32).collect();
        let std: Vec<f32> = var.into_iter().map(|v| ((v / n).sqrt().max(1e-6)) as f32).collect();
        self.standardize_with(&mean, &std);
        (mean, std)
    }

    /// Applies a precomputed per-dimension standardisation.
    pub fn standardize_with(&mut self, mean: &[f32], std: &[f32]) {
        assert_eq!(mean.len(), self.dim());
        assert_eq!(std.len(), self.dim());
        for r in 0..self.len() {
            for ((x, &m), &s) in self.features.row_mut(r).iter_mut().zip(mean).zip(std) {
                *x = (*x - m) / s;
            }
        }
    }
}

/// A train/validation/test partition of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training samples.
    pub train: Dataset,
    /// Validation samples (the paper holds out 15 % of the training set).
    pub val: Dataset,
    /// Test samples.
    pub test: Dataset,
}

/// Splits a dataset into train/val/test.
///
/// `val_fraction` is taken from the *training* portion after removing the
/// test samples, following Table 3 ("validation set: 15 % of training set").
///
/// The samples are shuffled, then the first ones become the test set, the
/// next the validation set and the rest the training set. The training set
/// reuses `data`'s buffer, so splitting allocates only the two held-out
/// sets.
pub fn split(
    mut data: Dataset,
    test_fraction: f64,
    val_fraction: f64,
    rng: &mut impl Rng,
) -> Split {
    assert!((0.0..1.0).contains(&test_fraction));
    assert!((0.0..1.0).contains(&val_fraction));
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let n_train_total = n - n_test;
    let n_val = ((n_train_total as f64) * val_fraction).round() as usize;
    let held_out = n_test + n_val;
    let test = data.select(&order[..n_test]);
    let val = data.select(&order[n_test..held_out]);
    // The training samples move to the front in place; the held-out rows
    // behind them are already copied out.
    order.rotate_left(held_out);
    data.permute(&order);
    data.truncate(n - held_out);
    Split { train: data, val, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;

    fn toy(n: usize, dim: usize) -> Dataset {
        let features = Matrix::from_fn(n, dim, |r, c| (r * dim + c) as f32);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(features, labels, 3)
    }

    #[test]
    fn select_pairs_features_with_labels() {
        let d = toy(10, 4);
        let s = d.select(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![0, 1]);
        assert_eq!(s.features.row(0), d.features.row(3));
    }

    #[test]
    fn split_fractions_are_respected() {
        let d = toy(100, 2);
        let mut rng = seeded_rng(1);
        let s = split(d, 0.2, 0.15, &mut rng);
        assert_eq!(s.test.len(), 20);
        assert_eq!(s.val.len(), 12); // 15% of 80
        assert_eq!(s.train.len(), 68);
    }

    /// The split as it was computed before the training set reused the
    /// input buffer: shuffle into a copy, then copy out each part.
    fn split_by_copies(data: &Dataset, test: f64, val: f64, rng: &mut impl Rng) -> Split {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let shuffled = data.select(&order);
        let n = shuffled.len();
        let n_test = ((n as f64) * test).round() as usize;
        let n_val = (((n - n_test) as f64) * val).round() as usize;
        let idx: Vec<usize> = (0..n).collect();
        Split {
            test: shuffled.select(&idx[..n_test]),
            val: shuffled.select(&idx[n_test..n_test + n_val]),
            train: shuffled.select(&idx[n_test + n_val..]),
        }
    }

    #[test]
    fn split_matches_the_copying_split_bit_for_bit() {
        for (n, dim, seed) in [(1, 3, 1), (7, 1, 2), (57, 3, 3), (100, 4, 4), (300, 5, 5)] {
            let d = toy(n, dim);
            for (test, val) in [(0.2, 0.15), (0.0, 0.0), (0.5, 0.5), (0.9, 0.3)] {
                let got = split(d.clone(), test, val, &mut seeded_rng(seed));
                let want = split_by_copies(&d, test, val, &mut seeded_rng(seed));
                for (g, w) in
                    [(&got.train, &want.train), (&got.val, &want.val), (&got.test, &want.test)]
                {
                    assert_eq!(g.features.shape(), w.features.shape());
                    assert_eq!(g.features.as_slice(), w.features.as_slice());
                    assert_eq!(g.labels, w.labels);
                }
            }
        }
    }

    #[test]
    fn shuffle_matches_selecting_the_shuffled_order() {
        let d = toy(41, 3);
        let mut order: Vec<usize> = (0..41).collect();
        order.shuffle(&mut seeded_rng(9));
        let want = d.select(&order);
        let mut got = d.clone();
        got.shuffle(&mut seeded_rng(9));
        assert_eq!(got.features.as_slice(), want.features.as_slice());
        assert_eq!(got.labels, want.labels);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(57, 3);
        let mut rng = seeded_rng(2);
        let s = split(d, 0.1, 0.15, &mut rng);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 57);
    }

    #[test]
    fn shuffle_keeps_feature_label_pairing() {
        let mut d = toy(20, 2);
        let pairs_before: Vec<(f32, usize)> =
            (0..20).map(|i| (d.features[(i, 0)], d.labels[i])).collect();
        let mut rng = seeded_rng(3);
        d.shuffle(&mut rng);
        for i in 0..20 {
            let f = d.features[(i, 0)];
            let l = d.labels[i];
            assert!(pairs_before.contains(&(f, l)), "pairing broken at {i}");
        }
    }

    #[test]
    fn standardize_yields_zero_mean_unit_var() {
        let mut rng = seeded_rng(4);
        let features = Matrix::random_uniform(200, 5, 3.0, &mut rng);
        let mut d = Dataset::new(features, vec![0; 200], 1);
        d.standardize();
        for c in 0..5 {
            let col = d.features.col(c);
            let mean: f32 = col.iter().sum::<f32>() / 200.0;
            let var: f32 = col.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 200.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let _ = Dataset::new(Matrix::zeros(2, 2), vec![0, 5], 3);
    }
}
