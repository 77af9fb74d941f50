//! Ordinary least squares for the `T_overlap` model (paper Eq. 11).
//!
//! The overlap ratio is a linear function of memory-event ratios plus a
//! warp-count term and a constant. "Those coefficients and the constant
//! factor are derived using linear regression with a set of benchmarks."
//!
//! The solver forms the normal equations and solves them by Gaussian
//! elimination with partial pivoting; a small ridge term is added when the
//! system is near-singular (training placements can produce collinear
//! event columns, e.g. a benchmark that never touches texture memory).

use hms_types::HmsError;

/// A fitted linear model `y = w . x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept (the paper's constant factor `c`).
    pub intercept: f64,
}

impl LinearModel {
    /// Predict the response for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.weights.len());
        self.intercept + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
    }
}

/// Result of an OLS fit, with training diagnostics.
#[derive(Debug, Clone)]
pub struct OlsFit {
    pub model: LinearModel,
    /// Coefficient of determination on the training set.
    pub r_squared: f64,
    /// Root-mean-square training residual.
    pub rmse: f64,
}

impl OlsFit {
    /// Fit `y ≈ X w + b` by least squares.
    ///
    /// `rows` are feature vectors (all the same length), `ys` the
    /// responses. `ridge` (lambda >= 0) adds Tikhonov regularization on the
    /// weights (not the intercept); pass 0 for pure OLS.
    pub fn fit(rows: &[Vec<f64>], ys: &[f64], ridge: f64) -> Result<OlsFit, HmsError> {
        if rows.len() != ys.len() {
            return Err(HmsError::InvalidInput(format!(
                "{} feature rows but {} responses",
                rows.len(),
                ys.len()
            )));
        }
        if rows.is_empty() {
            return Err(HmsError::InvalidInput("empty training set".into()));
        }
        let d = rows[0].len();
        if rows.iter().any(|r| r.len() != d) {
            return Err(HmsError::InvalidInput("ragged feature rows".into()));
        }
        // NaN/Inf anywhere in the training set poisons the normal
        // equations silently (a NaN pivot passes the singularity check
        // because every NaN comparison is false) — reject at the door.
        for (i, row) in rows.iter().enumerate() {
            if let Some(&value) = row.iter().find(|v| !v.is_finite()) {
                return Err(HmsError::NonFiniteRatio {
                    name: "ols feature",
                    value,
                });
            }
            if !ys[i].is_finite() {
                return Err(HmsError::NonFiniteRatio {
                    name: "ols response",
                    value: ys[i],
                });
            }
        }
        let n = rows.len();
        let p = d + 1; // + intercept column

        // Normal equations A = X'X (p x p), v = X'y, with the intercept as
        // a trailing all-ones column.
        let mut a = vec![0.0f64; p * p];
        let mut v = vec![0.0f64; p];
        let feature = |row: &[f64], j: usize| if j == d { 1.0 } else { row[j] };
        for (row, &y) in rows.iter().zip(ys) {
            for i in 0..p {
                let xi = feature(row, i);
                v[i] += xi * y;
                for j in i..p {
                    a[i * p + j] += xi * feature(row, j);
                }
            }
        }
        // Mirror the upper triangle and apply ridge to the weight block.
        for i in 0..p {
            for j in 0..i {
                a[i * p + j] = a[j * p + i];
            }
        }
        for i in 0..d {
            a[i * p + i] += ridge;
        }

        let coeffs = solve_linear(&mut a, &mut v, p).or_else(|_| {
            // Near-singular: retry with a proportionate ridge.
            let mut a2 = vec![0.0f64; p * p];
            let mut v2 = vec![0.0f64; p];
            for (row, &y) in rows.iter().zip(ys) {
                for i in 0..p {
                    let xi = feature(row, i);
                    v2[i] += xi * y;
                    for j in 0..p {
                        a2[i * p + j] += xi * feature(row, j);
                    }
                }
            }
            let scale = (0..d)
                .map(|i| a2[i * p + i])
                .fold(0.0f64, f64::max)
                .max(1.0);
            for i in 0..d {
                a2[i * p + i] += 1e-6 * scale;
            }
            solve_linear(&mut a2, &mut v2, p)
        })?;
        // Belt and braces: finite inputs can still overflow to Inf in
        // the normal equations (huge, near-collinear columns). A model
        // with non-finite coefficients must never leave this function.
        if let Some(&value) = coeffs.iter().find(|c| !c.is_finite()) {
            return Err(HmsError::NonFiniteRatio {
                name: "ols coefficient",
                value,
            });
        }

        let model = LinearModel {
            weights: coeffs[..d].to_vec(),
            intercept: coeffs[d],
        };

        // Diagnostics.
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (row, &y) in rows.iter().zip(ys) {
            let e = y - model.predict(row);
            ss_res += e * e;
            ss_tot += (y - y_mean) * (y - y_mean);
        }
        let r_squared = if ss_tot == 0.0 {
            1.0
        } else {
            1.0 - ss_res / ss_tot
        };
        Ok(OlsFit {
            model,
            r_squared,
            rmse: (ss_res / n as f64).sqrt(),
        })
    }
}

/// Forward-stepwise OLS with leave-one-group-out cross-validation.
///
/// Starting from the `seed` features (a structural prior, always
/// included), greedily adds the `candidates` feature that most reduces
/// the cross-validated mean-squared error, until no candidate improves
/// it or `max_features` are selected. Unselected features receive
/// weight 0. With few training observations relative to features (the
/// `T_overlap` situation: ~38 placements, 10 candidate events), full
/// OLS extrapolates wildly on out-of-distribution inputs; stepwise
/// selection trades a little bias for much lower variance.
///
/// Cross-validation is *grouped*: observations sharing a group id are
/// held out together. This is essential when observations cluster (the
/// `T_overlap` training set has many near-identical placements of the
/// same kernel): plain leave-one-out then measures interpolation within
/// a kernel, while the model must generalize *across* kernels.
/// Leave-one-group-out holds out whole kernels.
pub fn stepwise_fit_seeded(
    rows: &[Vec<f64>],
    ys: &[f64],
    groups: &[u64],
    ridge: f64,
    seed: &[usize],
    candidates: &[usize],
    max_features: usize,
) -> Result<OlsFit, HmsError> {
    if rows.is_empty() || rows.len() != ys.len() || rows.len() != groups.len() {
        return Err(HmsError::InvalidInput("bad stepwise training set".into()));
    }
    let d = rows[0].len();
    let n = rows.len();
    let mut distinct_groups: Vec<u64> = groups.to_vec();
    distinct_groups.sort_unstable();
    distinct_groups.dedup();

    let project =
        |cols: &[usize], row: &[f64]| -> Vec<f64> { cols.iter().map(|&c| row[c]).collect() };
    // Leave-one-group-out MSE of an OLS fit restricted to `cols`.
    let loo = |cols: &[usize]| -> Option<f64> {
        let mut se = 0.0;
        for &held in &distinct_groups {
            let train_rows: Vec<Vec<f64>> = rows
                .iter()
                .zip(groups)
                .filter(|(_, g)| **g != held)
                .map(|(r, _)| project(cols, r))
                .collect();
            if train_rows.len() < cols.len() + 2 {
                return None;
            }
            let train_ys: Vec<f64> = ys
                .iter()
                .zip(groups)
                .filter(|(_, g)| **g != held)
                .map(|(&y, _)| y)
                .collect();
            let fit = OlsFit::fit(&train_rows, &train_ys, ridge).ok()?;
            for (i, g) in groups.iter().enumerate() {
                if *g == held {
                    let e = ys[i] - fit.model.predict(&project(cols, &rows[i]));
                    se += e * e;
                }
            }
        }
        Some(se / n as f64)
    };

    // A feature must buy a *substantial* cross-validated improvement to
    // enter: marginal gains on ~10 groups are indistinguishable from
    // noise and anti-generalize.
    const MIN_IMPROVEMENT: f64 = 0.90;
    let mut selected: Vec<usize> = seed.to_vec();
    let mut best_mse =
        loo(&selected).ok_or_else(|| HmsError::Numerical("seeded stepwise fit failed".into()))?;
    while selected.len() < max_features {
        let mut best_candidate: Option<(usize, f64)> = None;
        for &c in candidates {
            debug_assert!(c < d, "candidate feature out of range");
            if selected.contains(&c) {
                continue;
            }
            let mut cols = selected.clone();
            cols.push(c);
            if let Some(mse) = loo(&cols) {
                if mse < best_mse * MIN_IMPROVEMENT && best_candidate.is_none_or(|(_, m)| mse < m) {
                    best_candidate = Some((c, mse));
                }
            }
        }
        match best_candidate {
            Some((c, mse)) => {
                selected.push(c);
                best_mse = mse;
            }
            None => break,
        }
    }

    // Final fit on the selected columns, expanded back to full width.
    let train_rows: Vec<Vec<f64>> = rows.iter().map(|r| project(&selected, r)).collect();
    let fit = OlsFit::fit(&train_rows, ys, ridge)?;
    let mut weights = vec![0.0; d];
    for (i, &c) in selected.iter().enumerate() {
        weights[c] = fit.model.weights[i];
    }
    Ok(OlsFit {
        model: LinearModel {
            weights,
            intercept: fit.model.intercept,
        },
        r_squared: fit.r_squared,
        rmse: fit.rmse,
    })
}

/// Solve `A x = b` in place (row-major `A`, size `n x n`) by Gaussian
/// elimination with partial pivoting.
fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> Result<Vec<f64>, HmsError> {
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in col + 1..n {
            let mag = a[row * n + col].abs();
            if mag > best {
                best = mag;
                pivot = row;
            }
        }
        // `!(best >= 1e-12)` instead of `best < 1e-12`: a NaN diagonal
        // (possible when callers bypass `fit`'s input screen) fails
        // every ordered comparison and would otherwise be "pivotable".
        if !(best >= 1e-12) {
            return Err(HmsError::Numerical("singular normal equations".into()));
        }
        if pivot != col {
            for k in 0..n {
                a.swap(pivot * n + k, col * n + k);
            }
            b.swap(pivot, col);
        }
        // Eliminate below.
        let diag = a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] / diag;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= f * a[col * n + k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col * n + k] * x[k];
        }
        x[col] = acc / a[col * n + col];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 2 x0 - 3 x1 + 0.5
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 3.0 * r[1] + 0.5).collect();
        let fit = OlsFit::fit(&rows, &ys, 0.0).unwrap();
        assert!((fit.model.weights[0] - 2.0).abs() < 1e-8);
        assert!((fit.model.weights[1] + 3.0).abs() < 1e-8);
        assert!((fit.model.intercept - 0.5).abs() < 1e-8);
        assert!(fit.r_squared > 0.999999);
        assert!(fit.rmse < 1e-8);
    }

    #[test]
    fn handles_collinear_column_via_ridge_fallback() {
        // Second column is identically zero (a benchmark set that never
        // touches texture memory) — pure OLS is singular.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 0.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] + 1.0).collect();
        let fit = OlsFit::fit(&rows, &ys, 0.0).unwrap();
        assert!((fit.model.weights[0] - 4.0).abs() < 1e-3);
        assert!(fit.model.weights[1].abs() < 1e-3);
    }

    #[test]
    fn rejects_ragged_and_empty_inputs() {
        assert!(OlsFit::fit(&[], &[], 0.0).is_err());
        let rows = vec![vec![1.0], vec![1.0, 2.0]];
        assert!(OlsFit::fit(&rows, &[1.0, 2.0], 0.0).is_err());
        let rows = vec![vec![1.0]];
        assert!(OlsFit::fit(&rows, &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn rejects_non_finite_inputs_with_typed_error() {
        let rows = vec![vec![1.0, f64::NAN], vec![2.0, 3.0]];
        assert!(matches!(
            OlsFit::fit(&rows, &[1.0, 2.0], 0.0),
            Err(HmsError::NonFiniteRatio {
                name: "ols feature",
                ..
            })
        ));
        let rows = vec![vec![1.0], vec![f64::INFINITY]];
        assert!(matches!(
            OlsFit::fit(&rows, &[1.0, 2.0], 0.0),
            Err(HmsError::NonFiniteRatio { .. })
        ));
        let rows = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            OlsFit::fit(&rows, &[1.0, f64::NAN], 0.0),
            Err(HmsError::NonFiniteRatio {
                name: "ols response",
                ..
            })
        ));
    }

    #[test]
    fn constant_column_is_fit_not_nan() {
        // A constant non-zero column is collinear with the intercept;
        // the fit must come back finite (ridge fallback), never NaN.
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 7.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0).collect();
        let fit = OlsFit::fit(&rows, &ys, 0.0).unwrap();
        assert!(fit.model.weights.iter().all(|w| w.is_finite()));
        assert!(fit.model.intercept.is_finite());
        assert!((fit.model.weights[0] - 3.0).abs() < 1e-3);
        for row in &rows {
            assert!(fit.model.predict(row).is_finite());
        }
    }

    #[test]
    fn nan_pivot_is_singular_not_pivotable() {
        // Drive solve_linear directly with a NaN diagonal: every ordered
        // comparison on NaN is false, so the old `best < 1e-12` check
        // called it pivotable and produced NaN coefficients.
        let mut a = vec![f64::NAN, 0.0, 0.0, f64::NAN];
        let mut b = vec![1.0, 1.0];
        assert!(matches!(
            solve_linear(&mut a, &mut b, 2),
            Err(HmsError::Numerical(_))
        ));
    }

    #[test]
    fn noisy_fit_has_sane_diagnostics() {
        // y = x + deterministic "noise" in [-0.5, 0.5].
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..50)
            .map(|i| i as f64 + (((i * 37) % 11) as f64 / 11.0 - 0.5))
            .collect();
        let fit = OlsFit::fit(&rows, &ys, 0.0).unwrap();
        assert!(fit.r_squared > 0.99);
        assert!(fit.rmse < 1.0);
        assert!((fit.model.weights[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 5.0 * r[0]).collect();
        let plain = OlsFit::fit(&rows, &ys, 0.0).unwrap();
        let ridged = OlsFit::fit(&rows, &ys, 1e4).unwrap();
        assert!(ridged.model.weights[0] < plain.model.weights[0]);
    }
}
