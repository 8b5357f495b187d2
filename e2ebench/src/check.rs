//! Independent computations the program's outputs are checked against.
//!
//! Nothing here calls the program's MAP, eigen or ESP code: the reference
//! greedy MAP re-factors `L_S` from scratch at every step, and the k-DPP
//! loss is summed over every size-k subset by brute force.

use lkp::linalg::Matrix;

/// Relative tolerance on a served list's `log det(L_S)`.
pub const LOG_DET_RTOL: f64 = 1e-9;

/// Relative tolerance on the LkP-NPS loss against brute-force enumeration.
pub const LOSS_RTOL: f64 = 1e-6;

/// Whether `a` and `b` agree to `rtol` relative to `max(1, |b|)`.
pub fn close(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * b.abs().max(1.0)
}

/// Entry `(i, j)` of the tailored kernel `L = Diag(q)·V·Vᵀ·Diag(q) + ε·I`
/// over `rows` (the candidates' factor rows).
fn tailored(rows: &[&[f64]], q: &[f64], jitter: f64, i: usize, j: usize) -> f64 {
    let dot: f64 = rows[i].iter().zip(rows[j]).map(|(a, b)| a * b).sum();
    q[i] * dot * q[j] + if i == j { jitter } else { 0.0 }
}

/// Quality `q = exp(clamp(score))`.
pub fn quality(scores: &[f64], clamp: f64) -> Vec<f64> {
    scores
        .iter()
        .map(|s| s.clamp(-clamp, clamp).exp())
        .collect()
}

/// Lower Cholesky factor of the symmetric matrix `a` (row-major `n × n`),
/// or `None` when it is not positive definite.
fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for p in 0..j {
                s -= l[i * n + p] * l[j * n + p];
            }
            if i == j {
                if s <= 0.0 {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Greedy MAP from scratch: at each step every remaining candidate's gain
/// `L_ii − l_iᵀ·L_S⁻¹·l_i` is computed against a fresh Cholesky factor of
/// `L_S`; the first candidate of largest gain wins, and selection stops
/// when no gain exceeds `1e-12`. Returns positions into `rows` and
/// `log det(L_S)` from the final factor.
pub fn reference_map(rows: &[&[f64]], q: &[f64], jitter: f64, top_n: usize) -> (Vec<usize>, f64) {
    let m = rows.len();
    let mut selected: Vec<usize> = Vec::with_capacity(top_n);
    let mut factor: Vec<f64> = Vec::new();
    let mut y = Vec::new();
    while selected.len() < top_n.min(m) {
        let s = selected.len();
        let mut best: Option<(usize, f64)> = None;
        for i in 0..m {
            if selected.contains(&i) {
                continue;
            }
            // Forward-solve L_chol · y = l_i, then gain = L_ii − |y|².
            y.clear();
            for (r, &sr) in selected.iter().enumerate() {
                let mut v = tailored(rows, q, jitter, sr, i);
                for (p, yp) in y.iter().enumerate() {
                    v -= factor[r * s + p] * yp;
                }
                y.push(v / factor[r * s + r]);
            }
            let gain = tailored(rows, q, jitter, i, i) - y.iter().map(|v| v * v).sum::<f64>();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((i, gain)) if gain > 1e-12 => selected.push(i),
            _ => break,
        }
        let n = selected.len();
        let mut a = vec![0.0; n * n];
        for (r, &ir) in selected.iter().enumerate() {
            for (c, &ic) in selected.iter().enumerate() {
                a[r * n + c] = tailored(rows, q, jitter, ir, ic);
            }
        }
        match cholesky(&a, n) {
            Some(l) => factor = l,
            None => {
                selected.pop();
                break;
            }
        }
    }
    let n = selected.len();
    let log_det = (0..n).map(|i| 2.0 * factor[i * n + i].ln()).sum();
    (selected, log_det)
}

/// Determinant by Gaussian elimination with partial pivoting.
fn det(mut a: Vec<f64>, n: usize) -> f64 {
    let mut d = 1.0;
    for c in 0..n {
        let p = (c..n)
            .max_by(|&x, &y| a[x * n + c].abs().total_cmp(&a[y * n + c].abs()))
            .expect("non-empty column");
        if a[p * n + c] == 0.0 {
            return 0.0;
        }
        if p != c {
            for j in 0..n {
                a.swap(p * n + j, c * n + j);
            }
            d = -d;
        }
        let pivot = a[c * n + c];
        d *= pivot;
        for r in (c + 1)..n {
            let f = a[r * n + c] / pivot;
            for j in c..n {
                a[r * n + j] -= f * a[c * n + j];
            }
        }
    }
    d
}

/// `det(L_S)` for the positions `set` of the tailored kernel.
fn subset_det(rows: &[&[f64]], q: &[f64], jitter: f64, set: &[usize]) -> f64 {
    let n = set.len();
    let mut a = vec![0.0; n * n];
    for (r, &ir) in set.iter().enumerate() {
        for (c, &ic) in set.iter().enumerate() {
            a[r * n + c] = tailored(rows, q, jitter, ir, ic);
        }
    }
    det(a, n)
}

/// The LkP-NPS loss `−(log P_k(S⁺) + log(1 − P_k(S⁻)))` of one instance
/// whose ground set is `rows` (targets first, then `k` negatives), with the
/// k-DPP normalizer `e_k(L)` summed over every size-`k` subset. `P_k(S⁻)`
/// is capped below 1 exactly as far as the objective caps it (`1 − 1e-9`).
pub fn brute_force_nps_loss(rows: &[&[f64]], q: &[f64], jitter: f64, k: usize) -> f64 {
    let m = rows.len();
    let mut normalizer = 0.0;
    let mut set: Vec<usize> = (0..k).collect();
    loop {
        normalizer += subset_det(rows, q, jitter, &set);
        // Next k-combination of 0..m in lexicographic order.
        let Some(pos) = (0..k).rev().find(|&p| set[p] < m - k + p) else {
            break;
        };
        set[pos] += 1;
        for p in (pos + 1)..k {
            set[p] = set[p - 1] + 1;
        }
    }
    let positives: Vec<usize> = (0..k).collect();
    let negatives: Vec<usize> = (k..m).collect();
    let p_pos = subset_det(rows, q, jitter, &positives) / normalizer;
    let p_neg = (subset_det(rows, q, jitter, &negatives) / normalizer).clamp(0.0, 1.0 - 1e-9);
    -(p_pos.ln() + (1.0 - p_neg).ln())
}

/// Factor rows of `items` in `factor`, borrowed.
pub fn rows_of<'a>(factor: &'a Matrix, items: &[usize]) -> Vec<&'a [f64]> {
    items.iter().map(|&i| factor.row(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_matches_a_known_value() {
        assert!((det(vec![2.0, 1.0, 1.0, 3.0], 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn reference_map_picks_the_larger_diagonal_first() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        let rows: Vec<&[f64]> = vec![&a, &b];
        let (items, log_det) = reference_map(&rows, &[1.0, 2.0], 0.0, 2);
        assert_eq!(items, vec![1, 0]);
        assert!((log_det - 4.0f64.ln()).abs() < 1e-12);
    }
}
