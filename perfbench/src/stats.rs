//! Order statistics and metric-name rules shared by every workload.

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (the "type 7" definition numpy uses by default).
/// Returns `None` for an empty input.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median and quartiles of a sample, as recorded in a run's provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, as
    /// `(p, value)`; `None` unless it lies above the median (more than 20
    /// samples).
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let n = values.len();
        let tail = (n > 20).then(|| 1.0 - 10.0 / n as f64);
        Some(Summary {
            n,
            q1: quantile(values, 0.25)?,
            median: quantile(values, 0.5)?,
            q3: quantile(values, 0.75)?,
            tail: tail.and_then(|p| Some((p, quantile(values, p)?))),
        })
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&ten, 0.9).unwrap() - 9.1).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_median_and_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(
            (s.n, s.q1, s.median, s.q3, s.tail),
            (3, 2.0, 3.0, 4.0, None)
        );
        assert!(Summary::of(&[]).is_none());
        // Forty samples: the 75th percentile is the highest with ten
        // samples beyond it; at twenty it would be the median.
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(Summary::of(&forty).unwrap().tail, Some((0.75, 29.25)));
        assert_eq!(Summary::of(&forty[..20]).unwrap().tail, None);
    }

    #[test]
    fn metric_names_follow_the_syntax() {
        for ok in [
            "wall_s",
            "sim.cpi.gzip",
            "engine.cell_s.p90",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/y",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
