//! Order statistics for the benchmark's samples: the median, and the tail
//! percentile with at least ten samples beyond it (`p = 1 − 10/N`, capped
//! at p99), over samples in which a failed or refused operation ranks
//! above every success.

/// One operation's outcome: its latency when it succeeded, or a failure,
/// which counts as missing any latency limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sample {
    Ok(f64),
    Failed,
}

/// A ranked statistic: a measured latency, or a failure that landed on the
/// requested rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ranked {
    Ok(f64),
    Failed,
}

/// Sorts successes ascending, then every failure.
fn ranked(samples: &[Sample]) -> Vec<Sample> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| match (a, b) {
        (Sample::Ok(x), Sample::Ok(y)) => x.total_cmp(y),
        (Sample::Ok(_), Sample::Failed) => std::cmp::Ordering::Less,
        (Sample::Failed, Sample::Ok(_)) => std::cmp::Ordering::Greater,
        (Sample::Failed, Sample::Failed) => std::cmp::Ordering::Equal,
    });
    v
}

/// Median of plain values (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of operation samples. A failure at either middle rank makes the
/// median a failure.
pub fn median_ranked(samples: &[Sample]) -> Option<Ranked> {
    let v = ranked(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (lo, hi) = if n % 2 == 1 {
        (v[n / 2], v[n / 2])
    } else {
        (v[n / 2 - 1], v[n / 2])
    };
    Some(match (lo, hi) {
        (Sample::Ok(a), Sample::Ok(b)) => Ranked::Ok((a + b) / 2.0),
        _ => Ranked::Failed,
    })
}

/// The tail percentile by nearest rank: the sample with `max(10, ⌈N/100⌉)`
/// samples ranked above it, so `p = 1 − 10/N` up to N = 1000 and about
/// p99 beyond. The cap keeps the tail out of the few scheduler stalls of
/// a long run, which do not repeat from run to run. With `N ≤ 10` there
/// is no such sample and the maximum is returned. Also returns `p`.
pub fn tail(samples: &[Sample]) -> Option<(Ranked, f64)> {
    let v = ranked(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (idx, p) = if n > 10 {
        let above = n.div_ceil(100).max(10);
        (n - above - 1, 1.0 - above as f64 / n as f64)
    } else {
        (n - 1, 1.0)
    };
    let r = match v[idx] {
        Sample::Ok(x) => Ranked::Ok(x),
        Sample::Failed => Ranked::Failed,
    };
    Some((r, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oks(v: &[f64]) -> Vec<Sample> {
        v.iter().map(|&x| Sample::Ok(x)).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_ranked(&oks(&[5.0, 1.0, 9.0])), Some(Ranked::Ok(5.0)));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_above() {
        // 1..=100: p = 0.9, and the ten values 91..=100 lie above 90.
        let s = oks(&(1..=100).map(f64::from).rev().collect::<Vec<_>>());
        assert_eq!(tail(&s), Some((Ranked::Ok(90.0), 0.9)));
        // 11 samples: the minimum has ten above it.
        let s = oks(&(1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!(tail(&s), Some((Ranked::Ok(1.0), 1.0 - 10.0 / 11.0)));
        // Too few samples for ten above: the maximum, at p = 1.
        assert_eq!(tail(&oks(&[2.0, 7.0, 1.0])), Some((Ranked::Ok(7.0), 1.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_stops_at_p99_beyond_a_thousand_samples() {
        let s = oks(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(tail(&s), Some((Ranked::Ok(990.0), 0.99)));
        // 2000 samples: twenty above, not ten.
        let s = oks(&(1..=2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(tail(&s), Some((Ranked::Ok(1980.0), 0.99)));
        let s = oks(&(1..=1001).map(f64::from).collect::<Vec<_>>());
        assert_eq!(tail(&s), Some((Ranked::Ok(990.0), 1.0 - 11.0 / 1001.0)));
    }

    #[test]
    fn failures_rank_above_every_success() {
        // Ten failures and one fast success: the tail is the success.
        let mut s = vec![Sample::Failed; 10];
        s.push(Sample::Ok(0.5));
        assert_eq!(tail(&s).map(|t| t.0), Some(Ranked::Ok(0.5)));
        // Eleven failures among 20: the tail rank lands on a failure even
        // though every success is slow.
        let mut s = vec![Sample::Failed; 11];
        s.extend(oks(&[1e6; 9]));
        assert_eq!(tail(&s).map(|t| t.0), Some(Ranked::Failed));
        // A failure at a middle rank fails the median.
        let s = vec![Sample::Ok(1.0), Sample::Failed];
        assert_eq!(median_ranked(&s), Some(Ranked::Failed));
        let s = vec![Sample::Ok(1.0), Sample::Ok(3.0), Sample::Failed];
        assert_eq!(median_ranked(&s), Some(Ranked::Ok(3.0)));
    }
}
