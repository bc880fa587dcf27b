//! Output checks. A failed check makes the run print `correct: false` and
//! exit non-zero.

use statvs::fleet::MergedResult;
use statvs::serve::store::RunResult;
use statvs::stats::histogram::Histogram;
use statvs::stats::sink::{MergeableSink, WelfordSink};
use statvs::stats::TDigest;

/// snm_tail: the tail-probability estimate is finite and its 95%
/// confidence interval excludes zero.
pub fn snm_estimate(estimate: f64, ci95_half_width: f64) -> Result<(), String> {
    if !estimate.is_finite() || !ci95_half_width.is_finite() {
        return Err(format!(
            "estimate {estimate:e} ± {ci95_half_width:e} is not finite"
        ));
    }
    if estimate - ci95_half_width <= 0.0 {
        return Err(format!(
            "95% CI of the estimate {estimate:e} ± {ci95_half_width:e} includes zero"
        ));
    }
    Ok(())
}

/// The sketches of one decoded shard payload.
#[derive(Debug)]
pub struct Sketches {
    /// Moment sketch.
    pub welford: WelfordSink,
    /// Fixed-bin histogram.
    pub histogram: Histogram,
    /// Quantile sketch.
    pub tdigest: TDigest,
}

/// idsat_shards: every sketch of a `len`-sample shard decodes, and its
/// sample count equals `len − failures` and the reported `observed`.
pub fn shard_payload(
    len: u64,
    observed: u64,
    failures: u64,
    bytes: [&[u8]; 3],
) -> Result<Sketches, String> {
    let [w, h, t] = bytes;
    let welford = WelfordSink::from_bytes(w).map_err(|e| format!("welford: {e}"))?;
    let histogram = Histogram::from_bytes(h).map_err(|e| format!("histogram: {e}"))?;
    let tdigest = TDigest::from_bytes(t).map_err(|e| format!("tdigest: {e}"))?;
    let count = welford.moments().count();
    if failures > len || count != len - failures {
        return Err(format!("count {count} != len {len} - failures {failures}"));
    }
    if observed != count {
        return Err(format!("observed {observed} != sketch count {count}"));
    }
    Ok(Sketches {
        welford,
        histogram,
        tdigest,
    })
}

/// The serialized sketches of a merged campaign, for byte comparisons.
fn sketch_bytes(m: &MergedResult) -> [Option<Vec<u8>>; 3] {
    [
        Some(m.moments.to_bytes()),
        m.histogram.as_ref().map(MergeableSink::to_bytes),
        m.tdigest.as_ref().map(MergeableSink::to_bytes),
    ]
}

/// dc_campaign: the coordinator's merged sketches equal, byte for byte,
/// the merge of the campaign's restored journal.
pub fn campaign_matches_journal(
    campaign: &MergedResult,
    journal: &MergedResult,
) -> Result<(), String> {
    let same_counts =
        (campaign.observed, campaign.failures) == (journal.observed, journal.failures);
    if !same_counts || sketch_bytes(campaign) != sketch_bytes(journal) {
        return Err("merged sketches differ from the merge of the restored journal".into());
    }
    Ok(())
}

/// dc_campaign: a merged campaign equals one unpartitioned in-process run
/// over the same range — histogram bytes and sample accounting exactly
/// (histogram merges are integer adds), the moment count exactly.
pub fn campaign_matches_single_run(
    campaign: &MergedResult,
    single: &RunResult,
) -> Result<(), String> {
    let hist = campaign.histogram.as_ref().map(MergeableSink::to_bytes);
    if hist.is_none() || hist != single.histogram_bytes {
        return Err("merged histogram differs from the single in-process run".into());
    }
    if campaign.observed != single.observed
        || campaign.failures != single.failures
        || campaign.moments.count() != single.count
    {
        return Err(format!(
            "campaign accounting ({} observed, {} failed) differs from the single run ({}, {})",
            campaign.observed, campaign.failures, single.observed, single.failures
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use statvs::stats::sink::Sink;

    fn payload(values: &[f64]) -> [Vec<u8>; 3] {
        let mut w = WelfordSink::new();
        let mut h = Histogram::new(0.0, 1.0, 8);
        let mut t = TDigest::new(100.0);
        for (i, &v) in values.iter().enumerate() {
            w.observe(i, v);
            h.observe(i, v);
            t.observe(i, v);
        }
        [w.to_bytes(), h.to_bytes(), t.to_bytes()]
    }

    #[test]
    fn good_estimate_passes_and_corrupted_estimates_trip_the_check() {
        assert!(snm_estimate(1e-6, 2e-7).is_ok());
        assert!(snm_estimate(f64::NAN, 2e-7).is_err());
        assert!(snm_estimate(1e-6, f64::INFINITY).is_err());
        assert!(snm_estimate(1e-6, 1e-6).is_err());
        assert!(snm_estimate(0.0, 0.0).is_err());
    }

    #[test]
    fn good_payload_decodes_and_corrupted_payloads_trip_the_check() {
        let [w, h, t] = payload(&[0.1, 0.2, 0.3, 0.4]);
        // 5-sample shard, one failure: 4 observed.
        let ok = shard_payload(5, 4, 1, [&w, &h, &t]).unwrap();
        assert_eq!(ok.welford.moments().count(), 4);

        // Accounting that does not balance.
        assert!(shard_payload(5, 4, 0, [&w, &h, &t]).is_err());
        assert!(shard_payload(5, 3, 1, [&w, &h, &t]).is_err());
        // Truncated and garbage sketch bytes.
        assert!(shard_payload(5, 4, 1, [&w[..w.len() - 1], &h, &t]).is_err());
        assert!(shard_payload(5, 4, 1, [&w, &h[..3], &t]).is_err());
        assert!(shard_payload(5, 4, 1, [&w, &h, b"not a digest"]).is_err());
        // A sketch carrying more samples than the shard declares.
        let [w5, h5, t5] = payload(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        assert!(shard_payload(5, 4, 1, [&w5, &h5, &t5]).is_err());
    }

    fn merged(values: &[f64]) -> MergedResult {
        let [w, h, t] = payload(values);
        statvs::fleet::merge_payloads([statvs::fleet::ShardPayload {
            shard: statvs::vscore::mc::Shard {
                offset: 0,
                len: values.len(),
            },
            observed: values.len() as u64,
            failures: 0,
            welford: w,
            histogram: Some(h),
            tdigest: Some(t),
        }])
        .unwrap()
    }

    #[test]
    fn campaign_checks_compare_bytes() {
        let a = merged(&[0.1, 0.2, 0.3]);
        assert!(campaign_matches_journal(&a, &merged(&[0.1, 0.2, 0.3])).is_ok());
        assert!(campaign_matches_journal(&a, &merged(&[0.1, 0.2, 0.31])).is_err());

        let [w, h, t] = payload(&[0.1, 0.2, 0.3]);
        let mut single = RunResult {
            observed: 3,
            failures: 0,
            count: 3,
            mean: 0.2,
            variance: 0.01,
            welford_bytes: Some(w),
            histogram_bytes: Some(h),
            tdigest_bytes: Some(t),
            wmoments_bytes: None,
            whistogram_bytes: None,
            cached: false,
        };
        assert!(campaign_matches_single_run(&a, &single).is_ok());
        single.failures = 1;
        assert!(campaign_matches_single_run(&a, &single).is_err());
        single.failures = 0;
        let mut hist = single.histogram_bytes.clone().unwrap();
        let last = hist.len() - 1;
        hist[last] ^= 1;
        single.histogram_bytes = Some(hist);
        assert!(campaign_matches_single_run(&a, &single).is_err());
    }
}
