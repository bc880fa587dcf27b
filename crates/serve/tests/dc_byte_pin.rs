//! Byte pin of the served `sram6t_dc` template.
//!
//! `Engine::execute` must return the exact Welford, histogram and
//! t-digest bytes recorded in `fixtures/sram6t_dc_bytes.txt` for one full
//! shard and one ragged shard of a fixed-seed experiment. The loopback
//! e2e compares served shards against a local run through the same code,
//! so it cannot notice the solver drifting; replay caches and campaign
//! journals written by older servers can. This pin does.
//!
//! The fixture is not regenerated: a change that alters these bytes
//! changes what every persisted `sram6t_dc` artifact means, and must be
//! treated as a format break rather than re-pinned.

use serve::pool::Engine;
use serve::store::{hex_encode, ExperimentSpec};

const FIXTURE: &str = include_str!("fixtures/sram6t_dc_bytes.txt");
const SEED: u64 = 2013;
const TOTAL: usize = 4096;
/// `(label, offset, len)`: one 1024-sample shard at the origin and one
/// ragged shard whose offset and length are both off any power-of-two
/// tiling.
const SHARDS: [(&str, usize, usize); 2] = [("full", 0, 1024), ("ragged", 3075, 1021)];

fn spec(offset: usize, len: usize) -> ExperimentSpec {
    ExperimentSpec {
        circuit: "sram6t_dc".to_string(),
        analysis: "dc".to_string(),
        seed: SEED,
        offset,
        len,
        total: Some(TOTAL),
        want_welford: true,
        want_histogram: true,
        want_tdigest: true,
        histogram: (0.0, 0.9, 64),
        tdigest_compression: 100.0,
        proposal: (0.0, 1.0),
        threshold: 3.0,
        want_wmoments: false,
        want_whistogram: false,
    }
}

/// The fixture value recorded for `(shard, field)`.
fn pinned(shard: &str, field: &str) -> &'static str {
    FIXTURE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut parts = line.split_whitespace();
            (parts.next() == Some(shard) && parts.next() == Some(field))
                .then(|| parts.next().expect("fixture line carries a value"))
        })
        .unwrap_or_else(|| panic!("fixture has no `{shard} {field}` line"))
}

fn hex(bytes: &Option<Vec<u8>>) -> String {
    hex_encode(bytes.as_deref().expect("payload was requested"))
}

#[test]
fn served_dc_bytes_match_the_pin() {
    let engine = Engine::new().expect("templates elaborate");
    for (shard, offset, len) in SHARDS {
        let result = engine.execute(&spec(offset, len)).expect("shard runs");
        assert_eq!(result.observed.to_string(), pinned(shard, "observed"));
        assert_eq!(result.failures.to_string(), pinned(shard, "failures"));
        for (field, bytes) in [
            ("welford", &result.welford_bytes),
            ("histogram", &result.histogram_bytes),
            ("tdigest", &result.tdigest_bytes),
        ] {
            assert_eq!(
                hex(bytes),
                pinned(shard, field),
                "{shard} shard: served {field} bytes drifted from the pin"
            );
        }
    }
}
