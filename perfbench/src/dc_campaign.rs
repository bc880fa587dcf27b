//! `dc_campaign`: journaled fleet campaigns of the `sram6t_dc` template.
//!
//! Two in-process 1-worker `serve::Server`s with the replay cache off. One
//! operation is one campaign: `fleet::Coordinator::run_shards_resumable`
//! into a fresh `CampaignStore`, then `CampaignStore::restore` and
//! `merge_payloads` over the journal. Cold-started K-lane `dc_batch`
//! solves dominate; HTTP, polling, the journal fsync and the artifact codec
//! are a measured minority. Polling is short and explicit ([`POLL`]): with
//! the coordinator's default 25→500 ms backoff a campaign would be mostly
//! poll sleep, and with 1–2 ms polls the coordinator's connections and the
//! server's connection threads compete with the two solver workers.

use crate::http;
use crate::trace::{self, now_ns, Tracer};
use crate::{checks, machine, median_or_zero, mix, OpTimes, Outcome, RunArgs, SpanTable};
use statvs::fleet::{
    merge_payloads, CampaignStore, Coordinator, FleetConfig, FleetEvent, FleetSpec, MergedResult,
};
use statvs::serve::pool::Engine;
use statvs::serve::store::ExperimentSpec;
use statvs::vscore::mc::{plan_shards, Shard};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards per campaign, one worker server each at a time.
const SHARDS: usize = 4;
/// Samples per shard.
const SHARD_LEN: usize = 1024;
/// Campaigns per second of `--seconds`.
const CAMPAIGNS_PER_SECOND: u64 = 6;
/// Fleet poll interval, first and every later one (no backoff).
const POLL: Duration = Duration::from_millis(5);
/// Poll interval of the set-up's warm-up requests.
const WARM_POLL: Duration = Duration::from_millis(1);
/// In-process `Engine::execute` calls timed for `serve.execute_ms`.
const EXECUTE_PROBES: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
const TEMPLATE: &str = "sram6t_dc";

fn spec(seed: u64) -> FleetSpec {
    FleetSpec {
        circuit: TEMPLATE.into(),
        analysis: None,
        seed,
        total: SHARDS * SHARD_LEN,
        histogram: None,
        tdigest_compression: None,
    }
}

/// The server-side spec a shard of `fleet` becomes, for in-process runs.
fn engine_spec(engine: &Engine, fleet: &FleetSpec, shard: Shard) -> Result<ExperimentSpec, String> {
    let template = engine
        .template(TEMPLATE)
        .ok_or("engine has no sram6t_dc template")?;
    Ok(ExperimentSpec {
        circuit: TEMPLATE.into(),
        analysis: template.analyses[0].into(),
        seed: fleet.seed,
        offset: shard.offset,
        len: shard.len,
        total: Some(fleet.total),
        want_welford: true,
        want_histogram: true,
        want_tdigest: true,
        histogram: template.default_histogram,
        tdigest_compression: 100.0,
        proposal: (0.0, 1.0),
        threshold: 3.0,
        want_wmoments: false,
        want_whistogram: false,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Warm-up: one small shard on each server, which replicates the worker
/// session into the template's pool.
fn warm_up(addr: std::net::SocketAddr, seed: u64) -> Result<(), String> {
    let body = format!(
        r#"{{"circuit":"{TEMPLATE}","seed":{seed},"shard":{{"offset":0,"len":8}},"total":8}}"#
    );
    http::post_and_wait(addr, &body, WARM_POLL, &mut Tracer::new(false))
        .map(|_| ())
        .map_err(|e| format!("warm-up request: {e}"))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut main = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut servers = Vec::new();
    for r in 0..SETUP_REPEATS as u64 {
        for old in servers.drain(..) {
            statvs::serve::ServerHandle::shutdown(old);
        }
        let t = Instant::now();
        for w in 0..2 {
            let handle = http::boot(1, &mut main)?;
            warm_up(handle.addr(), mix(args.seed ^ 0x5eed, 2 * r + w))?;
            servers.push(handle);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let coordinator = Coordinator::new(
        servers
            .iter()
            .map(statvs::serve::ServerHandle::addr)
            .collect(),
        FleetConfig {
            poll_initial: POLL,
            poll_max: POLL,
            ..FleetConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    // The in-process compute floor of one shard, outside the timed loop.
    let engine = Engine::new().map_err(|e| format!("engine: {e}"))?;
    if args.trace {
        let probe = spec(mix(args.seed, 0xe8ec));
        let shard = engine_spec(&engine, &probe, plan_shards(probe.total, SHARDS)[0])?;
        for _ in 0..EXECUTE_PROBES {
            main.time("serve.execute", || engine.execute(&shard))
                .map_err(|e| format!("in-process execute: {}", e.message))?;
        }
    }

    let work: PathBuf = format!(".perfbench/dc_campaign-{}", std::process::id()).into();
    let campaigns = crate::op_count(args, CAMPAIGNS_PER_SECOND);
    let mut out = Outcome::default();
    let (mut samples, mut reissues) = (0u64, 0u64);
    let mut ops = OpTimes::default();
    let mut artifact_bytes = Vec::new();
    let mut first: Option<(FleetSpec, MergedResult)> = None;
    let mut op_seconds = 0.0;
    let mut failed_campaigns = 0u64;
    for k in 0..campaigns {
        let traced = crate::traced_op(args.trace, k);
        main.start_op(k + 1, traced);
        let fleet = spec(mix(args.seed, k));
        let shards = plan_shards(fleet.total, SHARDS);
        let dir = work.join(format!("c{k}"));

        let t = Instant::now();
        let mut store = CampaignStore::open(&dir, &fleet).map_err(|e| e.to_string())?;
        let open = main.begin("fleet.campaign");
        let mut dispatched: HashMap<Shard, u64> = HashMap::new();
        let report =
            coordinator.run_shards_resumable(&fleet, &shards, &mut store, &mut |ev| match ev {
                FleetEvent::Dispatched { shard, .. } => {
                    dispatched.insert(*shard, now_ns());
                }
                FleetEvent::Completed { shard, .. } => {
                    if let Some(&start) = dispatched.get(shard) {
                        main.record("fleet.shard", start, now_ns());
                    }
                }
                _ => {}
            });
        main.end(open);
        out.attempted += fleet.total as u64;
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                // A campaign the fleet gave up on: every sample of it
                // failed. The run goes on; `failed` carries it.
                op_seconds += t.elapsed().as_secs_f64();
                let _ = std::fs::remove_dir_all(&dir);
                eprintln!("dc_campaign: campaign {k} failed: {e}");
                out.failed += fleet.total as u64;
                failed_campaigns += 1;
                continue;
            }
        };
        let restored = main.time("fleet.restore", || store.restore());
        let journal = main.time("stats.merge", || merge_payloads(restored.payloads));
        let dt = t.elapsed().as_secs_f64();

        op_seconds += dt;
        ops.push(dt * 1e3, traced);
        if traced {
            artifact_bytes.push(dir_bytes(&dir) as f64);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let merged = report.merged;
        samples += merged.observed;
        reissues += report.reissues as u64;
        // A reissued shard's samples were attempted, and failed, once more.
        let reissued = report.reissues as u64 * SHARD_LEN as u64;
        out.attempted += reissued;
        out.failed += merged.failures + reissued;
        if !restored.skipped.is_empty() {
            out.check(Err(format!(
                "campaign {k}: {} journal entries failed to restore",
                restored.skipped.len()
            )));
        }
        match journal {
            Ok(journal) => out.check(checks::campaign_matches_journal(&merged, &journal)),
            Err(e) => out.check(Err(format!("campaign {k}: journal merge: {e}"))),
        }
        if first.is_none() {
            first = Some((fleet, merged));
        }
    }
    let rss = machine::peak_rss_mb();
    let _ = std::fs::remove_dir_all(&work);
    for s in servers {
        s.shutdown();
    }

    // Once per run, outside the timed loop: the first campaign equals one
    // unpartitioned in-process run over its whole range.
    let (fleet, merged) = first.ok_or("every campaign failed")?;
    let whole = engine_spec(
        &engine,
        &fleet,
        Shard {
            offset: 0,
            len: fleet.total,
        },
    )?;
    match engine.execute(&whole) {
        Ok(single) => out.check(checks::campaign_matches_single_run(&merged, &single)),
        Err(e) => out.check(Err(format!("single in-process run: {}", e.message))),
    }
    eprintln!(
        "dc_campaign: {campaigns} campaigns x {SHARDS} shards x {SHARD_LEN} samples, \
         {failed_campaigns} failed campaigns, {reissues} reissues, {} failed samples",
        out.failed
    );
    drop(main);

    if args.trace {
        let spans = trace::take_all();
        let table = SpanTable::new(&spans);
        let execute_ms = table.median("serve.execute") * 1e3;
        let campaign_ms = table.median("fleet.campaign") * 1e3;
        // Two 1-worker servers: the shards run in ceil(SHARDS / 2) waves.
        let floor_ms = SHARDS.div_ceil(2) as f64 * execute_ms;
        let m = &mut out.metrics;
        m.insert("stats.merge_us", table.median("stats.merge") * 1e6);
        m.insert("serve.boot_ms", table.median("serve.boot") * 1e3);
        m.insert("serve.execute_ms", execute_ms);
        m.insert("fleet.campaign_ms", campaign_ms);
        m.insert("fleet.shard_ms", table.median("fleet.shard") * 1e3);
        m.insert("fleet.overhead_ms", campaign_ms - floor_ms);
        m.insert("fleet.restore_ms", table.median("fleet.restore") * 1e3);
        m.insert("fleet.artifact_bytes", median_or_zero(&artifact_bytes));
        m.insert("fleet.reissues", reissues as f64);
        m.insert("trace.overhead_pct", ops.overhead_pct());
        crate::write_trace(args, &spans);
    } else {
        crate::end_to_end(&mut out, &setup_s, samples, op_seconds, &ops, rss);
    }
    Ok(out)
}
