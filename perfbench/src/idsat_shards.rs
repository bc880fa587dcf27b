//! `idsat_shards`: tiny `device_idsat` shards served over loopback.
//!
//! One in-process 2-worker `serve::Server` with the replay cache off. Two
//! closed-loop client threads each keep one request in flight: POST a
//! 64-sample shard with a fresh seed, poll `GET /runs/{id}` (at once, then
//! every [`POLL`]), hex-decode the three sketches, check them, and merge
//! them into the thread's accumulator. A run makes a fixed number of
//! requests, so the server's run store ends each run the same size. The
//! solver does almost nothing here: HTTP, JSON, the run store, the queue,
//! the sketch codec and hex take nearly all the time.

use crate::checks::{self, Sketches};
use crate::http::{self, RequestError};
use crate::trace::{self, Tracer};
use crate::{machine, median_or_zero, mix, OpTimes, Outcome, RunArgs, SpanTable};
use statvs::serve::json::Json;
use statvs::serve::store::hex_decode;
use statvs::stats::sink::MergeableSink;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Samples per shard.
const SHARD: u64 = 64;
/// Interval between polls after the first.
const POLL: Duration = Duration::from_micros(500);
/// Requests per second of `--seconds`.
const REQUESTS_PER_SECOND: u64 = 1200;
/// Closed-loop client threads.
const CLIENTS: u64 = 2;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

fn body(seed: u64) -> String {
    format!(
        r#"{{"circuit":"device_idsat","seed":{seed},"shard":{{"offset":0,"len":{SHARD}}},"total":{SHARD},"sinks":["welford","histogram","tdigest"]}}"#
    )
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    merged: Option<Sketches>,
    /// Successful requests and the samples they carried.
    done: u64,
    samples: u64,
    failed: u64,
    rejected: u64,
    check_failures: Vec<String>,
    /// Per-request latency.
    latencies: OpTimes,
    polls: Vec<f64>,
    payload_bytes: Vec<f64>,
    threads_peak: u64,
}

/// Runs request `i` end to end: POST → polls → hex decode → sketch
/// decode and check → merge.
fn request(
    addr: SocketAddr,
    seed: u64,
    traced: bool,
    tracer: &mut Tracer,
    c: &mut Client,
) -> Result<(), RequestError> {
    let finished = http::post_and_wait(addr, &body(seed), POLL, tracer)?;
    if traced {
        c.threads_peak = c.threads_peak.max(machine::threads());
        c.polls.push(finished.polls as f64);
    }
    let result = finished
        .run
        .get("result")
        .ok_or_else(|| RequestError::Transport("done run carries no result".into()))?;
    let field = |k: &str| result.get(k).and_then(Json::as_u64);
    let sketch = |k: &str| {
        result
            .get("sketches")
            .and_then(|s| s.get(k))
            .and_then(Json::as_str)
            .unwrap_or("")
    };
    let hex = tracer.time("serve.hex_decode", || {
        ["welford", "histogram", "tdigest"].map(|k| hex_decode(sketch(k)))
    });
    let (observed, failures) = (field("observed"), field("failures"));
    let decoded = match (hex, observed, failures) {
        ([Ok(w), Ok(h), Ok(t)], Some(observed), Some(failures)) => {
            if traced {
                c.payload_bytes.push((w.len() + h.len() + t.len()) as f64);
            }
            tracer.time("stats.decode", || {
                checks::shard_payload(SHARD, observed, failures, [&w, &h, &t])
            })
        }
        _ => Err("payload misses a field or does not hex-decode".to_string()),
    };
    let sketches = match decoded {
        Ok(s) => s,
        Err(why) => {
            c.check_failures.push(format!("seed {seed}: {why}"));
            return Err(RequestError::Transport(why));
        }
    };
    c.samples += sketches.welford.moments().count();
    let merged = tracer.time("stats.merge", || match &mut c.merged {
        None => {
            c.merged = Some(sketches);
            Ok(())
        }
        Some(acc) => merge(acc, &sketches),
    });
    merged.map_err(|e| {
        c.check_failures.push(format!("seed {seed}: merge: {e}"));
        RequestError::Transport(e)
    })
}

fn merge(acc: &mut Sketches, s: &Sketches) -> Result<(), String> {
    acc.welford
        .try_merge_from(&s.welford)
        .map_err(|e| e.to_string())?;
    acc.histogram
        .try_merge_from(&s.histogram)
        .map_err(|e| e.to_string())?;
    acc.tdigest
        .try_merge_from(&s.tdigest)
        .map_err(|e| e.to_string())
}

/// The closed loop of client `t`: requests `t, t + CLIENTS, ...` below
/// `requests`.
fn client_loop(addr: SocketAddr, args: &RunArgs, t: u64, requests: u64) -> Client {
    let mut c = Client::default();
    let mut tracer = Tracer::new(false);
    for i in (t..requests).step_by(CLIENTS as usize) {
        let traced = crate::traced_op(args.trace, i / CLIENTS);
        tracer.start_op(i + 1, traced);
        let start = Instant::now();
        let open = tracer.begin("client.request");
        let outcome = request(addr, mix(args.seed, i), traced, &mut tracer, &mut c);
        tracer.end(open);
        match outcome {
            Ok(()) => {
                c.done += 1;
                c.latencies
                    .push(start.elapsed().as_secs_f64() * 1e3, traced);
            }
            Err(e) => {
                c.failed += 1;
                if matches!(e, RequestError::Rejected) {
                    c.rejected += 1;
                }
                eprintln!("idsat_shards: request {i} failed: {e}");
            }
        }
    }
    c
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut main = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None::<statvs::serve::ServerHandle>;
    for r in 0..SETUP_REPEATS as u64 {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let handle = http::boot(SERVER_WORKERS, &mut main)?;
        let addr = handle.addr();
        // Warm-up: one request per client thread, concurrently.
        std::thread::scope(|s| {
            let warm: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let seed = mix(args.seed ^ 0x5eed, r * CLIENTS + c);
                        http::post_and_wait(addr, &body(seed), POLL, &mut Tracer::new(false))
                            .map(|_| ())
                    })
                })
                .collect();
            warm.into_iter()
                .map(|h| h.join().expect("warm-up thread panicked"))
                .collect::<Result<Vec<()>, RequestError>>()
        })
        .map_err(|e| format!("warm-up request: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(handle);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    let requests = crate::op_count(args, REQUESTS_PER_SECOND);
    let wall = Instant::now();
    let mut clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| s.spawn(move || client_loop(addr, args, t, requests)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let rss = machine::peak_rss_mb();
    let retained = http::runs_retained(addr);
    server.shutdown();
    drop(main);

    let mut out = Outcome {
        attempted: requests,
        ..Outcome::default()
    };
    let mut total = None::<Sketches>;
    let (mut samples, mut done) = (0, 0);
    let mut ops = OpTimes::default();
    for c in &mut clients {
        out.failed += c.failed;
        samples += c.samples;
        done += c.done;
        out.check_failures.append(&mut c.check_failures);
        ops.append(&mut c.latencies);
    }
    for c in clients.iter_mut().filter_map(|c| c.merged.take()) {
        match &mut total {
            None => total = Some(c),
            Some(acc) => out.check(merge(acc, &c)),
        }
    }
    let merged_count = total.as_ref().map_or(0, |t| t.welford.moments().count());
    out.check(if merged_count == samples && done > 0 {
        Ok(())
    } else {
        Err(format!(
            "merged count {merged_count} != {samples} samples from {done} requests"
        ))
    });
    eprintln!(
        "idsat_shards: {requests} requests, {done} done, {} failed, {merged_count} samples merged",
        out.failed
    );

    if args.trace {
        let spans = trace::take_all();
        let table = SpanTable::new(&spans);
        let flat = |f: fn(&Client) -> &Vec<f64>| -> Vec<f64> {
            clients.iter().flat_map(|c| f(c).iter().copied()).collect()
        };
        let m = &mut out.metrics;
        m.insert(
            "stats.payload_bytes",
            median_or_zero(&flat(|c| &c.payload_bytes)),
        );
        m.insert("stats.decode_us", table.median("stats.decode") * 1e6);
        m.insert("stats.merge_us", table.median("stats.merge") * 1e6);
        m.insert("serve.boot_ms", table.median("serve.boot") * 1e3);
        m.insert("serve.post_ms", table.median("serve.post") * 1e3);
        m.insert("serve.get_ms", table.median("serve.get") * 1e3);
        let polls = flat(|c| &c.polls);
        if !polls.is_empty() {
            m.insert(
                "serve.polls_per_request",
                polls.iter().sum::<f64>() / polls.len() as f64,
            );
        }
        m.insert(
            "serve.json_parse_us",
            table.median("serve.json_parse") * 1e6,
        );
        m.insert(
            "serve.hex_decode_us",
            table.median("serve.hex_decode") * 1e6,
        );
        m.insert(
            "serve.runs_retained",
            retained.map_err(|e| format!("healthz: {e}"))?,
        );
        let threads = clients.iter().map(|c| c.threads_peak).max().unwrap_or(0);
        m.insert("serve.threads_peak", threads as f64);
        m.insert(
            "serve.rejected",
            clients.iter().map(|c| c.rejected).sum::<u64>() as f64,
        );
        m.insert("trace.overhead_pct", ops.overhead_pct());
        crate::write_trace(args, &spans);
    } else {
        crate::end_to_end(&mut out, &setup_s, samples, wall_s, &ops, rss);
    }
    Ok(out)
}
