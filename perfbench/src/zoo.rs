//! `zoo-int8-batch`: a closed loop over two keep-alive connections, each
//! request a 32-item `{"items": [...]}` body alternating between
//! `/predict/student` (TextCNN-S) and `/predict/eddfn` (EDDFN), both int8 and
//! file-backed. Every [`RELOAD_EVERY`] requests connection 0 sends
//! `POST /admin/reload/eddfn`, which re-runs checkpoint decode and
//! quantization beside the reads.
//!
//! Full batches bypass the linger, so int8 GEMM dominates. Each tenant
//! cycles through [`TENANT_ITEMS`] distinct items, three times its
//! 1024-entry prediction cache, so the cache (LRU) never answers.

use crate::common::{self, put, InProcess, Outcome, ServingDelta, StageTotals, MAX_BATCH};
use crate::fixtures;
use crate::stats::{median, quantile, rss_mib};
use crate::trace::{self, Tracer};
use crate::Args;
use dtdbd_data::InferenceRequest;
use dtdbd_serve::json::{self, decode_prediction, Json};
use dtdbd_serve::telemetry::Stage;
use dtdbd_serve::{
    Checkpoint, HttpClient, HttpServer, Precision, Prediction, ServerBuilder, ServingStats,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Connection 0 hot-swaps the EDDFN tenant after every this many of its
/// requests.
const RELOAD_EVERY: usize = 40;
/// Distinct items each tenant cycles through.
const TENANT_ITEMS: usize = 3072;
/// Warm-up requests per tenant before measuring.
const WARMUP: usize = 8;
const TENANTS: [&str; 2] = ["student", "eddfn"];
/// Tolerance of the wire reconciliation on this workload.
const ZOO_WIRE_TOLERANCE_PCT: f64 = 30.0;

/// One tenant's request stream: pre-rendered 32-item bodies, their
/// requests and the reference answers of a standalone int8 session.
struct Stream {
    path: String,
    requests: Vec<InferenceRequest>,
    bodies: Vec<String>,
    reference: Vec<Prediction>,
    next: AtomicUsize,
}

impl Stream {
    fn take(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed) % self.bodies.len()
    }
}

/// Per-connection tallies.
#[derive(Default)]
struct Tally {
    rtt_us: [Vec<f64>; 2],
    /// Untraced round trips in ms, by [`common::window`].
    windows: Vec<Vec<f64>>,
    elapsed: [f64; 2],
    reload_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

pub fn run(args: &Args) -> Outcome {
    let fx = fixtures::ensure();
    let mut outcome = Outcome::default();
    let pool = fixtures::distinct_requests(args.seed, TENANT_ITEMS * 2);
    let streams: Vec<Stream> = TENANTS
        .iter()
        .zip([&fx.student, &fx.eddfn])
        .zip(pool.chunks(TENANT_ITEMS))
        .map(|((id, path), requests)| {
            let checkpoint = Checkpoint::load(path).expect("load fixture");
            let reference = common::reference_predictions(&checkpoint, Precision::Int8, requests);
            let bodies = requests
                .chunks(MAX_BATCH)
                .map(|chunk| {
                    let items = chunk.iter().map(json::encode_request).collect();
                    Json::Obj(vec![("items".into(), Json::Arr(items))]).render()
                })
                .collect();
            Stream {
                path: format!("/predict/{id}"),
                requests: requests.to_vec(),
                bodies,
                reference,
                next: AtomicUsize::new(0),
            }
        })
        .collect();

    // Set-up: both checkpoint files on disk → first answer from each tenant.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<HttpServer> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let server = ServerBuilder::new()
            .workers(1)
            .precision(Precision::Int8)
            .tenant_from_path(TENANTS[0], &fx.student)
            .tenant_from_path(TENANTS[1], &fx.eddfn)
            .try_start_http_zoo()
            .expect("start zoo");
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        for s in &streams {
            let r = client
                .post(&s.path, &s.bodies[s.take()])
                .expect("first request");
            outcome.check(r.status == 200, || format!("set-up request: {}", r.status));
        }
        setups.push(t0.elapsed());
        if let Some(old) = live.replace(server) {
            old.shutdown();
        }
    }
    let server = live.expect("at least one set-up");
    let addr = server.local_addr();
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        for _ in 0..WARMUP {
            for s in &streams {
                let r = client.post(&s.path, &s.bodies[s.take()]).expect("warm-up");
                outcome.check(r.status == 200, || format!("warm-up request: {}", r.status));
            }
        }
    }
    let rss = rss_mib();
    let zoo = server.zoo();
    let student = || zoo.tenant(TENANTS[0]).expect("student tenant").model();

    let budget = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new(args.trace);
    let slices: Vec<bool> = if args.trace {
        vec![false, true, false, true]
    } else {
        vec![false]
    };
    let slice_len = if args.trace {
        budget.mul_f64(0.6 / slices.len() as f64)
    } else {
        budget
    };
    let before_stats = student().stats();
    let before_stages = StageTotals::read(student().telemetry());
    let versions_before = zoo
        .tenant(TENANTS[1])
        .expect("eddfn tenant")
        .model()
        .version();
    let tallies: Vec<Mutex<Tally>> = (0..2).map(|_| Mutex::new(Tally::default())).collect();
    let request_ids = AtomicUsize::new(0);
    let depth_max = AtomicUsize::new(0);
    for &traced in &slices {
        std::thread::scope(|scope| {
            for (conn, tally) in tallies.iter().enumerate() {
                let (streams, tracer, request_ids, depth_max) =
                    (&streams, &tracer, &request_ids, &depth_max);
                scope.spawn(move || {
                    let mut tally = tally.lock().expect("tally");
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let t0 = Instant::now();
                    let mut r = 0usize;
                    while t0.elapsed() < slice_len {
                        let s = &streams[(r + conn) % 2];
                        let id = request_ids.fetch_add(1, Ordering::Relaxed) as u64;
                        let tracer = traced.then_some(tracer);
                        let body = s.take();
                        let (rtt, answers) = exchange(&mut client, s, body, id, tracer);
                        tally.rtt_us[usize::from(traced)].push(rtt);
                        if !traced {
                            let w =
                                common::window(t0.elapsed().as_secs_f64(), slice_len.as_secs_f64());
                            tally.windows.resize(common::WINDOWS, Vec::new());
                            tally.windows[w].push(rtt / 1e3);
                        }
                        tally.attempted += 1;
                        match answers {
                            None => {
                                tally.failed += 1;
                                client = HttpClient::connect(addr).expect("reconnect");
                            }
                            Some(got) => {
                                let want = &s.reference[body * MAX_BATCH..];
                                let same = got.len() == s.bodies_len(body)
                                    && got
                                        .iter()
                                        .zip(want)
                                        .all(|(g, w)| common::same_prediction(g, w));
                                if !same {
                                    tally.wrong += 1;
                                }
                            }
                        }
                        let depth: usize = TENANTS
                            .iter()
                            .map(|id| zoo.tenant(id).expect("tenant").model().queue_depth())
                            .sum();
                        depth_max.fetch_max(depth, Ordering::Relaxed);
                        r += 1;
                        if conn == 0 && r % RELOAD_EVERY == 0 {
                            let t = Instant::now();
                            let reload = client.post("/admin/reload/eddfn", "");
                            tally.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            tally.attempted += 1;
                            if !matches!(reload, Ok(ref resp) if resp.status == 200) {
                                tally.failed += 1;
                                client = HttpClient::connect(addr).expect("reconnect");
                            }
                        }
                    }
                    tally.elapsed[usize::from(traced)] += t0.elapsed().as_secs_f64();
                });
            }
        });
    }
    let after_stats = student().stats();
    let after_stages = StageTotals::read(student().telemetry());

    // In-process phase (traced run only): fresh bodies of the same streams
    // through `submit` → `wait`, two threads as two connections, no reloads.
    let mut inproc = InProcess::default();
    if args.trace {
        let models: Vec<_> = TENANTS
            .iter()
            .map(|id| zoo.tenant(id).expect("tenant").model())
            .collect();
        let read = || {
            models
                .iter()
                .map(|m| StageTotals::read(m.telemetry()))
                .fold(StageTotals::default(), |a, b| a + b)
        };
        let s0 = read();
        // Per connection: its samples, items attempted and items answered
        // wrongly or not at all.
        let samples: Vec<Mutex<(InProcess, u64, u64)>> =
            (0..2).map(|_| Mutex::new(Default::default())).collect();
        std::thread::scope(|scope| {
            for (conn, sample) in samples.iter().enumerate() {
                let (streams, models, tracer) = (&streams, &models, &tracer);
                scope.spawn(move || {
                    let mut sample = sample.lock().expect("samples");
                    let t0 = Instant::now();
                    let mut r = 0usize;
                    while t0.elapsed() < budget.mul_f64(0.2) {
                        let which = (r + conn) % 2;
                        let s = &streams[which];
                        let body = s.take();
                        let items = &s.requests[body * MAX_BATCH..][..s.bodies_len(body)];
                        let root = tracer.begin("request.inproc", None, r as u64);
                        let parent = Some(root.id());
                        let started = Instant::now();
                        let mut handles = Vec::with_capacity(items.len());
                        for item in items {
                            let t = Instant::now();
                            let h = tracer.span("server.submit", parent, r as u64, || {
                                models[which].submit(item)
                            });
                            let returned = Instant::now();
                            sample.0.submit_us.push((returned - t).as_secs_f64() * 1e6);
                            handles.push((returned, h));
                        }
                        let mut bad = 0u64;
                        for (k, (returned, h)) in handles.into_iter().enumerate() {
                            let got = h.ok().and_then(|h| {
                                tracer
                                    .span("server.wait", parent, r as u64, || h.wait())
                                    .ok()
                            });
                            sample
                                .0
                                .wait_us
                                .push(returned.elapsed().as_secs_f64() * 1e6);
                            let want = &s.reference[body * MAX_BATCH + k];
                            if !got.is_some_and(|g| common::same_prediction(&g, want)) {
                                bad += 1;
                            }
                        }
                        tracer.end(root);
                        sample
                            .0
                            .request_us
                            .push(started.elapsed().as_secs_f64() * 1e6);
                        sample.1 += items.len() as u64;
                        sample.2 += bad;
                        r += 1;
                    }
                });
            }
        });
        let s1 = read();
        for sample in samples {
            let (part, attempted, bad) = sample.into_inner().expect("samples");
            inproc.submit_us.extend(part.submit_us);
            inproc.wait_us.extend(part.wait_us);
            inproc.request_us.extend(part.request_us);
            outcome.attempted += attempted;
            outcome.failed += bad;
        }
        inproc.stages = Some((s0, s1));
    }

    let mut tally = Tally {
        windows: vec![Vec::new(); common::WINDOWS],
        ..Tally::default()
    };
    for t in tallies {
        let t = t.into_inner().expect("tally");
        for (all, w) in tally.windows.iter_mut().zip(&t.windows) {
            all.extend(w);
        }
        for k in 0..2 {
            tally.rtt_us[k].extend(&t.rtt_us[k]);
            tally.elapsed[k] = tally.elapsed[k].max(t.elapsed[k]);
        }
        tally.reload_ms.extend(t.reload_ms);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
        tally.wrong += t.wrong;
    }
    let eddfn = zoo.tenant(TENANTS[1]).expect("eddfn tenant");
    let versions = eddfn.model().version() - versions_before;
    outcome.check(versions == tally.reload_ms.len() as u64, || {
        format!(
            "{} reloads sent but the version moved by {versions}",
            tally.reload_ms.len()
        )
    });
    outcome.check(tally.wrong == 0, || {
        format!(
            "{} responses differ from the reference sessions",
            tally.wrong
        )
    });
    let stats: Vec<ServingStats> = TENANTS
        .iter()
        .map(|id| zoo.tenant(id).expect("tenant").model().stats())
        .collect();
    common::check_health(&mut outcome, Some(addr), &stats);
    let failures: u64 = stats.iter().map(common::server_failures).sum();
    server.shutdown();
    outcome.attempted += tally.attempted;
    outcome.failed += tally.failed + tally.wrong;

    outcome.note("server_shape", common::serving_shape(1, TENANTS.len()));
    outcome.note("precision", "int8 (both tenants)");
    outcome.note(
        "loop",
        format!("closed, 2 keep-alive connections, {MAX_BATCH}-item bodies, reload every {RELOAD_EVERY} requests on connection 0"),
    );
    outcome.note("setup_reps", SETUP_REPS);
    put(
        &mut outcome.detail,
        "reload_ms",
        median(&tally.reload_ms),
        "ms",
    );
    put(
        &mut outcome.detail,
        "reloads",
        tally.reload_ms.len() as f64,
        "count",
    );
    if !args.trace {
        common::put_latency(
            &mut outcome,
            &tally.windows,
            common::SERVING_TAIL_Q,
            common::SERVING_TAIL_BLOCK,
        );
        let m = &mut outcome.metrics;
        put(m, "setup_s", common::median_s(&setups), "s");
        let rate = common::windowed_rate(&tally.windows, MAX_BATCH as f64, tally.elapsed[0]);
        put(m, "items_per_s", rate, "1/s");
        put(m, "rss_mib", rss, "MiB");
        return outcome;
    }

    let traced = &tally.rtt_us[1];
    let delta = ServingDelta::between(&before_stats, &after_stats);
    let m = &mut outcome.metrics;
    put(m, "http.rtt_us.p50", median(traced), "us");
    put(m, "http.rtt_us.p99", quantile(traced, 0.99), "us");
    put(
        m,
        "http.parse_us",
        after_stages.mean_us(&before_stages, Stage::HttpParse),
        "us",
    );
    put(
        m,
        "http.write_us",
        after_stages.mean_us(&before_stages, Stage::ResponseWrite),
        "us",
    );
    put(
        m,
        "cache.lookup_us",
        after_stages.mean_us(&before_stages, Stage::CacheLookup),
        "us",
    );
    put(m, "server.batch_items", delta.batch_items(), "count");
    put(m, "cache.hit_ratio", delta.hit_ratio(), "ratio");
    put(
        m,
        "session.pool_alloc_misses",
        delta.pool_alloc_misses as f64,
        "count",
    );
    put(
        m,
        "server.queue_depth_max",
        depth_max.into_inner() as f64,
        "count",
    );
    put(m, "server.failed", failures as f64, "count");
    let wire_stage_us = after_stages.mean_us(&before_stages, Stage::HttpParse)
        + after_stages.mean_us(&before_stages, Stage::ResponseWrite);
    inproc.report(&mut outcome, common::RECONCILE_TOLERANCE_PCT);
    // The wire slices carry the EDDFN reloads (checkpoint decode and
    // quantization competing for the cores) and 32-item server-side JSON,
    // neither of which the in-process phase or the stage model sees.
    common::reconcile_wire(
        &mut outcome,
        traced,
        &inproc,
        wire_stage_us,
        ZOO_WIRE_TOLERANCE_PCT,
    );
    trace::overhead(&mut outcome, &tally.rtt_us, tally.elapsed);
    trace::write_spans(&mut outcome, &tracer, args);
    outcome
}

impl Stream {
    /// Items in body `b` (the last body of a stream may be short).
    fn bodies_len(&self, b: usize) -> usize {
        (self.requests.len() - b * MAX_BATCH).min(MAX_BATCH)
    }
}

/// One `POST` of body `b`: round-trip time in µs and the decoded answers
/// (`None` on a transport error, non-200 status or undecodable body).
fn exchange(
    client: &mut HttpClient,
    s: &Stream,
    b: usize,
    id: u64,
    tracer: Option<&Tracer>,
) -> (f64, Option<Vec<Prediction>>) {
    let root = tracer.map(|t| t.begin("request", None, id));
    let parent = root.as_ref().map(|o| o.id());
    let post = tracer.map(|t| t.begin("http.post", parent, id));
    let t0 = Instant::now();
    let response = client.post(&s.path, &s.bodies[b]);
    let rtt = t0.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(o)) = (tracer, post) {
        t.end(o);
    }
    let decode = tracer.map(|t| t.begin("json.decode", parent, id));
    let answers = response.ok().filter(|r| r.status == 200).and_then(|r| {
        let doc = json::parse(&r.body).ok()?;
        doc.get("predictions")?
            .as_array()?
            .iter()
            .map(|p| decode_prediction(p).ok())
            .collect::<Option<Vec<_>>>()
    });
    if let (Some(t), Some(o)) = (tracer, decode) {
        t.end(o);
    }
    if let (Some(t), Some(o)) = (tracer, root) {
        t.end(o);
    }
    (rtt, answers)
}
