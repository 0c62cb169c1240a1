//! `wire-c1`: a closed loop over one keep-alive HTTP connection, each
//! request a single-item `POST /predict` to the fp32 TextCNN-S student, every
//! body in the run distinct (so the prediction cache never answers).
//!
//! A lone caller's latency is set by the batching linger, so this workload
//! exercises `http`, `json`, the `server` linger and a batch-1 `session`
//! pass, and bypasses int8, zoo routing and cache hits.
//!
//! The traced run alternates untraced and traced slices of the same loop
//! (the difference is the tracing overhead), then sends fresh requests from
//! the same stream through the in-process `PredictServer::submit` → `wait` at
//! the same concurrency, so `http.self_us` is the wire's own share.

use crate::common::{self, put, InProcess, Outcome, ServingDelta, StageTotals};
use crate::fixtures;
use crate::stats::{median, quantile, rss_mib};
use crate::trace::{self, Tracer};
use crate::Args;
use dtdbd_data::InferenceRequest;
use dtdbd_serve::json::{self, decode_prediction};
use dtdbd_serve::telemetry::Stage;
use dtdbd_serve::{Checkpoint, HttpClient, HttpServer, Precision, Prediction, ServerBuilder};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Requests answered before measuring, so buffer pools are allocated.
const WARMUP: usize = 64;
/// Answers checked against the reference session per reference batch.
const CHECK_CHUNK: usize = 4096;

pub fn run(args: &Args) -> Outcome {
    let fx = fixtures::ensure();
    let mut outcome = Outcome::default();
    // Requests are drawn from an endless distinct stream as the loop needs
    // them, each with its index in the stream and its rendered body.
    let mut stream = fixtures::DistinctRequests::new(args.seed).enumerate();
    let mut take = move || {
        let (i, request) = stream.next().expect("the request stream is endless");
        let body = json::encode_request(&request).render();
        (i, request, body)
    };

    // Set-up: checkpoint file on disk → first answered request, repeated.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(HttpServer, HttpClient)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let checkpoint = Checkpoint::load(&fx.student).expect("load student fixture");
        let server = ServerBuilder::new()
            .workers(common::workers())
            .try_start_http_from_checkpoint(&checkpoint)
            .expect("start http server");
        let mut client = HttpClient::connect(server.local_addr()).expect("connect");
        let first = client.post("/predict", &take().2).expect("first request");
        setups.push(t0.elapsed());
        outcome.check(first.status == 200, || {
            format!("set-up request: {}", first.status)
        });
        if let Some((old, _)) = live.replace((server, client)) {
            old.shutdown();
        }
    }
    let (server, mut client) = live.expect("at least one set-up");
    let predict = server.predict_server();
    for _ in 0..WARMUP {
        let r = client.post("/predict", &take().2).expect("warm-up request");
        outcome.check(r.status == 200, || format!("warm-up request: {}", r.status));
    }
    let rss = rss_mib();
    let checkpoint = Checkpoint::load(&fx.student).expect("load student fixture");

    let budget = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new(args.trace);
    let mut answers: Vec<(usize, Option<Prediction>)> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut send = |client: &mut HttpClient, i: usize, body: &str, traced: bool| -> f64 {
        let tracer = if traced { Some(&tracer) } else { None };
        let root = tracer.map(|t| t.begin("request", None, i as u64));
        let parent = root.as_ref().map(|o| o.id());
        let t0 = Instant::now();
        let post = tracer.map(|t| t.begin("http.post", parent, i as u64));
        let response = client.post("/predict", body);
        let rtt = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(o)) = (tracer, post) {
            t.end(o);
        }
        let decode = tracer.map(|t| t.begin("json.decode", parent, i as u64));
        let answer = match response {
            Ok(r) if r.status == 200 => json::parse(&r.body)
                .ok()
                .and_then(|j| decode_prediction(&j).ok()),
            Ok(_) => None,
            Err(_) => {
                *client = HttpClient::connect(server.local_addr()).expect("reconnect");
                None
            }
        };
        if let (Some(t), Some(o)) = (tracer, decode) {
            t.end(o);
        }
        if let (Some(t), Some(o)) = (tracer, root) {
            t.end(o);
        }
        attempted += 1;
        if answer.is_none() {
            failed += 1;
        }
        answers.push((i, answer));
        rtt
    };

    let before_stats = predict.stats();
    let before_stages = StageTotals::read(predict.telemetry());
    // Untraced run: one slice over the whole budget. Traced run: untraced
    // and traced slices interleaved (A B A B) over 60% of it.
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
    let mut rtts: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut elapsed = [0f64; 2];
    let mut depth_max = 0usize;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); common::WINDOWS];
    for &traced in &slices {
        let t0 = Instant::now();
        while t0.elapsed() < slice_len {
            let (i, _, body) = take();
            let rtt = send(&mut client, i, &body, traced);
            rtts[usize::from(traced)].push(rtt);
            let w = common::window(t0.elapsed().as_secs_f64(), slice_len.as_secs_f64());
            windows[w].push(rtt / 1e3);
            if i % 64 == 0 {
                depth_max = depth_max.max(predict.queue_depth());
            }
        }
        elapsed[usize::from(traced)] += t0.elapsed().as_secs_f64();
    }
    let after_stats = predict.stats();
    let after_stages = StageTotals::read(predict.telemetry());

    // In-process phase (traced run only): fresh bodies, same concurrency.
    let mut inproc = InProcess::default();
    if args.trace {
        let s0 = StageTotals::read(predict.telemetry());
        let t0 = Instant::now();
        while t0.elapsed() < budget.mul_f64(0.2) {
            let (next, request, _) = take();
            let i = next as u64;
            let root = tracer.begin("request.inproc", None, i);
            let parent = Some(root.id());
            let t0 = Instant::now();
            let handle = tracer.span("server.submit", parent, i, || predict.submit(&request));
            let t1 = Instant::now();
            let answer = handle
                .ok()
                .and_then(|h| tracer.span("server.wait", parent, i, || h.wait()).ok());
            let t2 = Instant::now();
            tracer.end(root);
            inproc.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
            inproc.wait_us.push((t2 - t1).as_secs_f64() * 1e6);
            inproc.request_us.push((t2 - t0).as_secs_f64() * 1e6);
            attempted += 1;
            if answer.is_none() {
                failed += 1;
            }
            answers.push((next, answer));
        }
        inproc.stages = Some((s0, StageTotals::read(predict.telemetry())));
    }

    // Every answer must equal the standalone fp32 session's, bit for bit.
    // The answered requests are regenerated from the seed, a chunk at a time.
    let mut replay = fixtures::DistinctRequests::new(args.seed).enumerate();
    let mut wrong = 0u64;
    for chunk in answers.chunks(CHECK_CHUNK) {
        let used: Vec<InferenceRequest> = chunk
            .iter()
            .map(|(i, _)| {
                replay
                    .find(|(j, _)| j == i)
                    .expect("answers are in stream order")
                    .1
            })
            .collect();
        let reference = common::reference_predictions(&checkpoint, Precision::Fp32, &used);
        for ((_, answer), want) in chunk.iter().zip(&reference) {
            if let Some(got) = answer {
                if !common::same_prediction(got, want) {
                    wrong += 1;
                }
            }
        }
    }
    outcome.check(wrong == 0, || {
        format!("{wrong} answers differ from the reference session")
    });
    let final_stats = predict.stats();
    common::check_health(
        &mut outcome,
        Some(server.local_addr()),
        std::slice::from_ref(&final_stats),
    );
    drop(predict);
    server.shutdown();

    outcome.attempted = attempted;
    outcome.failed = failed + wrong;
    outcome.note("server_shape", common::serving_shape(common::workers(), 1));
    outcome.note("precision", "fp32");
    outcome.note("loop", "closed, 1 keep-alive connection");
    outcome.note("setup_reps", SETUP_REPS);
    if !args.trace {
        common::put_latency(
            &mut outcome,
            &windows,
            common::SERVING_TAIL_Q,
            common::SERVING_TAIL_BLOCK,
        );
        let m = &mut outcome.metrics;
        put(m, "setup_s", common::median_s(&setups), "s");
        let rate = common::windowed_rate(&windows, 1.0, elapsed[0]);
        put(m, "items_per_s", rate, "1/s");
        put(m, "rss_mib", rss, "MiB");
        return outcome;
    }

    let traced = &rtts[1];
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
    put(m, "server.queue_depth_max", depth_max as f64, "count");
    put(
        m,
        "server.failed",
        common::server_failures(&final_stats) as f64,
        "count",
    );
    let wire_stage_us = after_stages.mean_us(&before_stages, Stage::HttpParse)
        + after_stages.mean_us(&before_stages, Stage::ResponseWrite);
    inproc.report(&mut outcome, common::RECONCILE_TOLERANCE_PCT);
    common::reconcile_wire(
        &mut outcome,
        traced,
        &inproc,
        wire_stage_us,
        common::RECONCILE_TOLERANCE_PCT,
    );
    trace::overhead(&mut outcome, &rtts, elapsed);
    trace::write_spans(&mut outcome, &tracer, args);
    outcome
}
