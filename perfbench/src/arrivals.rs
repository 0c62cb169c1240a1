//! `open-arrivals`: open-loop Poisson arrivals into the in-process
//! `PredictServer::submit`, fp32 TextCNN-S student, deployed defaults.
//!
//! One thread generates on schedule and one collects; a seeded 20% of
//! arrivals repeat a recent item, so this is the workload where `cache`
//! hits are real. It bypasses `http`/`json`.
//!
//! Every request is timed from its *due* time, so a generator stall is
//! charged to the requests it delayed; the generator's own lateness is
//! reported per rung and a rung whose p99 lateness exceeds
//! [`MAX_LATENESS_US`] is invalid. The collector waits on handles in
//! submission order, so a completion can be recorded late by at most the
//! forward pass of one batch on the other worker; that bound is measured at
//! set-up and reported as `collector_order_bound_us`.
//!
//! The untraced run measures `p50_ms`/`p99_ms` at [`NOMINAL_RATE`] and then
//! steps through [`LADDER`]; `items_per_s` is the completion rate at the
//! highest rung that passes (the goodput, whose nominal rate is reported as
//! `goodput_rps`), or at the lowest rung when none passes.

use crate::common::{self, put, InProcess, Outcome, ServingDelta, StageTotals};
use crate::fixtures;
use crate::stats::{mean, median, quantile, rss_mib};
use crate::trace::{self, Tracer};
use crate::Args;
use dtdbd_data::InferenceRequest;
use dtdbd_serve::telemetry::Stage;
use dtdbd_serve::{Checkpoint, PredictError, PredictServer, Prediction, ServerBuilder};
use dtdbd_tensor::rng::Prng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Distinct items the fresh arrivals cycle through. Far larger than the
/// 1024-entry prediction cache, so only the repeats can hit it.
const POOL: usize = 8192;
/// Share of arrivals that repeat one of the last [`RECENT`] items.
const REPEAT_SHARE: f64 = 0.2;
const RECENT: usize = 64;
/// Latency limit on a rung's p99, microseconds.
const P99_LIMIT_US: f64 = 10_000.0;
/// A rung whose generator ran later than this at p99 is invalid.
const MAX_LATENESS_US: f64 = 2_500.0;
/// Arrival rate (items/s) of the latency phase. The seed commit's goodput
/// on the 2-core reference box was about 52k items/s in quiet periods and
/// fell to about 24k while the host was loaded; 16k keeps the latency phase
/// below saturation in both.
pub const NOMINAL_RATE: f64 = 16_000.0;
/// Absolute arrival rates (items/s) of the goodput ladder, fixed on the seed
/// commit: three coarse rungs well under saturation (so a heavily loaded
/// host still yields a goodput), then 6% apart from the nominal rate to
/// past saturation.
pub const LADDER: [f64; 28] = [
    4_000.0, 8_000.0, 12_000.0, 16_000.0, 17_000.0, 18_000.0, 19_100.0, 20_200.0, 21_400.0,
    22_700.0, 24_100.0, 25_500.0, 27_000.0, 28_700.0, 30_400.0, 32_200.0, 34_100.0, 36_200.0,
    38_300.0, 40_600.0, 43_100.0, 45_700.0, 48_400.0, 51_300.0, 54_400.0, 57_700.0, 61_100.0,
    64_800.0,
];

/// One arrival handed from the generator to the collector.
struct Arrival {
    due: Instant,
    submitted: Instant,
    item: usize,
    fresh: bool,
    request: u64,
    handle: dtdbd_serve::PredictionHandle,
}

/// What one rung measured.
#[derive(Default)]
struct Rung {
    rate: f64,
    seconds: f64,
    /// Due time → handle resolved, and the due time's offset into the rung.
    latency_us: Vec<f64>,
    latency_at: Vec<f64>,
    /// How late the generator submitted each arrival, and its offset.
    lateness_us: Vec<f64>,
    lateness_at: Vec<f64>,
    submit_us: Vec<f64>,
    /// Submit return → handle resolved, for fresh (never cached) items.
    fresh_wait_us: Vec<f64>,
    depth: Vec<(f64, usize)>,
    answers: Vec<(usize, Result<Prediction, PredictError>)>,
    aborted: bool,
}

impl Rung {
    fn completed(&self) -> usize {
        self.latency_us.len()
    }

    /// Backlog grew: mean queue depth over the last quarter of the rung
    /// exceeds the first quarter's by more than one full batch.
    fn backlog_grew(&self) -> bool {
        let quarter = |lo: f64, hi: f64| {
            let xs: Vec<f64> = self
                .depth
                .iter()
                .filter(|(t, _)| *t >= lo * self.seconds && *t < hi * self.seconds)
                .map(|(_, d)| *d as f64)
                .collect();
            mean(&xs)
        };
        self.aborted || quarter(0.75, 1.01) - quarter(0.0, 0.25) > common::MAX_BATCH as f64
    }

    /// The rung's p99 due-time latency: the median over its
    /// [`common::WINDOWS`] stretches of each stretch's p99, so a single
    /// stall of the machine fails at most one stretch.
    fn p99_us(&self) -> f64 {
        windowed_p99(&self.latency_at, &self.latency_us, self.seconds)
    }

    /// The generator's p99 lateness, windowed the same way.
    fn lateness_p99_us(&self) -> f64 {
        windowed_p99(&self.lateness_at, &self.lateness_us, self.seconds)
    }

    fn valid(&self) -> bool {
        self.lateness_p99_us() <= MAX_LATENESS_US
    }

    fn passes(&self) -> bool {
        self.valid()
            && !self.backlog_grew()
            && self.answers.iter().all(|(_, a)| a.is_ok())
            && self.p99_us() <= P99_LIMIT_US
    }

    fn describe(&self) -> String {
        format!(
            "completed={} p50_us={:.0} p99_us={:.0} lateness_p99_us={:.0} depth_max={} backlog_grew={} valid={} pass={}",
            self.completed(),
            median(&self.latency_us),
            self.p99_us(),
            self.lateness_p99_us(),
            self.depth.iter().map(|d| d.1).max().unwrap_or(0),
            self.backlog_grew(),
            self.valid(),
            self.passes()
        )
    }
}

/// Median over [`common::WINDOWS`] equal stretches of `seconds` of the p99
/// of `values` (each taken `at` seconds into the stretch).
fn windowed_p99(at: &[f64], values: &[f64], seconds: f64) -> f64 {
    let mut windows = vec![Vec::new(); common::WINDOWS];
    for (t, v) in at.iter().zip(values) {
        windows[common::window(*t, seconds)].push(*v);
    }
    let p99s: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.99))
        .collect();
    median(&p99s)
}

/// Drive one rung: Poisson arrivals at `rate` for `seconds`, generated on
/// one thread and collected on another, then drained.
fn run_rung(
    server: &PredictServer,
    pool: &[InferenceRequest],
    rng: &mut Prng,
    cursor: &mut usize,
    rate: f64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Rung {
    // Draw the whole schedule first so the generator loop only waits and
    // submits.
    let mut schedule = Vec::new();
    let mut recent: Vec<usize> = Vec::with_capacity(RECENT);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - unit(rng)).ln() / rate;
        if t >= seconds {
            break;
        }
        let repeat = !recent.is_empty() && unit(rng) < REPEAT_SHARE;
        let item = if repeat {
            recent[rng.below(recent.len())]
        } else {
            let item = *cursor % pool.len();
            *cursor += 1;
            item
        };
        if recent.len() == RECENT {
            recent.remove(0);
        }
        recent.push(item);
        schedule.push((t, item, !repeat));
    }
    // A rung whose queue holds 50 ms of arrivals has failed; stop feeding it.
    let abort_depth = ((rate * 0.05) as usize).max(4 * common::MAX_BATCH);
    let (tx, rx) = mpsc::channel::<Arrival>();
    let mut rung = Rung {
        rate,
        seconds,
        ..Rung::default()
    };
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            for arrival in rx {
                let open = tracer.map(|t| t.begin("server.wait", None, arrival.request));
                let result = arrival.handle.wait();
                let done = Instant::now();
                if let (Some(t), Some(o)) = (tracer, open) {
                    t.end(o);
                }
                out.push((
                    arrival.due,
                    arrival.submitted,
                    done,
                    arrival.item,
                    arrival.fresh,
                    result,
                ));
            }
            out
        });
        let start = Instant::now() + Duration::from_millis(2);
        let mut next_sample = 0.0f64;
        for (n, &(offset, item, fresh)) in schedule.iter().enumerate() {
            let request = ((rate as u64) << 32) | n as u64;
            let due = start + Duration::from_secs_f64(offset);
            wait_until(due);
            let now = Instant::now();
            rung.lateness_us.push((now - due).as_secs_f64() * 1e6);
            rung.lateness_at.push(offset);
            let open = tracer.map(|t| t.begin("server.submit", None, request));
            let handle = server
                .submit(&pool[item])
                .expect("generated request is valid");
            let submitted = Instant::now();
            if let (Some(t), Some(o)) = (tracer, open) {
                t.end(o);
            }
            rung.submit_us.push((submitted - now).as_secs_f64() * 1e6);
            tx.send(Arrival {
                due,
                submitted,
                item,
                fresh,
                request,
                handle,
            })
            .expect("collector is alive");
            if offset >= next_sample {
                let depth = server.queue_depth();
                rung.depth.push((offset, depth));
                next_sample = offset + 0.001;
                if depth > abort_depth {
                    rung.aborted = true;
                    break;
                }
            }
        }
        drop(tx);
        for (due, submitted, done, item, fresh, result) in collector.join().expect("collector") {
            rung.latency_us.push((done - due).as_secs_f64() * 1e6);
            rung.latency_at.push((due - start).as_secs_f64());
            if fresh {
                rung.fresh_wait_us
                    .push((done - submitted).as_secs_f64() * 1e6);
            }
            rung.answers.push((item, result));
        }
    });
    rung
}

/// A uniform draw in `[0, 1)` with 53 bits of resolution.
fn unit(rng: &mut Prng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Sleep until `due` (no spinning: the generator must not take a core
/// from the workers).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

pub fn run(args: &Args) -> Outcome {
    let fx = fixtures::ensure();
    let mut outcome = Outcome::default();
    let pool = fixtures::distinct_requests(args.seed, POOL);
    let checkpoint = Checkpoint::load(&fx.student).expect("load student fixture");
    // Reference answers, timing each 32-item forward pass: its p99 bounds
    // how late the in-order collector can record a completion.
    let mut reference = Vec::with_capacity(POOL);
    let mut batch_us = Vec::new();
    {
        let mut session = dtdbd_serve::session_from_checkpoint(&checkpoint).expect("restore");
        let encoded: Vec<_> = pool
            .iter()
            .map(|r| session.encoder().encode(r).expect("valid request"))
            .collect();
        for chunk in encoded.chunks(common::MAX_BATCH) {
            let t0 = Instant::now();
            reference.extend(session.predict_requests(chunk));
            batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for i in 0..SETUP_REPS {
        let t0 = Instant::now();
        let checkpoint = Checkpoint::load(&fx.student).expect("load student fixture");
        let server = ServerBuilder::new()
            .workers(common::workers())
            .try_start_from_checkpoint(&checkpoint)
            .expect("start server");
        let first = server.predict(&pool[POOL - 1 - i]);
        setups.push(t0.elapsed());
        outcome.check(first.is_ok(), || format!("set-up request: {first:?}"));
        live = Some(server);
    }
    let server = live.expect("at least one set-up");

    let mut rng = Prng::new(args.seed ^ 0xA221_7A15);
    let mut cursor = 0usize;
    let budget = args.seconds;
    // Warm-up: a short low-rate rung allocates every buffer pool.
    let warm = run_rung(&server, &pool, &mut rng, &mut cursor, 2_000.0, 0.2, None);
    let rss = rss_mib();
    let mut rungs: Vec<(&'static str, Rung)> = Vec::new();
    let before_stats = server.stats();
    let tracer = Tracer::new(args.trace);
    let mut phase_stages: Option<(StageTotals, StageTotals, Vec<f64>)> = None;
    if args.trace {
        // Untraced and traced slices of the nominal rate, interleaved.
        for traced in [false, true, false, true] {
            let s0 = StageTotals::read(server.telemetry());
            let rung = run_rung(
                &server,
                &pool,
                &mut rng,
                &mut cursor,
                NOMINAL_RATE,
                budget * 0.15,
                traced.then_some(&tracer),
            );
            if traced {
                let s1 = StageTotals::read(server.telemetry());
                phase_stages = Some(match phase_stages {
                    None => (s0, s1, rung.fresh_wait_us.clone()),
                    Some((a, _, mut w)) => {
                        w.extend(&rung.fresh_wait_us);
                        (a, s1, w)
                    }
                });
            }
            rungs.push((if traced { "traced" } else { "untraced" }, rung));
        }
    } else {
        // The nominal rate as one rung per latency window, then every
        // ladder rung (a saturated rung aborts within 50 ms of backlog).
        let window_seconds = budget * 0.25 / common::WINDOWS as f64;
        for _ in 0..common::WINDOWS {
            let rung = run_rung(
                &server,
                &pool,
                &mut rng,
                &mut cursor,
                NOMINAL_RATE,
                window_seconds,
                None,
            );
            rungs.push(("nominal", rung));
        }
        let rung_seconds = budget * 0.75 / LADDER.len() as f64;
        for rate in LADDER {
            let rung = run_rung(
                &server,
                &pool,
                &mut rng,
                &mut cursor,
                rate,
                rung_seconds,
                None,
            );
            rungs.push(("ladder", rung));
        }
    }
    let after_stats = server.stats();

    // Every answer must equal the reference session's, bit for bit.
    let mut attempted = warm.answers.len() as u64;
    let mut failed = 0u64;
    let mut wrong = 0u64;
    for (_, rung) in &rungs {
        attempted += rung.answers.len() as u64;
        for (item, answer) in &rung.answers {
            match answer {
                Ok(p) if common::same_prediction(p, &reference[*item]) => {}
                Ok(_) => wrong += 1,
                Err(_) => failed += 1,
            }
        }
    }
    outcome.check(wrong == 0, || {
        format!("{wrong} answers differ from the reference session")
    });
    let final_stats = server.stats();
    common::check_health(&mut outcome, None, std::slice::from_ref(&final_stats));
    outcome.check(server.workers_alive() == common::workers(), || {
        "not every worker is alive at the end of the run".into()
    });
    server.shutdown();
    outcome.attempted = attempted;
    outcome.failed = failed + wrong;

    outcome.note("server_shape", common::serving_shape(common::workers(), 1));
    outcome.note("precision", "fp32");
    outcome.note(
        "loop",
        format!(
            "open, Poisson, {:.0}% repeats of the last {RECENT} items",
            REPEAT_SHARE * 100.0
        ),
    );
    outcome.note("nominal_rate", NOMINAL_RATE);
    outcome.note(
        "ladder_rates",
        LADDER
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    outcome.note("setup_reps", SETUP_REPS);
    put(
        &mut outcome.detail,
        "collector_order_bound_us",
        quantile(&batch_us, 0.99),
        "us",
    );
    for (i, (kind, rung)) in rungs.iter().enumerate() {
        outcome.note(
            &format!("rung.{i:02}.{kind}.{:.0}", rung.rate),
            rung.describe(),
        );
    }

    if !args.trace {
        let nominal: Vec<&Rung> = rungs
            .iter()
            .filter(|(k, _)| *k == "nominal")
            .map(|(_, r)| r)
            .collect();
        let ladder: Vec<&Rung> = rungs
            .iter()
            .filter(|(k, _)| *k == "ladder")
            .map(|(_, r)| r)
            .collect();
        let best = ladder
            .iter()
            .filter(|r| r.passes())
            .max_by(|a, b| a.rate.total_cmp(&b.rate));
        // A host too loaded for even the lowest rung to meet the limit
        // leaves no goodput: that is a measurement, not a wrong answer, so
        // `goodput_rps` reads 0 and `items_per_s` is the lowest rung's
        // completion rate.
        let goodput = best.map_or(0.0, |r| r.rate);
        let at = best.copied().unwrap_or(ladder[0]);
        let achieved = at.completed() as f64 / at.seconds;
        put(&mut outcome.detail, "goodput_rps", goodput, "1/s");
        // Latency is timed from due times, so a late generator is already
        // charged to it; lateness is reported, not failed.
        let lateness: Vec<f64> = nominal
            .iter()
            .map(|r| quantile(&r.lateness_us, 0.99))
            .collect();
        put(
            &mut outcome.detail,
            "lateness_p99_us",
            median(&lateness),
            "us",
        );
        let windows: Vec<Vec<f64>> = nominal
            .iter()
            .map(|r| r.latency_us.iter().map(|us| us / 1e3).collect())
            .collect();
        common::put_latency(
            &mut outcome,
            &windows,
            common::SERVING_TAIL_Q,
            common::SERVING_TAIL_BLOCK,
        );
        let m = &mut outcome.metrics;
        put(m, "setup_s", common::median_s(&setups), "s");
        put(m, "items_per_s", achieved, "1/s");
        put(m, "rss_mib", rss, "MiB");
        return outcome;
    }

    let delta = ServingDelta::between(&before_stats, &after_stats);
    let traced: Vec<&Rung> = rungs
        .iter()
        .filter(|(k, _)| *k == "traced")
        .map(|(_, r)| r)
        .collect();
    let untraced: Vec<&Rung> = rungs
        .iter()
        .filter(|(k, _)| *k == "untraced")
        .map(|(_, r)| r)
        .collect();
    let gather = |rs: &[&Rung], f: fn(&Rung) -> &Vec<f64>| -> Vec<f64> {
        rs.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let lat = [
        gather(&untraced, |r| &r.latency_us),
        gather(&traced, |r| &r.latency_us),
    ];
    let secs = [
        untraced.iter().map(|r| r.seconds).sum::<f64>(),
        traced.iter().map(|r| r.seconds).sum::<f64>(),
    ];
    trace::overhead(&mut outcome, &lat, secs);
    let (s0, s1, fresh_wait) = phase_stages.expect("traced slices ran");
    let inproc = InProcess {
        submit_us: gather(&traced, |r| &r.submit_us),
        wait_us: fresh_wait,
        request_us: Vec::new(),
        stages: Some((s0, s1)),
    };
    inproc.report(&mut outcome, ARRIVALS_TOLERANCE_PCT);
    let depth_max = traced
        .iter()
        .flat_map(|r| r.depth.iter().map(|d| d.1))
        .max()
        .unwrap_or(0);
    let m = &mut outcome.metrics;
    put(m, "server.batch_items", delta.batch_items(), "count");
    put(m, "server.queue_depth_max", depth_max as f64, "count");
    put(
        m,
        "server.failed",
        common::server_failures(&final_stats) as f64,
        "count",
    );
    put(m, "cache.hit_ratio", delta.hit_ratio(), "ratio");
    put(
        m,
        "cache.lookup_us",
        s1.mean_us(&s0, Stage::CacheLookup),
        "us",
    );
    put(
        m,
        "session.pool_alloc_misses",
        delta.pool_alloc_misses as f64,
        "count",
    );
    trace::write_spans(&mut outcome, &tracer, args);
    outcome
}

/// Under an arrival schedule batches vary in size, and a request waits for
/// its whole batch while the stage model spreads forward time evenly over
/// batches, so the reconciliation here is looser than at c1.
const ARRIVALS_TOLERANCE_PCT: f64 = 30.0;
