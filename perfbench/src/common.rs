//! Pieces shared by the serving workloads: the fixed server shape, the
//! standalone reference session every answer is checked against, telemetry
//! deltas and the metric records a workload hands back.

use crate::stats::{mean, median};
use dtdbd_data::InferenceRequest;
use dtdbd_serve::telemetry::{Stage, Telemetry};
use dtdbd_serve::{session_from_checkpoint, Checkpoint, Precision, Prediction, ServingStats};
use std::sync::Arc;

/// Requests per batch the servers assemble (the deployed default).
pub const MAX_BATCH: usize = 32;

/// Prediction workers of a single-model server: the deployed default of
/// two, capped so workers × intra-op threads (1) never exceeds the cores.
pub fn workers() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Push `name = value unit` onto a metric list.
pub fn put(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, predictions or training examples).
    pub attempted: u64,
    /// Attempted operations that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The gated end-to-end metrics (untraced run) or the traffic-derived
    /// per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end figures and sample counts, printed by
    /// name and unit and kept in the result file.
    pub detail: Vec<Metric>,
    /// Free-form provenance (`key`, `value`) for the result file.
    pub notes: Vec<(String, String)>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Bit-for-bit equality of two predictions (probability, both logits and
/// any domain scores).
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    let bits = |p: &Prediction| {
        let mut v = vec![
            p.fake_prob.to_bits(),
            p.logits[0].to_bits(),
            p.logits[1].to_bits(),
        ];
        if let Some(scores) = &p.domain_scores {
            v.extend(scores.iter().map(|s| s.to_bits()));
        }
        v
    };
    bits(a) == bits(b)
}

/// Reference answers from a standalone session of the same checkpoint and
/// precision, computed in batches of [`MAX_BATCH`] (predictions do not
/// depend on batch composition).
pub fn reference_predictions(
    checkpoint: &Checkpoint,
    precision: Precision,
    requests: &[InferenceRequest],
) -> Vec<Prediction> {
    let mut session = session_from_checkpoint(checkpoint).expect("restore reference session");
    session
        .quantize(precision)
        .expect("quantize reference session");
    let encoded: Vec<_> = requests
        .iter()
        .map(|r| {
            session
                .encoder()
                .encode(r)
                .expect("generated request is valid")
        })
        .collect();
    encoded
        .chunks(MAX_BATCH)
        .flat_map(|chunk| session.predict_requests(chunk))
        .collect()
}

/// Summed duration and count of every telemetry stage, for before/after
/// deltas around a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    sums: [(u64, u64); 6],
}

impl StageTotals {
    pub fn read(telemetry: Option<&Arc<Telemetry>>) -> Self {
        let mut out = Self::default();
        if let Some(t) = telemetry {
            let snap = t.snapshot();
            for (i, stage) in Stage::ALL.iter().enumerate() {
                let h = snap.stage_total(*stage);
                out.sums[i] = (h.sum_ns, h.count);
            }
        }
        out
    }

    fn index(stage: Stage) -> usize {
        Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage is listed in Stage::ALL")
    }

    /// `(Δsum in µs, Δcount)` of one stage since `before`.
    pub fn delta(&self, before: &Self, stage: Stage) -> (f64, u64) {
        let i = Self::index(stage);
        let (s1, c1) = self.sums[i];
        let (s0, c0) = before.sums[i];
        (s1.saturating_sub(s0) as f64 / 1e3, c1.saturating_sub(c0))
    }

    /// Mean µs per recorded event of one stage since `before` (0 if none).
    pub fn mean_us(&self, before: &Self, stage: Stage) -> f64 {
        let (sum, n) = self.delta(before, stage);
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// The stage model of one queued request's wait (submit return → handle
/// resolved): its queue wait (which covers the batching linger) plus the
/// forward pass of the whole batch it rode in, estimated per batch as
/// Δinference-sum / Δbatches.
pub fn stage_wait_model_us(after: &StageTotals, before: &StageTotals) -> f64 {
    let queue_wait = after.mean_us(before, Stage::QueueWait);
    let (inference_sum, _) = after.delta(before, Stage::Inference);
    let (_, batches) = after.delta(before, Stage::BatchAssembly);
    queue_wait
        + if batches == 0 {
            0.0
        } else {
            inference_sum / batches as f64
        }
}

/// Counter deltas of [`ServingStats`] across a phase.
pub struct ServingDelta {
    pub served: u64,
    pub batches: u64,
    pub hits: u64,
    pub lookups: u64,
    pub pool_alloc_misses: u64,
}

impl ServingDelta {
    pub fn between(before: &ServingStats, after: &ServingStats) -> Self {
        Self {
            served: after.requests_served.saturating_sub(before.requests_served),
            batches: after.batches.saturating_sub(before.batches),
            hits: after.cache.hits.saturating_sub(before.cache.hits),
            lookups: (after.cache.hits + after.cache.misses)
                .saturating_sub(before.cache.hits + before.cache.misses),
            pool_alloc_misses: after
                .pool_alloc_misses
                .saturating_sub(before.pool_alloc_misses),
        }
    }

    /// Requests per forward pass: Δ(served − cache hits) / Δbatches.
    pub fn batch_items(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served.saturating_sub(self.hits) as f64 / self.batches as f64
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Supervision counters that must stay zero: worker panics, restarts and
/// deadline drops.
pub fn server_failures(stats: &ServingStats) -> u64 {
    stats.worker_panics + stats.worker_restarts + stats.requests_deadline_dropped
}

/// The end-of-run health check: `GET /readyz` answers 200 (for an HTTP
/// server) and no worker panicked or shed a request by deadline.
pub fn check_health(
    outcome: &mut Outcome,
    addr: Option<std::net::SocketAddr>,
    stats: &[ServingStats],
) {
    if let Some(addr) = addr {
        let ready = dtdbd_serve::HttpClient::connect(addr)
            .and_then(|mut c| c.get("/readyz"))
            .map(|r| r.status);
        outcome.check(matches!(ready, Ok(200)), || {
            format!("/readyz answered {ready:?}")
        });
    }
    for s in stats {
        outcome.check(
            s.worker_panics == 0 && s.requests_deadline_dropped == 0,
            || {
                format!(
                    "worker_panics {} requests_deadline_dropped {}",
                    s.worker_panics, s.requests_deadline_dropped
                )
            },
        );
    }
}

/// Median of repeated set-ups, in seconds.
pub fn median_s(samples: &[std::time::Duration]) -> f64 {
    let secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    crate::stats::median(&secs)
}

impl std::ops::Add for StageTotals {
    type Output = Self;
    fn add(mut self, other: Self) -> Self {
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self
    }
}

/// Consecutive time windows a measured phase is split into; latency
/// metrics are medians over the windows, so one stalled stretch of a run
/// moves them by at most one window's worth.
pub const WINDOWS: usize = 5;

/// Window index of a sample taken `at` seconds into a phase of `len` seconds.
pub fn window(at: f64, len: f64) -> usize {
    ((at / len * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Throughput as the median over windows of `seconds / WINDOWS` each: the
/// samples a window completed times `items_per_sample`, per second.
pub fn windowed_rate(windows: &[Vec<f64>], items_per_sample: f64, seconds: f64) -> f64 {
    let window_s = seconds / WINDOWS as f64;
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.len() as f64 * items_per_sample / window_s)
        .collect();
    crate::stats::median(&rates)
}

/// The tail quantile `p99_ms` reports on the serving workloads, and the
/// samples per block it is taken over: the fewest that leave ten beyond it.
pub const SERVING_TAIL_Q: f64 = 0.99;
pub const SERVING_TAIL_BLOCK: usize = 1000;

/// `p50_ms` and `p99_ms` from latency samples in milliseconds, grouped by
/// time window and in the order they were collected.
///
/// `p50_ms` is the median over windows of each window's median, so one
/// stalled stretch of a run moves it by at most one window's worth.
///
/// `p99_ms` is the fixed quantile `tail_q`, taken per block of `block`
/// consecutive samples; the metric is the midpoint median over the blocks
/// (a remainder too short for a block joins the last one). A run that
/// collects more samples has more blocks, never a higher quantile, and a
/// stall of the machine spoils only the blocks it falls in. The same
/// quantile of all samples pooled, which every stall moves, is printed as
/// `p99_ms_pooled`.
pub fn put_latency(outcome: &mut Outcome, windows_ms: &[Vec<f64>], tail_q: f64, block: usize) {
    let windows: Vec<&Vec<f64>> = windows_ms.iter().filter(|w| !w.is_empty()).collect();
    let medians: Vec<f64> = windows.iter().map(|w| crate::stats::median(w)).collect();
    let samples: Vec<f64> = windows.iter().flat_map(|w| w.iter().copied()).collect();
    let blocks = (samples.len() / block).max(1);
    let tails: Vec<f64> = (0..blocks)
        .map(|i| {
            let end = if i + 1 == blocks {
                samples.len()
            } else {
                (i + 1) * block
            };
            crate::stats::quantile(&samples[i * block..end], tail_q)
        })
        .collect();
    let pooled = crate::stats::quantile(&samples, tail_q);
    let m = &mut outcome.metrics;
    put(m, "p50_ms", crate::stats::median(&medians), "ms");
    put(m, "p99_ms", crate::stats::midpoint_median(&tails), "ms");
    let d = &mut outcome.detail;
    put(d, "samples", samples.len() as f64, "count");
    put(d, "p99_blocks", tails.len() as f64, "count");
    put(d, "p99_ms_pooled", pooled, "ms");
    outcome.note("latency_windows", windows.len());
    outcome.note("p99_ms_quantile", tail_q);
}

/// The recorded server shape.
pub fn serving_shape(workers: usize, models: usize) -> String {
    format!(
        "{models} model(s) x workers={workers} threads=1 max_batch={MAX_BATCH} max_wait_ms=2 cache=1024 telemetry=on"
    )
}

/// Allowed gap, as a share of the measurement, between a measured wait and
/// its telemetry stage model, and between a wire round trip and its parts.
pub const RECONCILE_TOLERANCE_PCT: f64 = 15.0;

/// Samples of an in-process phase (`submit` → `wait`) and the telemetry
/// stage totals around it.
#[derive(Default)]
pub struct InProcess {
    /// Time inside each `submit`.
    pub submit_us: Vec<f64>,
    /// Submit return → handle resolved, per item.
    pub wait_us: Vec<f64>,
    /// First submit → last answer, per request the wire phase would send.
    pub request_us: Vec<f64>,
    pub stages: Option<(StageTotals, StageTotals)>,
}

impl InProcess {
    /// The `server.*` stage metrics, and reconciliation 1: the mean
    /// `server.wait_us` against the stage model (queue wait + the batch's
    /// forward pass), within `tolerance_pct`.
    pub fn report(&self, outcome: &mut Outcome, tolerance_pct: f64) {
        let Some((s0, s1)) = &self.stages else { return };
        let wait = mean(&self.wait_us);
        let model = stage_wait_model_us(s1, s0);
        let residual = 100.0 * (wait - model) / wait;
        let m = &mut outcome.metrics;
        put(m, "server.submit_us", mean(&self.submit_us), "us");
        put(m, "server.wait_us", wait, "us");
        put(
            m,
            "server.queue_wait_us",
            s1.mean_us(s0, Stage::QueueWait),
            "us",
        );
        put(
            m,
            "server.assembly_us",
            s1.mean_us(s0, Stage::BatchAssembly),
            "us",
        );
        put(
            m,
            "server.inference_us",
            s1.mean_us(s0, Stage::Inference),
            "us",
        );
        put(m, "server.wait_residual_pct", residual, "%");
        put(
            &mut outcome.detail,
            "inproc_samples",
            self.wait_us.len() as f64,
            "count",
        );
        outcome.check(residual.abs() <= tolerance_pct, || {
            format!("server.wait_us {wait:.1} vs stage model {model:.1}: {residual:.1}% apart")
        });
    }
}

/// `http.self_us` (wire p50 minus in-process p50 per request) and
/// reconciliation 2: the mean round trip against the in-process request
/// time plus the server's wire stages, within `tolerance_pct`; the rest is
/// unattributed (loopback transport, server-side JSON, client parse).
pub fn reconcile_wire(
    outcome: &mut Outcome,
    rtt_us: &[f64],
    inproc: &InProcess,
    wire_stage_us: f64,
    tolerance_pct: f64,
) {
    let rtt = mean(rtt_us);
    let residual = 100.0 * (rtt - mean(&inproc.request_us) - wire_stage_us) / rtt;
    let self_us = median(rtt_us) - median(&inproc.request_us);
    put(&mut outcome.metrics, "http.self_us", self_us, "us");
    put(&mut outcome.metrics, "http.rtt_residual_pct", residual, "%");
    outcome.check(residual.abs() <= tolerance_pct, || {
        format!("http.rtt_us {rtt:.1} vs in-process + wire stages: {residual:.1}% unattributed")
    });
}
