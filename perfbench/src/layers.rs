//! Fixed-shape layer probes of the traced run.
//!
//! Each probe times the benchmark's own call into one public function of a
//! layer at a stated shape, independent of the workload: `json` codec at 1
//! and 32 items, `InferenceSession::predict_requests` per precision and
//! architecture, the GEMM kernels single-threaded at the TextCNN-S serving
//! and training shapes, checkpoint decode, server start, quantization, zoo
//! hot-swap, and the `core` training calls on the `distill` corpus of the
//! run's seed. Timings are medians over repeated calls.

use crate::common::{self, put, Outcome, MAX_BATCH};
use crate::stats::{median, time_calls};
use crate::{distill, fixtures, Args};
use dtdbd_core::{evaluate, predict_fake_probs, train_step, TrainConfig};
use dtdbd_data::{BatchIter, EncodedRequest, InferenceRequest};
use dtdbd_serve::json::{self, Json};
use dtdbd_serve::{session_from_checkpoint, Checkpoint, Precision, ServerBuilder};
use dtdbd_tensor::kernels::{gemm_abt_into, gemm_atb_into, gemm_into};
use dtdbd_tensor::optim::Adam;
use dtdbd_tensor::{KernelTimers, QuantizedMatrix};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget of one micro-probe.
const PROBE: Duration = Duration::from_millis(150);
/// Repetitions of the heavyweight probes (load, start, quantize, reload).
const REPS: usize = 5;

/// TextCNN-S width-3 convolution as one GEMM at batch 32: 32 items × 22
/// valid positions, 3 × 32 embedding inputs, 32 channels.
pub const SERVE_GEMM: (usize, usize, usize) = (32 * 22, 3 * 32, 32);
/// The same convolution at the training batch of 64.
pub const TRAIN_GEMM: (usize, usize, usize) = (distill::BATCH * 22, 3 * 32, 32);

/// Sums every kernel duration a session reports through its timing hook.
#[derive(Default)]
struct KernelSum(AtomicU64);

impl KernelTimers for KernelSum {
    fn record(&self, _kernel: &'static str, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn probe(args: &Args, outcome: &mut Outcome) {
    let fx = fixtures::ensure();
    let requests = fixtures::distinct_requests(args.seed ^ 0x001A_7E45, MAX_BATCH);
    json_probes(outcome, &requests);
    session_probes(outcome, &fx, &requests);
    kernel_probes(outcome);
    setup_probes(outcome, &fx);
    core_probes(outcome, args.seed);
}

fn json_probes(outcome: &mut Outcome, requests: &[InferenceRequest]) {
    let one = &requests[0];
    let batch_body = |items: &[InferenceRequest]| {
        let items = items.iter().map(json::encode_request).collect();
        Json::Obj(vec![("items".into(), Json::Arr(items))]).render()
    };
    let enc1 = time_calls(PROBE, 10, || {
        black_box(json::encode_request(black_box(one)).render());
    });
    let enc32 = time_calls(PROBE, 10, || {
        black_box(batch_body(black_box(requests)));
    });
    let checkpoint = Checkpoint::load(fixtures::ensure().student).expect("load student fixture");
    let mut session = session_from_checkpoint(&checkpoint).expect("restore");
    let encoded: Vec<EncodedRequest> = requests
        .iter()
        .map(|r| session.encoder().encode(r).expect("valid"))
        .collect();
    let predictions = session.predict_requests(&encoded);
    let single = json::encode_prediction(&predictions[0]).render();
    let many = Json::Obj(vec![
        ("count".into(), Json::Num(predictions.len() as f64)),
        (
            "predictions".into(),
            Json::Arr(predictions.iter().map(json::encode_prediction).collect()),
        ),
    ])
    .render();
    let dec1 = time_calls(PROBE, 10, || {
        let doc = json::parse(black_box(&single)).expect("parse");
        black_box(json::decode_prediction(&doc).expect("decode"));
    });
    let dec32 = time_calls(PROBE, 10, || {
        let doc = json::parse(black_box(&many)).expect("parse");
        for p in doc
            .get("predictions")
            .and_then(Json::as_array)
            .expect("array")
        {
            black_box(json::decode_prediction(p).expect("decode"));
        }
    });
    let m = &mut outcome.metrics;
    put(m, "json.encode_us.b1", median(&enc1), "us");
    put(m, "json.encode_us.b32", median(&enc32), "us");
    put(m, "json.decode_us.b1", median(&dec1), "us");
    put(m, "json.decode_us.b32", median(&dec32), "us");
}

fn session_probes(outcome: &mut Outcome, fx: &fixtures::Fixtures, requests: &[InferenceRequest]) {
    let student = Checkpoint::load(&fx.student).expect("load student fixture");
    let eddfn = Checkpoint::load(&fx.eddfn).expect("load eddfn fixture");
    let forward = |checkpoint: &Checkpoint, precision: Precision, n: usize| {
        let mut session = session_from_checkpoint(checkpoint).expect("restore");
        session.quantize(precision).expect("quantize");
        let encoded: Vec<EncodedRequest> = requests[..n]
            .iter()
            .map(|r| session.encoder().encode(r).expect("valid"))
            .collect();
        session.predict_requests(&encoded);
        median(&time_calls(PROBE, 10, || {
            black_box(session.predict_requests(black_box(&encoded)));
        }))
    };
    let b1 = forward(&student, Precision::Fp32, 1);
    let b32 = forward(&student, Precision::Fp32, MAX_BATCH);
    let s8 = forward(&student, Precision::Int8, MAX_BATCH);
    let e8 = forward(&eddfn, Precision::Int8, MAX_BATCH);

    // Kernel share: the session's timing hook against forward wall time.
    let mut session = session_from_checkpoint(&student).expect("restore");
    let sink = Arc::new(KernelSum::default());
    session.set_kernel_timers(Some(sink.clone() as Arc<dyn KernelTimers>));
    let encoded: Vec<EncodedRequest> = requests
        .iter()
        .map(|r| session.encoder().encode(r).expect("valid"))
        .collect();
    session.predict_requests(&encoded);
    sink.0.store(0, Ordering::Relaxed);
    let t0 = Instant::now();
    let mut calls = 0;
    while t0.elapsed() < PROBE {
        black_box(session.predict_requests(&encoded));
        calls += 1;
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let share = sink.0.load(Ordering::Relaxed) as f64 / wall_ns;
    let m = &mut outcome.metrics;
    put(m, "session.forward_us.b1", b1, "us");
    put(m, "session.forward_us.b32", b32, "us");
    put(m, "session.forward_us.student-int8.b32", s8, "us");
    put(m, "session.forward_us.eddfn-int8.b32", e8, "us");
    put(m, "session.kernel_share", share, "ratio");
    put(
        m,
        "session.param_bytes",
        session.resident_param_bytes() as f64,
        "bytes",
    );
    outcome.note("kernel_share_calls", calls);
}

/// GFLOP/s of one timed call of `2·m·k·n` flops.
fn gflops(m: usize, k: usize, n: usize, us: f64) -> f64 {
    2.0 * (m * k * n) as f64 / (us * 1e3)
}

fn kernel_probes(outcome: &mut Outcome) {
    let fill = |n: usize, salt: u32| -> Vec<f32> {
        (0..n)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 - 0.5)
            .collect()
    };
    let (m, k, n) = SERVE_GEMM;
    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
    let mut out = vec![0.0f32; m * n];
    let mut scratch = Vec::new();
    let fp32 = median(&time_calls(PROBE, 10, || {
        gemm_into(
            m,
            k,
            n,
            black_box(&a),
            black_box(&b),
            &mut out,
            1,
            &mut scratch,
        );
    }));
    let weights = QuantizedMatrix::from_rows(n, k, &fill(n * k, 3));
    let bias = vec![0.0f32; n];
    let int8 = median(&time_calls(PROBE, 10, || {
        weights.matmul_into(black_box(&a), m, &bias, &mut out, 1);
    }));
    // Backward of the same layer at the training batch: weight gradient
    // (Aᵀ·dY) and input gradient (dY·Wᵀ).
    let (tm, tk, tn) = TRAIN_GEMM;
    let (x, dy, w) = (fill(tm * tk, 4), fill(tm * tn, 5), fill(tk * tn, 6));
    let mut dw = vec![0.0f32; tk * tn];
    let mut dx = vec![0.0f32; tm * tk];
    let backward = median(&time_calls(PROBE, 10, || {
        gemm_atb_into(tm, tk, tn, black_box(&x), black_box(&dy), &mut dw, 1);
        gemm_abt_into(
            tm,
            tn,
            tk,
            black_box(&dy),
            black_box(&w),
            &mut dx,
            1,
            &mut scratch,
        );
    }));
    let o = &mut outcome.metrics;
    put(o, "kernels.gemm_gflops", gflops(m, k, n, fp32), "GFLOP/s");
    put(
        o,
        "kernels.gemm_bytes",
        (4 * (m * k + k * n + m * n)) as f64,
        "bytes",
    );
    put(o, "quant.gemm_gflops", gflops(m, k, n, int8), "GFLOP/s");
    put(
        o,
        "kernels.backward_gflops",
        2.0 * gflops(tm, tk, tn, backward),
        "GFLOP/s",
    );
    outcome.note(
        "gemm_shapes",
        format!("serve m,k,n={SERVE_GEMM:?} train m,k,n={TRAIN_GEMM:?}, 1 thread"),
    );
}

fn setup_probes(outcome: &mut Outcome, fx: &fixtures::Fixtures) {
    let mut load = Vec::new();
    let mut start = Vec::new();
    let mut quantize = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let checkpoint = Checkpoint::load(&fx.student).expect("load student fixture");
        load.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        let server = ServerBuilder::new()
            .workers(common::workers())
            .try_start_from_checkpoint(&checkpoint)
            .expect("start server");
        start.push(ms(t0.elapsed()));
        server.shutdown();
        let mut session = session_from_checkpoint(&checkpoint).expect("restore");
        let t0 = Instant::now();
        session.quantize(Precision::Int8).expect("quantize");
        quantize.push(ms(t0.elapsed()));
    }
    let zoo = ServerBuilder::new()
        .workers(1)
        .precision(Precision::Int8)
        .tenant_from_path("eddfn", &fx.eddfn)
        .try_start_zoo()
        .expect("start zoo");
    let mut reload = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        zoo.reload("eddfn").expect("reload");
        reload.push(ms(t0.elapsed()));
    }
    drop(zoo);
    let m = &mut outcome.metrics;
    put(m, "checkpoint.load_ms", median(&load), "ms");
    put(m, "builder.start_ms", median(&start), "ms");
    put(m, "session.quantize_ms", median(&quantize), "ms");
    put(m, "zoo.reload_ms", median(&reload), "ms");
}

/// The `core` calls of one distillation epoch on the `distill` corpus of
/// this seed. Teachers are left untrained: their cost does not depend on
/// their weights.
fn core_probes(outcome: &mut Outcome, seed: u64) {
    let (split, cfg) = distill::corpus(seed);
    let mut t = distill::teachers(&split, &cfg, 0);
    let t0 = Instant::now();
    distill::distill_once(&split, &cfg, &mut t, 1, seed);
    let epoch_s = t0.elapsed().as_secs_f64();

    let mut store = dtdbd_tensor::ParamStore::new();
    let mut student = dtdbd_models::TextCnnModel::student(
        &mut store,
        &cfg,
        &mut dtdbd_tensor::rng::Prng::new(14),
    );
    let tc = TrainConfig {
        batch_size: distill::BATCH,
        ..TrainConfig::default()
    };
    let mut adam = Adam::new(tc.learning_rate);
    let batches: Vec<_> = BatchIter::new(&split.train, distill::BATCH, seed, false).collect();
    let mut step = 0usize;
    let steps = time_calls(PROBE, 5, || {
        let batch = &batches[step % batches.len()];
        black_box(train_step(
            &mut student,
            &mut store,
            batch,
            &mut adam,
            &tc,
            step as u64,
        ));
        step += 1;
    });
    let infer_m3 = time_calls(PROBE, 3, || {
        black_box(predict_fake_probs(
            &t.clean,
            &mut t.clean_store,
            &split.train,
            distill::BATCH,
        ));
    });
    let infer_dat = time_calls(PROBE, 3, || {
        black_box(predict_fake_probs(
            t.unbiased.base(),
            &mut t.unbiased_store,
            &split.train,
            distill::BATCH,
        ));
    });
    let eval = time_calls(PROBE, 3, || {
        black_box(evaluate(&student, &mut store, &split.val, 128));
    });
    let m = &mut outcome.metrics;
    put(m, "core.epoch_s", epoch_s, "s");
    put(m, "core.student_step_ms", median(&steps) / 1e3, "ms");
    put(
        m,
        "core.teacher_infer_ms.m3fend",
        median(&infer_m3) / 1e3,
        "ms",
    );
    put(
        m,
        "core.teacher_infer_ms.dat-ie",
        median(&infer_dat) / 1e3,
        "ms",
    );
    put(m, "core.eval_ms", median(&eval) / 1e3, "ms");
}
