//! `distill`: the DTDBD distillation epochs of Algorithm 1 through
//! `DtdbdTrainer::distill`, with [`EPOCHS`] epochs per call so the
//! momentum-based weight adjustment acts (it updates after epoch 2).
//!
//! Set-up trains the two frozen teachers on a corpus from the run's seed:
//! an M3FEND clean teacher and a DAT-IE TextCNN-S unbiased teacher. The
//! measured loop then distils a fresh TextCNN-S student from the same
//! initialisation again and again; every call must reproduce the first
//! call's epoch losses, validation macro-F1 and bias total bit for bit.
//! This workload touches no serving layer; it shares `tensor::kernels` with
//! serving, but with backward (`gemm_atb`/`gemm_abt`) shapes.

use crate::common::{put, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;
use dtdbd_core::{
    dat::train_unbiased_teacher, train_model, AdversarialStudent, DatConfig, DistillConfig,
    DistillReport, DtdbdTrainer, TrainConfig,
};
use dtdbd_data::Split;
use dtdbd_models::{M3Fend, ModelConfig, TextCnnModel};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::time::{Duration, Instant};

/// Share of the full corpus the workload trains on.
pub const SCALE: f64 = 0.1;
/// Distillation epochs per `distill` call.
pub const EPOCHS: usize = 3;
/// Teacher training epochs.
const TEACHER_EPOCHS: usize = 2;
/// Teacher trainings per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
pub const BATCH: usize = 64;
/// The quantile of per-epoch time `p99_ms` reports on this workload, over
/// the whole run as one block. A 30 s run makes about 70 to 120 calls,
/// one sample each, so 0.75 keeps well over ten samples beyond it even on
/// a slow run.
const TAIL_Q: f64 = 0.75;

/// The two trained teachers with their parameter stores.
pub struct Teachers {
    pub clean: M3Fend,
    pub clean_store: ParamStore,
    pub unbiased: AdversarialStudent<TextCnnModel>,
    pub unbiased_store: ParamStore,
}

pub fn corpus(seed: u64) -> (Split, ModelConfig) {
    let ds = crate::fixtures::corpus(seed, SCALE);
    let split = ds.split(0.7, 0.1, seed);
    let cfg = ModelConfig::for_dataset(&split.train);
    (split, cfg)
}

/// Build (and, with `epochs > 0`, train) both teachers.
pub fn teachers(split: &Split, cfg: &ModelConfig, epochs: usize) -> Teachers {
    let tc = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let mut clean_store = ParamStore::new();
    let mut clean = M3Fend::new(&mut clean_store, cfg, &mut Prng::new(11));
    train_model(&mut clean, &mut clean_store, &split.train, &tc);
    let mut unbiased_store = ParamStore::new();
    let base = TextCnnModel::student(&mut unbiased_store, cfg, &mut Prng::new(12));
    let dat = DatConfig {
        train: tc,
        ..DatConfig::default()
    };
    let (unbiased, _) = train_unbiased_teacher(
        base,
        &mut unbiased_store,
        cfg,
        &dat,
        &split.train,
        &mut Prng::new(13),
    );
    Teachers {
        clean,
        clean_store,
        unbiased,
        unbiased_store,
    }
}

/// One `distill` call on a fresh student built from a fixed seed.
pub fn distill_once(
    split: &Split,
    cfg: &ModelConfig,
    t: &mut Teachers,
    epochs: usize,
    seed: u64,
) -> DistillReport {
    let mut store = ParamStore::new();
    let mut student = TextCnnModel::student(&mut store, cfg, &mut Prng::new(14));
    let trainer = DtdbdTrainer::new(DistillConfig {
        epochs,
        batch_size: BATCH,
        seed,
        ..DistillConfig::default()
    });
    trainer.distill(
        &mut student,
        &mut store,
        &t.clean,
        &mut t.clean_store,
        t.unbiased.base(),
        &mut t.unbiased_store,
        &split.train,
        &split.val,
    )
}

/// The bits a repeated call must reproduce.
fn fingerprint(r: &DistillReport) -> Vec<u64> {
    let mut v: Vec<u64> = r
        .epoch_losses
        .iter()
        .map(|l| u64::from(l.to_bits()))
        .collect();
    v.extend(r.val_f1.iter().map(|f| f.to_bits()));
    v.extend(r.val_total.iter().map(|f| f.to_bits()));
    v.extend(
        r.weight_history
            .iter()
            .flat_map(|(a, d)| [u64::from(a.to_bits()), u64::from(d.to_bits())]),
    );
    v
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let (split, cfg) = corpus(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut trained = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let t = teachers(&split, &cfg, TEACHER_EPOCHS);
        setups.push(t0.elapsed());
        trained = Some(t);
    }
    let mut t = trained.expect("at least one set-up");

    let tracer = Tracer::new(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let slices: Vec<bool> = if args.trace {
        vec![false, true, false, true]
    } else {
        vec![false]
    };
    let slice_len = budget.mul_f64(if args.trace { 0.5 } else { 1.0 } / slices.len() as f64);
    let mut epoch_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut elapsed = [0f64; 2];
    let mut first: Option<(Vec<u64>, DistillReport)> = None;
    let mut calls = 0u64;
    let mut diverged = 0u64;
    for &traced in &slices {
        let t0 = Instant::now();
        // At least one call per slice, however short the budget.
        while epoch_ms[usize::from(traced)].is_empty() || t0.elapsed() < slice_len {
            let started = Instant::now();
            let report = if traced {
                tracer.span("core.distill", None, calls, || {
                    distill_once(&split, &cfg, &mut t, EPOCHS, args.seed)
                })
            } else {
                distill_once(&split, &cfg, &mut t, EPOCHS, args.seed)
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            epoch_ms[usize::from(traced)].push(ms / EPOCHS as f64);
            calls += 1;
            let print = fingerprint(&report);
            match &first {
                None => first = Some((print, report)),
                Some((want, _)) if *want != print => diverged += 1,
                Some(_) => {}
            }
        }
        elapsed[usize::from(traced)] += t0.elapsed().as_secs_f64();
    }
    let (_, report) = first.expect("at least one call");
    outcome.check(diverged == 0, || {
        format!("{diverged} of {calls} distill calls did not reproduce the first bit for bit")
    });
    let finite = report.epoch_losses.iter().all(|l| l.is_finite())
        && report
            .val_f1
            .iter()
            .chain(&report.val_total)
            .all(|v| v.is_finite());
    outcome.check(finite, || "non-finite loss or validation metric".into());
    let examples = split.train.len() as u64 * EPOCHS as u64;
    outcome.attempted = calls * examples;
    outcome.failed = diverged * examples;

    outcome.note("precision", "fp32 training");
    outcome.note(
        "loop",
        format!(
            "closed, {EPOCHS}-epoch distill calls on {} train / {} val examples, batch {BATCH}",
            split.train.len(),
            split.val.len()
        ),
    );
    outcome.note(
        "teachers",
        format!("M3FEND + DAT-IE TextCNN-S, {TEACHER_EPOCHS} epochs each"),
    );
    outcome.note("setup_reps", SETUP_REPS);
    outcome.note("epoch_losses", format!("{:?}", report.epoch_losses));
    outcome.note("weight_history", format!("{:?}", report.weight_history));
    let untraced = &epoch_ms[0];
    let d = &mut outcome.detail;
    put(
        d,
        "val_macro_f1",
        *report.val_f1.last().expect("epochs > 0"),
        "ratio",
    );
    put(
        d,
        "val_bias_total",
        *report.val_total.last().expect("epochs > 0"),
        "ratio",
    );
    if !args.trace {
        crate::common::put_latency(
            &mut outcome,
            std::slice::from_ref(untraced),
            TAIL_Q,
            usize::MAX,
        );
        let m = &mut outcome.metrics;
        put(m, "setup_s", crate::common::median_s(&setups), "s");
        // Examples of one epoch over the median epoch time, so a stalled
        // stretch of the run moves it no more than it moves `p50_ms`.
        let epoch_s = median(untraced) / 1e3;
        put(m, "items_per_s", split.train.len() as f64 / epoch_s, "1/s");
        // The resident set after a call swings by ~10% from run to run
        // (freed graph tapes go back to the system on some runs and not
        // others); the peak is the training footprint and repeats.
        put(m, "rss_mib", crate::stats::peak_rss_mib(), "MiB");
        return outcome;
    }
    let calls_per_s = |k: usize| epoch_ms[k].len() as f64 / elapsed[k];
    let p50 = [median(&epoch_ms[0]), median(&epoch_ms[1])];
    let m = &mut outcome.metrics;
    put(
        m,
        "trace.overhead_pct.p50_ms",
        100.0 * (p50[1] - p50[0]) / p50[0],
        "%",
    );
    put(
        m,
        "trace.overhead_pct.items_per_s",
        100.0 * (calls_per_s(0) - calls_per_s(1)) / calls_per_s(0),
        "%",
    );
    crate::trace::write_spans(&mut outcome, &tracer, args);
    outcome
}
