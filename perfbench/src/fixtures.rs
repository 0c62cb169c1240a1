//! Inputs and model fixtures.
//!
//! Request streams come from the run's `--seed` (the same seed gives the
//! same requests). The served models are fixtures: a TextCNN-S student and
//! an EDDFN trained once from a fixed seed and cached as checkpoint files
//! under `perfbench/out/fixtures/`, so every run serves the same weights
//! and fixture training never counts toward a run's `setup_s`.

use dtdbd_core::{train_model, TrainConfig};
use dtdbd_data::{
    weibo21_spec, GeneratorConfig, InferenceRequest, MultiDomainDataset, NewsGenerator,
};
use dtdbd_models::{Eddfn, FakeNewsModel, ModelConfig, TextCnnModel};
use dtdbd_serve::{json, Checkpoint};
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Seed of the corpus the fixture checkpoints are trained on. Fixed, so the
/// weights never depend on the run's `--seed`.
const FIXTURE_SEED: u64 = 0xF1C5;
/// Share of the full Weibo21-like corpus the fixtures train on.
const FIXTURE_SCALE: f64 = 0.12;

/// Directory for everything a run writes: fixtures, span files, results.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn generator() -> NewsGenerator {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::default())
}

/// A seeded corpus scaled to `fraction` of the full spec.
pub fn corpus(seed: u64, fraction: f64) -> MultiDomainDataset {
    generator().generate_scaled(seed, fraction)
}

/// `n` pairwise-distinct requests: the first `n` of [`DistinctRequests`].
pub fn distinct_requests(seed: u64, n: usize) -> Vec<InferenceRequest> {
    DistinctRequests::new(seed).take(n).collect()
}

/// An endless stream of pairwise-distinct requests drawn from corpora
/// generated from `seed` and seeds derived from it, one corpus at a time, so
/// a run can never exhaust it. The same seed gives the same stream.
pub struct DistinctRequests {
    gen: NewsGenerator,
    seed: u64,
    round: u64,
    buffer: std::vec::IntoIter<InferenceRequest>,
    /// Hashes of the rendered bodies seen so far. A hash collision skips a
    /// request that was in fact new, which keeps the stream distinct.
    seen: HashSet<u64>,
}

impl DistinctRequests {
    pub fn new(seed: u64) -> Self {
        Self {
            gen: generator(),
            seed,
            round: 0,
            buffer: Vec::new().into_iter(),
            seen: HashSet::new(),
        }
    }
}

impl Iterator for DistinctRequests {
    type Item = InferenceRequest;

    fn next(&mut self) -> Option<InferenceRequest> {
        loop {
            for request in self.buffer.by_ref() {
                let mut h = DefaultHasher::new();
                json::encode_request(&request).render().hash(&mut h);
                if self.seen.insert(h.finish()) {
                    return Some(request);
                }
            }
            let ds = self.gen.generate(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.round),
            );
            self.round += 1;
            let batch: Vec<InferenceRequest> = ds
                .items()
                .iter()
                .map(|item| InferenceRequest {
                    tokens: item.tokens.clone(),
                    domain: item.domain,
                    style: Some(item.style.clone()),
                    emotion: Some(item.emotion.clone()),
                })
                .collect();
            self.buffer = batch.into_iter();
        }
    }
}

pub struct Fixtures {
    pub student: PathBuf,
    pub eddfn: PathBuf,
}

/// Paths of the cached fixture checkpoints, training and writing any that
/// are missing or unreadable.
pub fn ensure() -> Fixtures {
    let dir = out_dir().join("fixtures");
    std::fs::create_dir_all(&dir).expect("create perfbench/out/fixtures");
    let student = dir.join("textcnn-s.dtdbd");
    let eddfn = dir.join("eddfn.dtdbd");
    if Checkpoint::load(&student).is_err() || Checkpoint::load(&eddfn).is_err() {
        eprintln!("[perfbench] training fixture checkpoints (once per checkout)...");
        let ds = corpus(FIXTURE_SEED, FIXTURE_SCALE);
        let split = ds.split(0.7, 0.1, FIXTURE_SEED);
        let cfg = ModelConfig::for_dataset(&split.train);
        let tc = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let mut store = ParamStore::new();
        let mut model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(1));
        train_model(&mut model, &mut store, &split.train, &tc);
        save_atomically(&model, &store, &student);
        let mut store = ParamStore::new();
        let mut model = Eddfn::with_dat(&mut store, &cfg, &mut Prng::new(2));
        train_model(&mut model, &mut store, &split.train, &tc);
        save_atomically(&model, &store, &eddfn);
    }
    Fixtures { student, eddfn }
}

fn save_atomically<M: FakeNewsModel>(model: &M, store: &ParamStore, path: &Path) {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    Checkpoint::capture(model, store)
        .save(&tmp)
        .expect("write fixture checkpoint");
    std::fs::rename(&tmp, path).expect("publish fixture checkpoint");
}
