//! In-memory span recorder for the traced run.
//!
//! A span is the benchmark's own call into one public function of the
//! program (`HttpClient::post`, `PredictServer::submit`, `json::parse`, ...):
//! name, start, end, parent span and request id. Spans stay in memory while
//! the workload runs and are written out as JSON lines at the end, so the
//! recorder does no I/O on the measured path. A disabled recorder reads no
//! clock and stores nothing.

use crate::common::{put, Outcome};
use crate::stats::median;
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// Id to pass as the parent of nested spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn begin(&self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                request,
                name,
                start: None,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name,
            start: Some(Instant::now()),
        }
    }

    pub fn end(&self, open: Open) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(record);
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Per-name totals: span count, mean duration and mean self time (duration
/// minus the time covered by the span's children), in microseconds.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub count: u64,
    pub mean_us: f64,
    pub mean_self_us: f64,
}

pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, SelfTime> {
    // Children of one span run sequentially on the caller's thread, so
    // their covered time is the sum of their durations (clipped to the
    // parent's interval).
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            *child_ns.entry(parent.id).or_default() += hi.saturating_sub(lo);
        }
    }
    let mut sums: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur as f64 / 1e3;
        e.2 += own as f64 / 1e3;
    }
    sums.into_iter()
        .map(|(name, (n, dur, own))| {
            (
                name,
                SelfTime {
                    count: n,
                    mean_us: dur / n as f64,
                    mean_self_us: own / n as f64,
                },
            )
        })
        .collect()
}

/// Write spans as JSON lines: `{"id","parent","request","name","start_ns","end_ns"}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Tracing overhead: the traced slices' latency samples and throughput
/// against the interleaved untraced ones (index 0 untraced, 1 traced).
pub fn overhead(outcome: &mut Outcome, samples: &[Vec<f64>; 2], elapsed: [f64; 2]) {
    let p50 = [median(&samples[0]), median(&samples[1])];
    let rate = [
        samples[0].len() as f64 / elapsed[0],
        samples[1].len() as f64 / elapsed[1],
    ];
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
        100.0 * (rate[0] - rate[1]) / rate[0],
        "%",
    );
}

/// Write the spans under `perfbench/out/spans/`, note the per-name self
/// times, and report the span count and the root request span's self time.
pub fn write_spans(outcome: &mut Outcome, tracer: &Tracer, args: &Args) {
    let spans = tracer.take();
    let dir = crate::fixtures::out_dir().join("spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| write_jsonl(&path, &spans)) {
        Ok(()) => outcome.note(
            "spans_file",
            format!(
                "perfbench/out/spans/{}-seed{}.jsonl",
                args.workload, args.seed
            ),
        ),
        Err(e) => outcome.problems.push(format!("writing spans: {e}")),
    }
    let table = self_times(&spans);
    for (name, t) in &table {
        outcome.note(
            &format!("self_time.{name}"),
            format!(
                "count={} mean_us={:.2} self_us={:.2}",
                t.count, t.mean_us, t.mean_self_us
            ),
        );
    }
    let root = table
        .get("request")
        .or_else(|| table.get("request.inproc"))
        .map_or(0.0, |t| t.mean_self_us);
    let m = &mut outcome.metrics;
    put(m, "trace.spans", spans.len() as f64, "count");
    put(m, "trace.self_us.request", root, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                request: 7,
                name: "request",
                start_ns: 0,
                end_ns: 10_000,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                request: 7,
                name: "http.post",
                start_ns: 1_000,
                end_ns: 8_000,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].mean_self_us, 3.0);
        assert_eq!(t["http.post"].mean_self_us, 7.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", None, 0, || ());
        assert!(t.take().is_empty());
    }
}
