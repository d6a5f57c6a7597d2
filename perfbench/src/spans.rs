//! The benchmark's own spans (name, start, end, parent, request id),
//! recorded around the public calls it makes and kept in memory until the
//! run ends. A disabled tracer records nothing and costs one branch.
//!
//! [`TimedOracle`] and [`TimedTrainer`] wrap the zoo's substrate so the
//! in-process selections time every prediction synthesis, LEEP score and
//! training call without any tracing inside the program.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tps_core::error::Result;
use tps_core::ids::ModelId;
use tps_core::proxy::leep::leep;
use tps_core::proxy::PredictionMatrix;
use tps_core::traits::{ProxyOracle, TargetTrainer};
use tps_zoo::{ZooOracle, ZooTrainer};

/// One finished span; times are µs after the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    counts: Mutex<Vec<(&'static str, f64)>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span; `f` receives the span's id (for children).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, name, parent, request, start, Instant::now());
        out
    }

    /// Record a span whose bounds were measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, parent, request, start, end);
        }
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans
            .lock()
            .expect("span list lock is never poisoned")
            .push(SpanRec {
                id,
                parent,
                name,
                request,
                start_us: us(start),
                end_us: us(end),
            });
    }

    /// Record a count measured at a call boundary (e.g. per selection).
    pub fn record_count(&self, name: &'static str, value: f64) {
        if self.on {
            self.counts
                .lock()
                .expect("count list lock is never poisoned")
                .push((name, value));
        }
    }

    /// Every count recorded under `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .lock()
            .expect("count list lock is never poisoned")
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Durations (ms) of every span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock is never poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1000.0)
            .collect()
    }

    /// Total duration (s) of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1000.0
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock is never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.request),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()
    }
}

/// Proxy-evaluation accounting shared by every [`TimedOracle`] of a run.
#[derive(Default)]
pub struct ProxyTally {
    pub evals: AtomicU64,
    pub pairs: Mutex<BTreeSet<(usize, usize)>>,
}

impl ProxyTally {
    /// Distinct (target, model) pairs over proxy evaluations.
    pub fn unique_ratio(&self) -> f64 {
        let evals = self.evals.load(Ordering::Relaxed).max(1) as f64;
        self.pairs.lock().expect("pair set lock").len() as f64 / evals
    }
}

/// A [`ZooOracle`] that times each prediction synthesis and, when
/// tracing, the LEEP score of the result (a separate, timed call).
pub struct TimedOracle<'a> {
    inner: ZooOracle<'a>,
    target: usize,
    tracer: &'a Tracer,
    parent: Option<u64>,
    tally: &'a ProxyTally,
}

impl<'a> TimedOracle<'a> {
    pub fn new(
        inner: ZooOracle<'a>,
        target: usize,
        tracer: &'a Tracer,
        parent: Option<u64>,
        tally: &'a ProxyTally,
    ) -> Self {
        TimedOracle {
            inner,
            target,
            tracer,
            parent,
            tally,
        }
    }
}

impl ProxyOracle for TimedOracle<'_> {
    fn predictions(&self, model: ModelId) -> Result<PredictionMatrix> {
        if self.tracer.on() {
            self.tally.evals.fetch_add(1, Ordering::Relaxed);
            self.tally
                .pairs
                .lock()
                .expect("pair set lock")
                .insert((self.target, model.index()));
        }
        let predictions = self
            .tracer
            .span("zoo.predictions", self.parent, None, |_| {
                self.inner.predictions(model)
            })?;
        if self.tracer.on() {
            self.tracer.span("proxy.leep", self.parent, None, |_| {
                leep(
                    &predictions,
                    self.inner.target_labels(),
                    self.inner.n_target_labels(),
                )
            })?;
        }
        Ok(predictions)
    }

    fn target_labels(&self) -> &[usize] {
        self.inner.target_labels()
    }

    fn n_target_labels(&self) -> usize {
        self.inner.n_target_labels()
    }
}

/// A [`ZooTrainer`] that times each training call and counts the
/// model-stages it advances.
pub struct TimedTrainer<'a> {
    inner: ZooTrainer<'a>,
    tracer: &'a Tracer,
    parent: Option<u64>,
    pub advanced: usize,
}

impl<'a> TimedTrainer<'a> {
    pub fn new(inner: ZooTrainer<'a>, tracer: &'a Tracer, parent: Option<u64>) -> Self {
        TimedTrainer {
            inner,
            tracer,
            parent,
            advanced: 0,
        }
    }
}

impl TargetTrainer for TimedTrainer<'_> {
    fn advance(&mut self, model: ModelId) -> Result<f64> {
        self.advanced += 1;
        let inner = &mut self.inner;
        self.tracer
            .span("zoo.train", self.parent, None, |_| inner.advance(model))
    }

    fn test(&mut self, model: ModelId) -> Result<f64> {
        self.inner.test(model)
    }

    fn stages_trained(&self, model: ModelId) -> usize {
        self.inner.stages_trained(model)
    }

    fn epochs_per_stage(&self) -> f64 {
        self.inner.epochs_per_stage()
    }

    fn advance_many(&mut self, pool: &[ModelId], threads: usize) -> Result<Vec<f64>> {
        self.advanced += pool.len();
        let inner = &mut self.inner;
        self.tracer.span("zoo.train", self.parent, None, |_| {
            inner.advance_many(pool, threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, None, |id| id), None);
        assert!(t.durations_ms("x").is_empty());
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let t = Tracer::new(true);
        t.span("outer", None, Some(7), |outer| {
            t.span("inner", outer, Some(7), |_| ());
        });
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }
}
