//! Open-loop load generation against a running server.
//!
//! Closed-loop clients (send, wait, send) measure the server at whatever
//! rate the server itself sets — latency under load is invisible. The
//! open-loop generator instead fixes an *arrival schedule* up front:
//! request `n` is due at `t0 + n · interval`, whether or not earlier
//! responses have arrived, and its latency is measured from that scheduled
//! arrival — so sender slip (the generator falling behind) is charged to
//! the server, as an open-loop harness must.
//!
//! The schedule is deterministic and Poisson-free: fixed inter-arrival
//! gap, and the target of request `n` is chosen by
//! `split_seed(seed, n) % targets.len()` — the same SplitMix64 mix the
//! parallel layer uses — so two runs with the same plan issue the
//! byte-identical request sequence. Requests round-robin across `conns`
//! pipelined connections; every latency sample is kept, and the reported
//! percentiles are nearest-rank over the raw samples — each one a
//! measured latency, so p50 ≤ p95 ≤ p99 ≤ max always holds.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tps_core::parallel::split_seed;

use crate::protocol::{self, Request};

/// One deterministic open-loop schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenPlan {
    /// Total requests to issue.
    pub requests: usize,
    /// Fixed inter-arrival gap in microseconds.
    pub interval_us: u64,
    /// Pipelined connections; request `n` rides connection `n % conns`.
    pub conns: usize,
    /// Seed for the target mix.
    pub seed: u64,
    /// Target datasets cycled through by seeded choice.
    pub targets: Vec<String>,
    /// Recall size sent with every request (`None` → server default).
    pub top_k: Option<usize>,
}

impl Default for LoadgenPlan {
    fn default() -> Self {
        LoadgenPlan {
            requests: 1_000,
            interval_us: 1_000,
            conns: 4,
            seed: 0,
            targets: Vec::new(),
            top_k: None,
        }
    }
}

impl LoadgenPlan {
    /// Target of request `n` — pure in `(seed, n, targets)`.
    pub fn target_of(&self, n: usize) -> &str {
        &self.targets[(split_seed(self.seed, n as u64) % self.targets.len() as u64) as usize]
    }
}

/// What one open-loop run measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Requests issued.
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `overloaded` rejections.
    pub overloaded: u64,
    /// Everything else (errors, severed connections).
    pub errors: u64,
    /// Wall-clock from first scheduled arrival to last response.
    pub elapsed_us: u64,
    /// Nearest-rank latency percentiles over every answered request,
    /// measured from each request's *scheduled* arrival.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest single request.
    pub max_us: u64,
}

#[derive(Deserialize)]
struct Envelope {
    #[serde(default)]
    id: u64,
    #[serde(default)]
    status: String,
}

/// Drive `addr` with the plan's schedule and collect the report.
///
/// One sender paces the schedule over the pipelined connections; one
/// receiver per connection matches responses to scheduled arrivals by
/// envelope id. The call returns after every issued request is accounted
/// for (answered, or charged as an error when a connection dies).
pub fn run_open_loop(addr: &str, plan: &LoadgenPlan) -> io::Result<LoadgenReport> {
    if plan.requests == 0 || plan.conns == 0 || plan.targets.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "loadgen needs requests >= 1, conns >= 1, and at least one target",
        ));
    }
    let streams: Vec<TcpStream> = (0..plan.conns)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<io::Result<_>>()?;
    let writers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<_>>()?;

    let samples = Mutex::new(Vec::new());
    let ok = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let errors = AtomicU64::new(0);

    // Per-connection request counts: connection c carries requests
    // c, c+conns, c+2·conns, …
    let per_conn: Vec<usize> = (0..plan.conns)
        .map(|c| (plan.requests + plan.conns - 1 - c) / plan.conns)
        .collect();

    let t0 = Instant::now();
    std::thread::scope(|s| -> io::Result<()> {
        for (c, stream) in streams.into_iter().enumerate() {
            let expected = per_conn[c];
            let samples = &samples;
            let (ok, overloaded, errors) = (&ok, &overloaded, &errors);
            let interval_us = plan.interval_us;
            s.spawn(move || {
                let mut reader = BufReader::new(stream);
                let mut received = 0usize;
                let mut line = String::new();
                while received < expected {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let env = match serde_json::from_str::<Envelope>(line.trim()) {
                        Ok(env) if env.id >= 1 => env,
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            received += 1;
                            continue;
                        }
                    };
                    // Latency from the *scheduled* arrival of request
                    // id-1, open-loop style: sender slip counts.
                    let n = env.id - 1;
                    let sched = Duration::from_micros(n.saturating_mul(interval_us));
                    let latency_us = t0.elapsed().saturating_sub(sched).as_micros() as u64;
                    samples
                        .lock()
                        .expect("no receiver panics holding the sample lock")
                        .push(latency_us);
                    match env.status.as_str() {
                        "ok" => ok.fetch_add(1, Ordering::Relaxed),
                        "overloaded" => overloaded.fetch_add(1, Ordering::Relaxed),
                        _ => errors.fetch_add(1, Ordering::Relaxed),
                    };
                    received += 1;
                }
                // A dead connection answers its remainder as errors so
                // the accounting identity (ok + overloaded + errors ==
                // requests) always closes.
                if received < expected {
                    errors.fetch_add((expected - received) as u64, Ordering::Relaxed);
                }
            });
        }

        // The sender runs inline: pace the deterministic schedule.
        let mut writers = writers;
        for n in 0..plan.requests {
            let sched = Duration::from_micros((n as u64).saturating_mul(plan.interval_us));
            while t0.elapsed() < sched {
                let remaining = sched - t0.elapsed();
                std::thread::sleep(remaining.min(Duration::from_millis(1)));
            }
            let req = Request {
                top_k: plan.top_k,
                ..Request::select(n as u64 + 1, plan.target_of(n))
            };
            let line = serde_json::to_string(&req)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let w = &mut writers[n % plan.conns];
            // A severed connection is tolerated: its receiver charges the
            // unanswered remainder as errors.
            let _ = protocol::write_line(w, &line);
        }
        Ok(())
    })?;

    let elapsed_us = t0.elapsed().as_micros() as u64;
    let mut samples = samples
        .into_inner()
        .expect("no receiver panics holding the sample lock");
    samples.sort_unstable();
    Ok(LoadgenReport {
        requests: plan.requests as u64,
        ok: ok.into_inner(),
        overloaded: overloaded.into_inner(),
        errors: errors.into_inner(),
        elapsed_us,
        p50_us: nearest_rank(&samples, 50),
        p95_us: nearest_rank(&samples, 95),
        p99_us: nearest_rank(&samples, 99),
        max_us: samples.last().copied().unwrap_or(0),
    })
}

/// Nearest-rank `pct`-th percentile (1..=100) of ascending `sorted`: the
/// sample at 1-based rank ⌈pct·n/100⌉. Always a recorded sample, so never
/// above the maximum; 0 for an empty set.
pub fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples_in_order() {
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&sorted, 50), 100);
        assert_eq!(nearest_rank(&sorted, 95), 190);
        assert_eq!(nearest_rank(&sorted, 99), 198);
        assert_eq!(nearest_rank(&sorted, 100), 200);
        assert_eq!(nearest_rank(&[7], 50), 7);
        assert_eq!(nearest_rank(&[], 99), 0);
    }

    #[test]
    fn percentiles_are_ordered_and_never_above_max() {
        // A long-tailed set, read at every prefix length.
        let mut sorted: Vec<u64> = (0..400u64).map(|i| 900 + (i * i) % 44_000).collect();
        sorted.sort_unstable();
        for n in 1..=sorted.len() {
            let s = &sorted[..n];
            let (p50, p95, p99) = (
                nearest_rank(s, 50),
                nearest_rank(s, 95),
                nearest_rank(s, 99),
            );
            let max = *s.last().unwrap();
            assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "n={n}");
            assert!(s.contains(&p50) && s.contains(&p95) && s.contains(&p99));
        }
    }
}
