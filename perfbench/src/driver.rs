//! Exact open-loop driver. Requests are due on a fixed, seeded schedule
//! (see [`schedule`]) whatever the replies do; each request's latency runs
//! from when it was *due*, so a stall also charges the requests queued
//! behind it. Each request line goes out in one write on a `TCP_NODELAY`
//! socket, so the client adds no delay of its own.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats;
use crate::streams::Rng;

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Overloaded,
    Error,
    /// No reply before the phase's drain deadline.
    Missing,
}

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Sample {
    pub id: u64,
    /// Scheduled send time, µs after the phase start.
    pub due_us: f64,
    /// How late the send actually went out, µs.
    pub lag_us: f64,
    /// Reply arrival minus due time, µs (`None` when missing).
    pub latency_us: Option<f64>,
    pub status: Status,
    /// The reply's `result` payload, kept for output checks.
    pub result: Option<String>,
}

/// Every request of one phase at one rate, ordered by due time.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub rate: f64,
    /// When request 0 was due.
    pub start: Instant,
    pub samples: Vec<Sample>,
}

impl PhaseReport {
    pub fn count(&self, status: Status) -> usize {
        self.samples.iter().filter(|s| s.status == status).count()
    }

    /// Ascending latencies (ms) of every request; a failed or missing
    /// request counts as infinitely late, so it always misses a limit.
    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.samples
                .iter()
                .map(|s| match (s.status, s.latency_us) {
                    (Status::Ok, Some(us)) => us / 1000.0,
                    _ => f64::INFINITY,
                })
                .collect(),
        )
    }

    /// Ascending send lags (ms).
    pub fn lags_ms(&self) -> Vec<f64> {
        stats::sorted(self.samples.iter().map(|s| s.lag_us / 1000.0).collect())
    }
}

/// Parse the id of a reply line (`{"id":N,...`).
pub fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn classify(line: &str) -> Status {
    match tps_serve::protocol::status_of(line) {
        Some("ok") => Status::Ok,
        Some("overloaded") => Status::Overloaded,
        _ => Status::Error,
    }
}

/// Due times of `n` requests at `rate` req/s: request `i` is due at
/// `(i + u_i - 0.5) / rate` seconds (at least 0), `u_i` uniform in
/// `[0, 1)` from `seed`. The mean rate is `rate` and the order is kept,
/// but the gaps vary continuously, so a latency that ends at the next
/// send on its connection (as a reply held back by Nagle's algorithm
/// does) is not locked to whole multiples of one fixed gap.
pub fn schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0x5c4e_d01e);
    (0..n)
        .map(|i| Duration::from_secs_f64(((i as f64 + rng.unit() - 0.5) / rate).max(0.0)))
        .collect()
}

/// Run one open-loop phase: `requests[i]` (id, line) is due at
/// `schedule(n, rate, seed)[i]` after the start and goes out on connection
/// `i % conns`. Each connection has a sender thread, which sleeps until
/// each due time, and a reader thread. Replies still outstanding `drain`
/// after the last due time are missing.
pub fn run_phase(
    addr: SocketAddr,
    requests: &[(u64, String)],
    rate: f64,
    seed: u64,
    conns: usize,
    keep_results: bool,
    drain: Duration,
) -> std::io::Result<PhaseReport> {
    let conns = conns.clamp(1, requests.len().max(1));
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let start = Instant::now() + Duration::from_millis(20);
    let dues = schedule(requests.len(), rate, seed);
    let due = |i: usize| dues[i];
    let deadline = start + dues.last().copied().unwrap_or_default() + drain;
    let mut samples: Vec<Sample> = requests
        .iter()
        .enumerate()
        .map(|(i, (id, _))| Sample {
            id: *id,
            due_us: due(i).as_secs_f64() * 1e6,
            lag_us: 0.0,
            latency_us: None,
            status: Status::Missing,
            result: None,
        })
        .collect();
    let slot: HashMap<u64, usize> = samples.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    type Lags = Vec<(usize, f64)>;
    let parts: Vec<(std::io::Result<Lags>, std::io::Result<Replies>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                let write_half = stream.try_clone();
                let expected = mine.len();
                let slot = &slot;
                let sender = s.spawn(move || -> std::io::Result<Lags> {
                    let mut stream = write_half?;
                    let mut lags = Vec::with_capacity(mine.len());
                    for i in mine {
                        let at = start + due(i);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        stream.write_all(requests[i].1.as_bytes())?;
                        lags.push((i, (Instant::now() - at).as_secs_f64() * 1e6));
                    }
                    Ok(lags)
                });
                let reader = s.spawn(move || {
                    read_replies(stream, slot, expected, start, deadline, keep_results)
                });
                (sender, reader)
            })
            .collect();
        handles
            .into_iter()
            .map(|(sender, reader)| {
                (
                    sender.join().expect("driver sender thread panicked"),
                    reader.join().expect("driver reader thread panicked"),
                )
            })
            .collect()
    });
    for (lags, replies) in parts {
        for (i, lag) in lags? {
            samples[i].lag_us = lag;
        }
        for (i, status, arrived_us, result) in replies? {
            let sample = &mut samples[i];
            sample.status = status;
            sample.latency_us = Some(arrived_us - sample.due_us);
            sample.result = result;
        }
    }
    Ok(PhaseReport {
        rate,
        start,
        samples,
    })
}

/// Replies of one connection: (request index, status, arrival µs after
/// the phase start, `result` payload when kept).
type Replies = Vec<(usize, Status, f64, Option<String>)>;

/// Read reply lines until `expected` have arrived or `deadline` passes.
fn read_replies(
    mut stream: TcpStream,
    slot: &HashMap<u64, usize>,
    expected: usize,
    start: Instant,
    deadline: Instant,
    keep_results: bool,
) -> std::io::Result<Replies> {
    let mut out = Vec::with_capacity(expected);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while out.len() < expected {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        stream.set_read_timeout(Some(deadline - now))?;
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let arrived = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
            let Some(&i) = reply_id(&line).and_then(|id| slot.get(&id)) else {
                continue;
            };
            let status = classify(&line);
            let result = (keep_results && status == Status::Ok)
                .then(|| tps_serve::protocol::extract_result(&line).map(str::to_string))
                .flatten();
            out.push((
                i,
                status,
                arrived.saturating_duration_since(start).as_secs_f64() * 1e6,
                result,
            ));
        }
    }
    Ok(out)
}

/// Send one line and wait for its reply on a fresh connection; returns the
/// reply line and the round-trip time.
pub fn round_trip(addr: SocketAddr, line: &str) -> std::io::Result<(String, Duration)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let sent = Instant::now();
    stream.write_all(line.as_bytes())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1 << 14];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed before replying",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let elapsed = sent.elapsed();
            buf.truncate(pos);
            return Ok((String::from_utf8_lossy(&buf).into_owned(), elapsed));
        }
    }
}

/// Verdict on one rung of the rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub sent: usize,
    pub overloaded: usize,
    /// Requests over the latency limit, failed or missing.
    pub misses: usize,
    /// Median latency of the last quarter of the rung minus that of the
    /// first quarter, ms.
    pub backlog_growth_ms: f64,
    pub passed: bool,
}

/// Judge a rung: p99 within the limit (at most 1 % of the requests sent
/// miss it, counting failures as misses — the nearest-rank p99 of the raw
/// samples), nothing refused as overloaded, and no growing backlog (the
/// last quarter's median latency exceeds the first quarter's by less than
/// half the limit).
pub fn judge_rung(report: &PhaseReport, limit_ms: f64) -> Rung {
    let latencies = report.latencies_ms();
    let sent = latencies.len();
    let misses = latencies.iter().filter(|&&l| l > limit_ms).count();
    let overloaded = report.count(Status::Overloaded);
    let quarter = (sent / 4).max(1);
    let by_due: Vec<f64> = report
        .samples
        .iter()
        .map(|s| match (s.status, s.latency_us) {
            (Status::Ok, Some(us)) => us / 1000.0,
            _ => f64::INFINITY,
        })
        .collect();
    let growth = match (
        stats::median(&by_due[..quarter.min(sent)]),
        stats::median(&by_due[sent.saturating_sub(quarter)..]),
    ) {
        (Some(first), Some(last)) if first.is_finite() && last.is_finite() => last - first,
        (Some(_), Some(_)) => f64::INFINITY,
        _ => 0.0,
    };
    let p99_ok = stats::percentile(&latencies, 99.0).is_some_and(|p| p <= limit_ms);
    Rung {
        rate: report.rate,
        sent,
        overloaded,
        misses,
        backlog_growth_ms: growth,
        passed: sent > 0 && p99_ok && overloaded == 0 && growth < limit_ms / 2.0,
    }
}

/// The fixed rate ladder: `base · step^k` for `k in 0..n`, rounded to
/// 0.1 req/s.
pub fn ladder(base: f64, step: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| (base * step.powi(k as i32) * 10.0).round() / 10.0)
        .collect()
}

/// Sustained rate: search the ladder from rung `start`, whose verdict is
/// `first`. If it passed, bisect the rungs above it (treating the rung
/// past the top as failing), so a run probes about log2 of the ladder's
/// length; if it failed, descend until a rung passes. Returns the highest
/// rate that passed (`None` if none did) and every verdict in probe order.
pub fn walk(
    ladder: &[f64],
    start: usize,
    first: Rung,
    mut probe: impl FnMut(f64) -> std::io::Result<Rung>,
) -> std::io::Result<(Option<f64>, Vec<Rung>)> {
    let mut seen = vec![first];
    if seen[0].passed {
        let (mut lo, mut hi) = (start, ladder.len());
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let rung = probe(ladder[mid])?;
            if rung.passed {
                lo = mid;
            } else {
                hi = mid;
            }
            seen.push(rung);
        }
        return Ok((Some(ladder[lo]), seen));
    }
    for &rate in ladder[..start].iter().rev() {
        let rung = probe(rate)?;
        let passed = rung.passed;
        seen.push(rung);
        if passed {
            return Ok((Some(rate), seen));
        }
    }
    Ok((None, seen))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rate: f64, latencies_ms: &[Option<f64>], overloaded: usize) -> PhaseReport {
        let mut samples: Vec<Sample> = latencies_ms
            .iter()
            .enumerate()
            .map(|(i, l)| Sample {
                id: i as u64,
                due_us: i as f64 * 1e6 / rate,
                lag_us: 0.0,
                latency_us: l.map(|ms| ms * 1000.0),
                status: if l.is_some() {
                    Status::Ok
                } else {
                    Status::Missing
                },
                result: None,
            })
            .collect();
        for s in samples.iter_mut().take(overloaded) {
            s.status = Status::Overloaded;
        }
        PhaseReport {
            rate,
            start: Instant::now(),
            samples,
        }
    }

    #[test]
    fn reply_ids_parse() {
        assert_eq!(reply_id("{\"id\":42,\"status\":\"ok\"}"), Some(42));
        assert_eq!(reply_id("{\"status\":\"ok\"}"), None);
        assert_eq!(reply_id("garbage"), None);
    }

    #[test]
    fn rung_passes_with_one_percent_misses_and_fails_beyond() {
        let mut l: Vec<Option<f64>> = vec![Some(10.0); 1000];
        for x in l.iter_mut().step_by(100) {
            *x = Some(500.0);
        }
        let rung = judge_rung(&report(50.0, &l, 0), 100.0);
        assert_eq!(rung.misses, 10);
        assert!(rung.passed, "{rung:?}");
        l[1] = Some(101.0);
        let rung = judge_rung(&report(50.0, &l, 0), 100.0);
        assert_eq!(rung.misses, 11);
        assert!(!rung.passed);
    }

    #[test]
    fn failures_count_as_misses_and_overload_fails_the_rung() {
        let mut l: Vec<Option<f64>> = vec![Some(10.0); 200];
        l[5] = None;
        l[6] = None;
        assert!(
            judge_rung(&report(50.0, &l, 0), 100.0).passed,
            "2 of 200 is 1 %"
        );
        l[7] = None;
        let rung = judge_rung(&report(50.0, &l, 0), 100.0);
        assert_eq!(rung.misses, 3);
        assert!(!rung.passed, "3 of 200 is over 1 %");
        let rung = judge_rung(&report(50.0, &vec![Some(10.0); 200], 1), 100.0);
        assert_eq!(rung.overloaded, 1);
        assert!(!rung.passed);
    }

    #[test]
    fn growing_backlog_fails_the_rung() {
        // Latency climbing 0 → 96 ms across the rung: under the limit, but
        // the queue is growing.
        let climbing: Vec<Option<f64>> = (0..400).map(|i| Some(i as f64 * 0.24)).collect();
        let rung = judge_rung(&report(50.0, &climbing, 0), 100.0);
        assert!(rung.backlog_growth_ms > 50.0);
        assert!(!rung.passed);
        let flat: Vec<Option<f64>> = (0..400).map(|i| Some(20.0 + (i % 7) as f64)).collect();
        let rung = judge_rung(&report(50.0, &flat, 0), 100.0);
        assert!(rung.backlog_growth_ms.abs() < 5.0);
        assert!(rung.passed);
    }

    fn verdict(rate: f64, limit: f64) -> Rung {
        Rung {
            rate,
            sent: 1,
            overloaded: 0,
            misses: 0,
            backlog_growth_ms: 0.0,
            passed: rate < limit,
        }
    }

    #[test]
    fn ladder_is_geometric_and_the_search_finds_the_last_passing_rung() {
        let rungs = ladder(40.0, 1.25, 8);
        assert_eq!(rungs[..5], [40.0, 50.0, 62.5, 78.1, 97.7]);
        assert!(rungs.windows(2).all(|w| w[1] / w[0] <= 1.25 + 1e-3));
        let search = |limit: f64| {
            let mut probed = Vec::new();
            let (best, _) = walk(&rungs, 1, verdict(rungs[1], limit), |r| {
                probed.push(r);
                Ok(verdict(r, limit))
            })
            .unwrap();
            (best, probed)
        };
        // Bisects rungs 2..8 from the passing start rung.
        assert_eq!(search(70.0), (Some(62.5), vec![97.7, 62.5, 78.1]));
        for limit in [55.0, 63.0, 80.0, 100.0, 130.0, 200.0] {
            let want = rungs.iter().copied().rfind(|&r| r < limit);
            assert_eq!(search(limit).0, want, "limit {limit}");
        }
        assert_eq!(search(1e9).0, Some(*rungs.last().unwrap()));
        // The start rung fails: descend until one passes.
        assert_eq!(search(45.0), (Some(40.0), vec![40.0]));
        assert_eq!(search(10.0), (None, vec![40.0]));
    }

    #[test]
    fn schedule_is_seeded_ordered_and_keeps_the_mean_rate() {
        let rate = 50.0;
        let a = schedule(1000, rate, 3);
        assert_eq!(a, schedule(1000, rate, 3));
        assert_ne!(a, schedule(1000, rate, 4));
        let gap = 1.0 / rate;
        for (i, due) in a.iter().enumerate() {
            assert!((due.as_secs_f64() - i as f64 * gap).abs() <= gap / 2.0 + 1e-9);
        }
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - gap).abs() < gap * 0.01);
        assert!(gaps.iter().any(|&g| g < 0.5 * gap) && gaps.iter().any(|&g| g > 1.5 * gap));
    }
}
