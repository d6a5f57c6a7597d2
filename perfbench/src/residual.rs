//! Per-request latency split: the server's JSONL access log gives each
//! request's queue wait and execution time; matched to the client's
//! latency by request id, the rest is the residual (send lag, network,
//! read/parse, reply write).

use std::collections::HashMap;

use crate::driver::{PhaseReport, Status};

/// The fields of one access-log line the split needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    pub id: u64,
    pub queue_wait_us: f64,
    pub exec_us: f64,
    pub cache: String,
}

/// Parse an access log; lines that do not parse are returned as errors.
pub fn parse_log(text: &str) -> Result<Vec<Access>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v: serde_json::Value =
                serde_json::from_str(line).map_err(|e| format!("access log: {e}: {line}"))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("access log: no `{k}` in {line}"))
            };
            Ok(Access {
                id: num("id")? as u64,
                queue_wait_us: num("queue_wait_us")?,
                exec_us: num("exec_us")?,
                cache: v
                    .get("cache")
                    .and_then(|c| c.as_str())
                    .unwrap_or("")
                    .to_string(),
            })
        })
        .collect()
}

/// One answered request's latency split, ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    pub id: u64,
    pub latency_ms: f64,
    pub queue_ms: f64,
    pub exec_ms: f64,
    pub residual_ms: f64,
    pub cache: String,
}

/// Match every answered request of `report` to its access record by id.
/// Fails when a request has no record, a record is duplicated, or the
/// server-side time exceeds the client latency (the split cannot close).
pub fn split(report: &PhaseReport, log: &[Access]) -> Result<Vec<Split>, String> {
    let mut by_id: HashMap<u64, &Access> = HashMap::new();
    for a in log {
        if by_id.insert(a.id, a).is_some() {
            return Err(format!("access log has request {} twice", a.id));
        }
    }
    let mut out = Vec::new();
    for s in &report.samples {
        let (Status::Ok, Some(latency_us)) = (s.status, s.latency_us) else {
            continue;
        };
        let a = by_id
            .get(&s.id)
            .ok_or_else(|| format!("request {} has no access-log record", s.id))?;
        let residual_us = latency_us - a.queue_wait_us - a.exec_us;
        if residual_us < 0.0 {
            return Err(format!(
                "request {}: queue {} µs + exec {} µs exceed client latency {latency_us:.0} µs",
                s.id, a.queue_wait_us, a.exec_us
            ));
        }
        out.push(Split {
            id: s.id,
            latency_ms: latency_us / 1000.0,
            queue_ms: a.queue_wait_us / 1000.0,
            exec_ms: a.exec_us / 1000.0,
            residual_ms: residual_us / 1000.0,
            cache: a.cache.clone(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Sample;

    fn sample(id: u64, latency_ms: Option<f64>, status: Status) -> Sample {
        Sample {
            id,
            due_us: 0.0,
            lag_us: 0.0,
            latency_us: latency_ms.map(|l| l * 1000.0),
            status,
            result: None,
        }
    }

    fn phase(samples: Vec<Sample>) -> PhaseReport {
        PhaseReport {
            rate: 10.0,
            start: std::time::Instant::now(),
            samples,
        }
    }

    const LOG: &str = "{\"id\":2,\"fingerprint\":\"f\",\"generation\":1,\"queue_wait_us\":500,\"exec_us\":1500,\"cache\":\"miss\",\"status\":\"ok\",\"deadline\":\"none\",\"casualties\":0,\"epochs\":3}\n\
                       {\"id\":1,\"fingerprint\":\"f\",\"generation\":1,\"queue_wait_us\":100,\"exec_us\":200,\"cache\":\"hit\",\"status\":\"ok\",\"deadline\":\"none\",\"casualties\":0,\"epochs\":0}\n";

    #[test]
    fn residuals_match_by_id_not_order() {
        let log = parse_log(LOG).unwrap();
        let report = phase(vec![
            sample(1, Some(40.0), Status::Ok),
            sample(2, Some(10.0), Status::Ok),
            sample(3, None, Status::Overloaded),
        ]);
        let s = split(&report, &log).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].id, 1);
        assert!((s[0].residual_ms - 39.7).abs() < 1e-9);
        assert_eq!(s[0].cache, "hit");
        assert!((s[1].residual_ms - 8.0).abs() < 1e-9);
        for x in &s {
            let closed = x.queue_ms + x.exec_ms + x.residual_ms;
            assert!((closed - x.latency_ms).abs() < 1e-9);
        }
    }

    #[test]
    fn unmatched_or_impossible_requests_fail() {
        let log = parse_log(LOG).unwrap();
        let missing = phase(vec![sample(9, Some(5.0), Status::Ok)]);
        assert!(split(&missing, &log)
            .unwrap_err()
            .contains("no access-log record"));
        let too_fast = phase(vec![sample(2, Some(1.0), Status::Ok)]);
        assert!(split(&too_fast, &log).unwrap_err().contains("exceed"));
        let twice = [log[0].clone(), log[0].clone()];
        assert!(split(&phase(vec![]), &twice).unwrap_err().contains("twice"));
        assert!(parse_log("{\"id\":1}").is_err());
    }
}
