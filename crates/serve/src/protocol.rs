//! Line-delimited JSON wire protocol for the resident selection service.
//!
//! Each request is one JSON object per line; each response is one JSON
//! object per line, correlated by the client-chosen `id`. Response
//! envelopes are assembled by hand from a serialized result payload so a
//! cache hit can replay the stored payload **byte-identically** — the
//! envelope never re-serializes a result it did not compute.
//!
//! Framing rule: every line goes out through [`write_line`] — line and
//! terminator in one write — on a `TCP_NODELAY` socket, in both
//! directions. A line sent as two writes (payload, then `"\n"`) leaves
//! the newline to Nagle's algorithm, which holds it until the peer ACKs
//! the payload, and the peer delays that ACK by up to 40 ms, so each
//! round trip would wait on the delayed-ACK timer.

use std::io::{self, Write};

use serde::{Deserialize, Serialize};
use tps_core::pipeline::{OfflineArtifacts, PipelineOutcome};
use tps_zoo::World;

/// One client request. All fields are optional on the wire (`op` defaults
/// to `"select"`), so the minimal useful request is
/// `{"id":1,"target":"mnli"}`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    #[serde(default)]
    pub id: u64,
    /// `"select"` (or empty), `"ping"`, `"stats"`, `"metrics"`, or
    /// `"shutdown"`.
    #[serde(default)]
    pub op: String,
    /// Target dataset, by name or by decimal index.
    #[serde(default)]
    pub target: Option<String>,
    /// Recall size `K`; server default when absent.
    #[serde(default)]
    pub top_k: Option<usize>,
    /// Fine-selection prediction-gap threshold; server default when absent.
    #[serde(default)]
    pub threshold: Option<f64>,
    /// Total fine-tuning stages `T`; the world's stage count when absent.
    #[serde(default)]
    pub stages: Option<usize>,
    /// Wall-clock deadline measured from admission. Expired before
    /// execution → a `deadline_exceeded` rejection; overrun after a
    /// completed selection → a violation noted in the `ok` response.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Per-request epoch-equivalent budget, enforced through the budget
    /// engine against the run's `EpochLedger`; overruns are surfaced as
    /// violations in the response, never dropped results.
    #[serde(default)]
    pub max_epochs: Option<f64>,
    /// Scripted fault schedule in `FaultPlan` text form.
    #[serde(default)]
    pub fault_plan: Option<String>,
    /// Seed for a generated fault schedule (exclusive with `fault_plan`).
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Deterministic worker think-time before execution — load-test only.
    #[serde(default)]
    pub hold_ms: Option<u64>,
}

impl Request {
    /// A plain selection request for `target` with server-default config.
    pub fn select(id: u64, target: &str) -> Self {
        Request {
            id,
            target: Some(target.to_string()),
            ..Request::default()
        }
    }

    /// A control request (`"ping"`, `"stats"`, `"shutdown"`).
    pub fn control(id: u64, op: &str) -> Self {
        Request {
            id,
            op: op.to_string(),
            ..Request::default()
        }
    }
}

/// The payload inside an `ok` envelope for a selection request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectionResult {
    /// Target dataset name.
    pub target: String,
    /// Winning model's name.
    pub winner: String,
    /// The full pipeline outcome — identical to what a one-shot
    /// `two_phase_select` of the same request would produce.
    pub outcome: PipelineOutcome,
}

impl SelectionResult {
    /// Assemble the response payload for a finished selection.
    pub fn new(
        world: &World,
        artifacts: &OfflineArtifacts,
        target: usize,
        outcome: PipelineOutcome,
    ) -> Self {
        SelectionResult {
            target: world.targets[target].name.clone(),
            winner: artifacts
                .matrix
                .model_name(outcome.selection.winner)
                .to_string(),
            outcome,
        }
    }
}

/// Canonical fingerprint of a selection request — the result-cache key.
/// Covers everything the outcome depends on (artifact generation, target,
/// recall size, threshold, stage count, fault schedule) and deliberately
/// excludes everything it does not (thread count, deadlines, epoch
/// budgets), so e.g. a 4-thread request can be served from a 1-thread
/// request's cache entry byte-identically. Folding the generation in
/// invalidates the whole cache at every hot-swap — a deliberate
/// cache-compat break versus the pre-generation key format.
pub fn fingerprint(
    generation: u64,
    target: usize,
    top_k: usize,
    threshold: f64,
    stages: usize,
    fault_plan_text: &str,
) -> String {
    format!("g{generation}.t{target}.k{top_k}.th{threshold:?}.s{stages}.faults[{fault_plan_text}]")
}

/// Assemble a success envelope around an already-serialized result
/// payload. `violations` (deadline/budget overruns) and the serving
/// `generation` are appended after the result so the result bytes stay a
/// verbatim substring.
pub fn ok_envelope(id: u64, result_json: &str, violations: &[String], generation: u64) -> String {
    let mut line = format!("{{\"id\":{id},\"status\":\"ok\",\"result\":{result_json}");
    if !violations.is_empty() {
        line.push_str(",\"violations\":[");
        for (i, v) in violations.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&json_string(v));
        }
        line.push(']');
    }
    line.push_str(&format!(",\"generation\":{generation}"));
    line.push('}');
    line
}

/// Assemble a structured rejection/error envelope (`status` is one of
/// `overloaded`, `draining`, `deadline_exceeded`, `error`).
pub fn error_envelope(id: u64, status: &str, detail: &str) -> String {
    format!(
        "{{\"id\":{id},\"status\":{},\"error\":{}}}",
        json_string(status),
        json_string(detail)
    )
}

/// The `status` field of a response line, without a full JSON parse.
pub fn status_of(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let rest = rest[digits..].strip_prefix(",\"status\":\"")?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// The raw result payload of an `ok` response line — exactly the bytes the
/// server embedded, with the `generation` and `violations` tails stripped.
/// `None` for non-`ok` lines.
pub fn extract_result(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let rest = rest[digits..].strip_prefix(",\"status\":\"ok\",\"result\":")?;
    let mut rest = rest.strip_suffix('}')?;
    if let Some(i) = rest.rfind(",\"generation\":") {
        let tail = &rest[i + ",\"generation\":".len()..];
        if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
            rest = &rest[..i];
        }
    }
    match rest.rfind(",\"violations\":[") {
        Some(i) if rest.ends_with(']') => Some(&rest[..i]),
        _ => Some(rest),
    }
}

/// Assemble the result payload of a `metrics` response: the OpenMetrics
/// exposition text as one JSON string field, so the scrape rides the same
/// `ok` envelope as every other op.
pub fn exposition_result(text: &str) -> String {
    format!("{{\"exposition\":{}}}", json_string(text))
}

/// Decode the exposition text out of a `metrics` response line (`None`
/// for any other line shape).
pub fn extract_exposition(line: &str) -> Option<String> {
    let v: serde_json::Value = serde_json::from_str(line).ok()?;
    v.get("result")?
        .get("exposition")?
        .as_str()
        .map(str::to_string)
}

/// The `generation` field of an `ok` response line, if present.
pub fn generation_of(line: &str) -> Option<u64> {
    let rest = line.strip_suffix('}')?;
    let i = rest.rfind(",\"generation\":")?;
    rest[i + ",\"generation\":".len()..].parse().ok()
}

/// Send one protocol line: `line` and its `'\n'` terminator framed into
/// one buffer and handed to a single `write_all`, then flushed.
pub fn write_line<W: Write>(w: &mut W, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)?;
    w.flush()
}

/// Minimal JSON string encoder for envelope and access-log fields.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_defaults() {
        let req: Request = serde_json::from_str(r#"{"id":7,"target":"mnli"}"#).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.op, "");
        assert_eq!(req.target.as_deref(), Some("mnli"));
        assert_eq!(req.top_k, None);
        let back: Request = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn envelopes_parse_and_extract() {
        let line = ok_envelope(3, r#"{"winner":"m1"}"#, &[], 1);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        assert_eq!(v.get("generation").and_then(|g| g.as_u64()), Some(1));
        assert_eq!(status_of(&line), Some("ok"));
        assert_eq!(extract_result(&line), Some(r#"{"winner":"m1"}"#));
        assert_eq!(generation_of(&line), Some(1));

        let with_violations = ok_envelope(3, r#"{"winner":"m1"}"#, &["over budget".into()], 7);
        let v: serde_json::Value = serde_json::from_str(&with_violations).unwrap();
        assert!(v.get("violations").is_some());
        assert_eq!(extract_result(&with_violations), Some(r#"{"winner":"m1"}"#));
        assert_eq!(generation_of(&with_violations), Some(7));

        // A result whose own JSON ends in a generation-like field must
        // survive the tail strip (the envelope's field is the outermost).
        let tricky = ok_envelope(4, r#"{"note":"x","generation":99}"#, &[], 2);
        assert_eq!(
            extract_result(&tricky),
            Some(r#"{"note":"x","generation":99}"#)
        );

        let err = error_envelope(9, "overloaded", "queue full");
        let v: serde_json::Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("overloaded"));
        assert_eq!(status_of(&err), Some("overloaded"));
        assert_eq!(extract_result(&err), None);
        assert_eq!(generation_of(&err), None);
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_line_and_newline_in_one_write() {
        let mut w = CountingWriter::default();
        write_line(&mut w, r#"{"op":"ping"}"#).unwrap();
        assert_eq!(w.writes, vec![b"{\"op\":\"ping\"}\n".to_vec()]);
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        let v: serde_json::Value =
            serde_json::from_str(&error_envelope(1, "error", "line1\nline2\t\"x\"")).unwrap();
        assert_eq!(
            v.get("error").and_then(|s| s.as_str()),
            Some("line1\nline2\t\"x\"")
        );
    }

    #[test]
    fn exposition_round_trips_through_the_envelope() {
        let text = "# TYPE tps_serve_requests counter\ntps_serve_requests_total 3\n# EOF\n";
        let line = ok_envelope(5, &exposition_result(text), &[], 2);
        assert_eq!(status_of(&line), Some("ok"));
        assert_eq!(generation_of(&line), Some(2));
        assert_eq!(extract_exposition(&line).as_deref(), Some(text));
        assert_eq!(extract_exposition("{\"id\":1,\"status\":\"ok\"}"), None);
    }

    #[test]
    fn fingerprint_separates_what_matters() {
        let base = fingerprint(1, 0, 10, 0.0, 5, "");
        assert_ne!(
            base,
            fingerprint(2, 0, 10, 0.0, 5, ""),
            "generation invalidates"
        );
        assert_ne!(base, fingerprint(1, 1, 10, 0.0, 5, ""));
        assert_ne!(base, fingerprint(1, 0, 8, 0.0, 5, ""));
        assert_ne!(base, fingerprint(1, 0, 10, 0.05, 5, ""));
        assert_ne!(base, fingerprint(1, 0, 10, 0.0, 4, ""));
        assert_ne!(
            base,
            fingerprint(1, 0, 10, 0.0, 5, "advance m1 0 transient\n")
        );
        assert_eq!(base, fingerprint(1, 0, 10, 0.0, 5, ""));
    }
}
