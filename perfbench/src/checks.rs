//! Output checks. Each returns `Err` with the reason, and any failure
//! fails the run.

use std::collections::HashMap;

use tps_serve::ServeStats;

/// Every served `result` payload must equal, byte for byte, the
/// reference `serde_json` of `SelectionResult::new(…, two_phase_select(…))`
/// for its request key. Keys without a reference are not checked.
pub fn served_bytes<'a>(
    served: impl IntoIterator<Item = (&'a str, &'a str)>,
    reference: &HashMap<String, String>,
) -> Result<usize, String> {
    let mut checked = 0;
    for (key, bytes) in served {
        let Some(want) = reference.get(key) else {
            continue;
        };
        if bytes != want {
            return Err(format!(
                "served result for {key} differs from the in-process selection \
                 ({} vs {} bytes)",
                bytes.len(),
                want.len()
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Client and server accounting must close: every request sent was
/// answered ok, overloaded or with an error (no reply went missing), the
/// server's six outcome buckets sum to its request count, that count is
/// the number of selects sent, and its rejections are the client's
/// overloaded replies.
pub fn accounting(
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    stats: &ServeStats,
) -> Result<(), String> {
    if ok + overloaded + errors != sent {
        return Err(format!(
            "client accounting: ok {ok} + overloaded {overloaded} + errors {errors} != sent {sent}"
        ));
    }
    let buckets = stats.executed
        + stats.cache_hits
        + stats.rejected
        + stats.drain_rejected
        + stats.deadline_rejected
        + stats.errors;
    if buckets != stats.requests {
        return Err(format!(
            "server accounting: buckets sum to {buckets}, requests = {}",
            stats.requests
        ));
    }
    if stats.requests != sent {
        return Err(format!(
            "server counted {} select requests, client sent {sent}",
            stats.requests
        ));
    }
    if stats.rejected != overloaded {
        return Err(format!(
            "server rejected {}, client saw {overloaded} overloaded",
            stats.rejected
        ));
    }
    Ok(())
}

/// Least epoch advantage of two-phase selection over successive halving
/// and brute force, on every target (held on CV seeds 1–12).
pub const MIN_SH_RATIO: f64 = 2.50;
pub const MIN_BF_RATIO: f64 = 5.45;

/// `(target, two-phase epochs, SH epochs, BF epochs)` rows.
pub fn epoch_ratios(rows: &[(String, f64, f64, f64)]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no targets compared".to_string());
    }
    for (target, two_phase, sh, bf) in rows {
        if !(*two_phase > 0.0 && sh / two_phase >= MIN_SH_RATIO && bf / two_phase >= MIN_BF_RATIO) {
            return Err(format!(
                "{target}: two-phase {two_phase} epochs vs SH {sh} ({:.2}x, need {MIN_SH_RATIO}x) \
                 and BF {bf} ({:.2}x, need {MIN_BF_RATIO}x)",
                sh / two_phase,
                bf / two_phase
            ));
        }
    }
    Ok(())
}

/// The store's records all pass their checksums.
pub fn fsck(store: &tps_store::Store) -> Result<(), String> {
    let bad = store.fsck();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("fsck failed on {bad:?}"))
    }
}

/// After a reload the server answers the same select with the same result
/// bytes, from the next generation.
pub fn reload(
    before: &str,
    after: &str,
    before_gen: u64,
    after_gen: Option<u64>,
) -> Result<(), String> {
    if after_gen != Some(before_gen + 1) {
        return Err(format!(
            "post-reload reply is from generation {after_gen:?}, expected {}",
            before_gen + 1
        ));
    }
    if before != after {
        return Err("select after reload differs from its pre-reload answer".to_string());
    }
    Ok(())
}

/// The timing wrappers must not change a selection: the wrapped batch
/// gives the plain batch's result bytes, key by key.
pub fn same_results<'a>(
    plain: impl IntoIterator<Item = (&'a str, &'a str)>,
    wrapped: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    let mut wrapped = wrapped.into_iter();
    for (key, bytes) in plain {
        match wrapped.next() {
            Some((k, w)) if k == key && w == bytes => {}
            _ => {
                return Err(format!(
                    "the wrapped selection for {key} differs from the plain one"
                ))
            }
        }
    }
    match wrapped.next() {
        Some((k, _)) => Err(format!("the wrapped batch has an extra selection for {k}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt(s: &str) -> String {
        let mut b = s.as_bytes().to_vec();
        let i = b.len() / 2;
        b[i] = if b[i] == b'1' { b'2' } else { b'1' };
        String::from_utf8(b).unwrap()
    }

    #[test]
    fn served_bytes_fail_on_one_flipped_byte() {
        let reference: HashMap<String, String> = [(
            "k".to_string(),
            "{\"winner\":\"m1\",\"acc\":0.5}".to_string(),
        )]
        .into();
        let good = reference["k"].clone();
        assert_eq!(served_bytes([("k", good.as_str())], &reference), Ok(1));
        let bad = corrupt(&good);
        assert!(served_bytes([("k", good.as_str()), ("k", bad.as_str())], &reference).is_err());
    }

    fn stats(requests: u64, executed: u64, hits: u64, rejected: u64) -> ServeStats {
        ServeStats {
            requests,
            executed,
            cache_hits: hits,
            rejected,
            ..ServeStats::default()
        }
    }

    #[test]
    fn accounting_fails_on_a_lost_reply_or_broken_buckets() {
        assert!(accounting(10, 8, 2, 0, &stats(10, 3, 5, 2)).is_ok());
        assert!(
            accounting(10, 7, 2, 0, &stats(10, 3, 5, 2)).is_err(),
            "one missing"
        );
        assert!(
            accounting(10, 8, 2, 0, &stats(10, 3, 4, 2)).is_err(),
            "buckets"
        );
        assert!(
            accounting(10, 8, 2, 0, &stats(11, 4, 5, 2)).is_err(),
            "requests"
        );
        assert!(
            accounting(10, 8, 2, 0, &stats(10, 4, 5, 1)).is_err(),
            "rejected"
        );
    }

    #[test]
    fn epoch_ratios_fail_below_either_bar() {
        let ok = ("t".to_string(), 10.0, 25.0, 54.5);
        assert!(epoch_ratios(std::slice::from_ref(&ok)).is_ok());
        assert!(epoch_ratios(&[ok.clone(), ("u".into(), 10.0, 24.9, 60.0)]).is_err());
        assert!(epoch_ratios(&[("u".into(), 10.0, 30.0, 54.4)]).is_err());
        assert!(epoch_ratios(&[]).is_err());
    }

    #[test]
    fn fsck_fails_on_a_flipped_byte() {
        let dir = std::env::temp_dir().join(format!("perfbench-fsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = tps_store::Store::open(&dir).unwrap();
        store
            .put_raw("a", tps_store::ArtifactKind::World, b"{\"payload\":12345}")
            .unwrap();
        assert!(fsck(&store).is_ok());
        let objects = dir.join("objects");
        let record = std::fs::read_dir(&objects)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "rec"))
            .unwrap();
        let mut bytes = std::fs::read(&record).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&record, bytes).unwrap();
        assert!(fsck(&store).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_fails_on_changed_bytes_or_wrong_generation() {
        assert!(reload("{\"w\":1}", "{\"w\":1}", 1, Some(2)).is_ok());
        assert!(reload("{\"w\":1}", "{\"w\":2}", 1, Some(2)).is_err());
        assert!(reload("{\"w\":1}", "{\"w\":1}", 1, Some(1)).is_err());
    }

    #[test]
    fn same_results_fail_on_a_flipped_byte_or_a_missing_selection() {
        let plain = [("a", "{\"winner\":\"m1\"}"), ("b", "{\"winner\":\"m2\"}")];
        assert_eq!(same_results(plain, plain), Ok(()));
        let bad = corrupt(plain[1].1);
        assert!(same_results(plain, [plain[0], ("b", bad.as_str())]).is_err());
        assert!(same_results(plain, [plain[0]]).is_err());
        assert!(same_results([plain[0]], plain).is_err());
    }
}
