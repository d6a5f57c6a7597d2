//! Seeded request streams. The workload seed fixes every request line, so
//! the same seed replays byte-identical traffic.

/// SplitMix64: a small, fully specified generator, so streams do not
/// depend on any library's RNG algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The knobs of one select request. `None` leaves a knob at the server's
/// default, so the line omits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    pub target: usize,
    pub top_k: Option<usize>,
    pub threshold: Option<f64>,
    pub stages: Option<usize>,
}

impl Knobs {
    pub fn default_for(target: usize) -> Self {
        Knobs {
            target,
            top_k: None,
            threshold: None,
            stages: None,
        }
    }

    /// The distinct-result key: knobs resolved against the defaults.
    pub fn key(&self, default_stages: usize) -> (usize, usize, u64, usize) {
        (
            self.target,
            self.top_k.unwrap_or(10),
            self.threshold.unwrap_or(0.0).to_bits(),
            self.stages.unwrap_or(default_stages),
        )
    }
}

pub const SKEWED_TOP_K: [usize; 6] = [5, 8, 10, 12, 15, 20];
pub const SKEWED_THRESHOLD: [f64; 4] = [0.0, 0.01, 0.02, 0.05];

/// Every knob combination of the skewed workload, in a fixed order:
/// targets × top_k × threshold, at the server's default stages.
pub fn skewed_fingerprints(n_targets: usize) -> Vec<Knobs> {
    let mut out = Vec::new();
    for target in 0..n_targets {
        for &top_k in &SKEWED_TOP_K {
            for &threshold in &SKEWED_THRESHOLD {
                out.push(Knobs {
                    target,
                    top_k: Some(top_k),
                    threshold: Some(threshold),
                    stages: None,
                });
            }
        }
    }
    out
}

/// Zipf(s = 1) ranks over `n` items: `P(rank r) ∝ 1 / r`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A 0-based rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` skewed requests: Zipf(1) ranks over a permutation of the knob
/// combinations seeded by `order_seed`, drawn with `seed`. Which
/// fingerprints are hot (and so how costly the hot set is) follows
/// `order_seed`; `seed` varies only the draws.
pub fn skewed_stream(order_seed: u64, seed: u64, n: usize, n_targets: usize) -> Vec<Knobs> {
    let fingerprints = skewed_fingerprints(n_targets);
    let order = Rng::new(order_seed ^ 0x5ce3_d000).permutation(fingerprints.len());
    let zipf = Zipf::new(fingerprints.len());
    let mut rng = Rng::new(seed ^ 0x5ce3_d001);
    (0..n)
        .map(|_| fingerprints[order[zipf.draw(&mut rng)]])
        .collect()
}

/// `n` requests, each for a distinct target (a seeded permutation of the
/// world's targets) at default knobs.
pub fn unique_stream(seed: u64, n: usize, n_targets: usize) -> Vec<Knobs> {
    assert!(n <= n_targets, "unique stream needs a target per request");
    let mut rng = Rng::new(seed ^ 0x0417_0000);
    rng.permutation(n_targets)
        .into_iter()
        .take(n)
        .map(Knobs::default_for)
        .collect()
}

/// One select request line, newline-terminated, ready for a single write.
pub fn select_line(id: u64, target_name: &str, knobs: &Knobs) -> String {
    let mut line = format!("{{\"id\":{id},\"target\":\"{target_name}\"");
    if let Some(k) = knobs.top_k {
        line.push_str(&format!(",\"top_k\":{k}"));
    }
    if let Some(t) = knobs.threshold {
        line.push_str(&format!(",\"threshold\":{t:?}"));
    }
    if let Some(s) = knobs.stages {
        line.push_str(&format!(",\"stages\":{s}"));
    }
    line.push_str("}\n");
    line
}

/// A control-op line (`reload`, `shutdown`, …).
pub fn control_line(id: u64, op: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"{op}\"}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(stream: &[Knobs]) -> String {
        stream
            .iter()
            .enumerate()
            .map(|(i, k)| select_line(i as u64, &format!("t{}", k.target), k))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines() {
        assert_eq!(
            lines(&skewed_stream(7, 7, 500, 4)),
            lines(&skewed_stream(7, 7, 500, 4))
        );
        assert_eq!(
            lines(&unique_stream(7, 300, 400)),
            lines(&unique_stream(7, 300, 400))
        );
    }

    #[test]
    fn different_seed_gives_a_different_stream() {
        assert_ne!(
            lines(&skewed_stream(7, 7, 500, 4)),
            lines(&skewed_stream(7, 8, 500, 4))
        );
        assert_ne!(
            lines(&unique_stream(7, 300, 400)),
            lines(&unique_stream(8, 300, 400))
        );
    }

    #[test]
    fn skewed_space_has_96_distinct_fingerprints() {
        let all = skewed_fingerprints(4);
        assert_eq!(all.len(), 96);
        let keys: std::collections::BTreeSet<_> = all.iter().map(|k| k.key(4)).collect();
        assert_eq!(keys.len(), 96);
        // The default select (the cold-start and reload probe) is one of them.
        assert!(keys.contains(&Knobs::default_for(0).key(4)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(96);
        let mut rng = Rng::new(1);
        let mut counts = vec![0usize; 96];
        for _ in 0..20_000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        // P(rank 1) = 1 / H(96) ≈ 0.19; P(rank 2) is half of that.
        assert!(counts[0] > 3500 && counts[0] < 4300, "{}", counts[0]);
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }

    #[test]
    fn unique_stream_never_repeats_a_target() {
        let s = unique_stream(3, 1000, 1000);
        let distinct: std::collections::BTreeSet<_> = s.iter().map(|k| k.target).collect();
        assert_eq!(distinct.len(), 1000);
        assert!(s.iter().all(|k| k.top_k.is_none() && k.stages.is_none()));
    }

    #[test]
    fn lines_are_single_newline_terminated_json() {
        let k = Knobs {
            target: 1,
            top_k: Some(5),
            threshold: Some(0.01),
            stages: Some(3),
        };
        let line = select_line(9, "beans", &k);
        assert_eq!(
            line,
            "{\"id\":9,\"target\":\"beans\",\"top_k\":5,\"threshold\":0.01,\"stages\":3}\n"
        );
        assert_eq!(line.matches('\n').count(), 1);
        let v: serde_json::Value = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(v.get("threshold").and_then(|t| t.as_f64()), Some(0.01));
        assert_eq!(
            select_line(2, "t", &Knobs::default_for(0)),
            "{\"id\":2,\"target\":\"t\"}\n"
        );
    }
}
