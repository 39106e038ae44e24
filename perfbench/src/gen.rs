//! Seeded input generators. Every input the benchmark feeds the program
//! (sample streams, query windows, request bodies) comes from here, so one
//! `--seed` fixes all of them.

/// SplitMix64: a small, fast, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` decorrelates streams
    /// drawn from the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi)`.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }
}

/// A wall-meter-like sample stream: exact 1 Hz cadence and 0.1 W-quantized
/// power that holds a level for 20–200 s between phase shifts, the shape
/// of a Watts Up?-class logger and of the `trace_store` bench input.
#[derive(Debug, Clone)]
pub struct MeterStream {
    rng: Rng,
    next_t: f64,
    level: f64,
    hold: usize,
}

impl MeterStream {
    /// A stream starting at `t0`.
    pub fn new(rng: Rng, t0: f64) -> Self {
        MeterStream { rng, next_t: t0, level: 0.0, hold: 0 }
    }

    /// Clears both columns and fills them with the next `n` samples.
    pub fn fill(&mut self, n: usize, times: &mut Vec<f64>, watts: &mut Vec<f64>) {
        times.clear();
        watts.clear();
        for _ in 0..n {
            if self.hold == 0 {
                self.level = (800.0 + 4000.0 * self.rng.unit()).round() / 10.0;
                self.hold = 20 + (self.rng.unit() * 180.0) as usize;
            }
            self.hold -= 1;
            times.push(self.next_t);
            watts.push(self.level);
            self.next_t += 1.0;
        }
    }
}

/// A historical query window over `[first, last]`: the start is uniform
/// over the span and the length log-uniform from one minute to one day.
pub fn window(rng: &mut Rng, first: f64, last: f64) -> (f64, f64) {
    let a = rng.range(first, last);
    let len = rng.log_range(60.0, 86_400.0);
    (a, (a + len).min(last))
}

/// One benchmark suite as the `/evaluate` endpoint takes it: HPL in
/// GFLOPS, STREAM and IOzone in bytes per second, each with watts and
/// seconds, at Fire-like magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// `(id, perf, watts, seconds)`; HPL perf is in GFLOPS.
    pub entries: [(&'static str, f64, f64, f64); 3],
}

impl Suite {
    /// A random suite.
    pub fn random(rng: &mut Rng) -> Self {
        Suite {
            entries: [
                (
                    "hpl",
                    rng.range(40.0, 140.0),
                    rng.range(1500.0, 3500.0),
                    rng.range(600.0, 2400.0),
                ),
                (
                    "stream",
                    rng.range(5e10, 2e11),
                    rng.range(1500.0, 3500.0),
                    rng.range(300.0, 1200.0),
                ),
                ("iozone", rng.range(5e7, 4e8), rng.range(1200.0, 3000.0), rng.range(100.0, 700.0)),
            ],
        }
    }

    /// The `POST /evaluate` body for this suite under one weighting and
    /// mean. Numbers use Rust's shortest round-trip form, so the server
    /// parses back exactly these values.
    pub fn evaluate_body(&self, weighting: &str, mean: &str) -> String {
        let items: Vec<String> = self
            .entries
            .iter()
            .map(|&(id, perf, watts, seconds)| {
                let perf = if id == "hpl" {
                    format!("\"gflops\":{perf:?}")
                } else {
                    format!("\"perf\":{perf:?},\"unit\":\"bytes_per_sec\"")
                };
                format!("{{\"id\":\"{id}\",{perf},\"watts\":{watts:?},\"seconds\":{seconds:?}}}")
            })
            .collect();
        format!(
            "{{\"measurements\":[{}],\"weighting\":\"{weighting}\",\"mean\":\"{mean}\"}}",
            items.join(",")
        )
    }
}

/// The `POST /traces/{node}` body for one batch of samples.
pub fn ingest_body(times: &[f64], watts: &[f64]) -> String {
    let mut body = String::with_capacity(24 + times.len() * 32);
    body.push_str("{\"samples\":[");
    for (i, (t, w)) in times.iter().zip(watts).enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"t\":{t:?},\"watts\":{w:?}}}"));
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> (Vec<f64>, Vec<f64>) {
        let (mut t, mut w) = (Vec::new(), Vec::new());
        MeterStream::new(Rng::new(seed, 1), 0.0).fill(5_000, &mut t, &mut w);
        (t, w)
    }

    fn windows(seed: u64) -> Vec<(f64, f64)> {
        let mut rng = Rng::new(seed, 2);
        (0..100).map(|_| window(&mut rng, 0.0, 4e6)).collect()
    }

    fn suites(seed: u64) -> Vec<String> {
        let mut rng = Rng::new(seed, 3);
        (0..10).map(|_| Suite::random(&mut rng).evaluate_body("time", "geometric")).collect()
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_eq!(windows(7), windows(7));
        assert_ne!(windows(7), windows(8));
        assert_eq!(suites(7), suites(7));
        assert_ne!(suites(7), suites(8));
    }

    #[test]
    fn meter_stream_has_the_stated_shape() {
        let (t, w) = stream(3);
        assert!(t.windows(2).all(|p| p[1] - p[0] == 1.0));
        assert!(w.iter().all(|&x| (80.0..=480.0).contains(&x) && (x * 10.0).fract() == 0.0));
        let runs = 1 + w.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(runs >= t.len() / 200 && runs <= t.len() / 20 + 1, "{runs} levels");
    }

    #[test]
    fn windows_stay_inside_the_span() {
        for (a, b) in windows(11) {
            assert!((0.0..=4e6).contains(&a) && a <= b && b <= 4e6);
            assert!(b - a <= 86_400.0);
        }
    }

    #[test]
    fn bodies_round_trip_their_numbers() {
        let (t, w) = stream(5);
        let body = ingest_body(&t[..3], &w[..3]);
        let v: serde::Value = serde_json::from_str(&body).expect("ingest body parses");
        let samples = v.get("samples").and_then(|s| s.as_array()).expect("samples array");
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[2].get("watts").and_then(|x| x.as_f64()), Some(w[2]));
        let suite = Suite::random(&mut Rng::new(5, 3));
        let v: serde::Value =
            serde_json::from_str(&suite.evaluate_body("power", "harmonic")).expect("parses");
        let first = &v.get("measurements").and_then(|m| m.as_array()).expect("array")[0];
        assert_eq!(first.get("gflops").and_then(|x| x.as_f64()), Some(suite.entries[0].1));
    }
}
