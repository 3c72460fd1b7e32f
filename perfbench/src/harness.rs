//! Run loop, recording and reporting shared by every workload.
//!
//! A run is a sequence of whole *rounds*. Each round generates its inputs
//! from `(seed, round index)` (untimed), sets the program up in a fresh
//! term store (timed as one `setup_s` sample), then hands the program its
//! items one at a time (each timed from input to output) and checks every
//! output (untimed). Rounds repeat until `--seconds` have passed; the time
//! is only looked at between rounds, so every run attempts whole rounds.
//!
//! Timings are summarised per round and reported as the median over the
//! run's rounds: the host's speed comes and goes in bursts of a few
//! seconds, and the median over rounds keeps a burst that slows a few
//! rounds out of the result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a per-layer sum is turned into the reported value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Per {
    /// Mean per attempted item.
    Item,
    /// Mean per set-up.
    Setup,
    /// Mean per round, read at the round's end.
    Round,
}

/// Every per-layer metric: name, unit, and what it is averaged over.
/// Metrics of a layer a workload does not call read 0 on that workload.
pub const LAYERS: &[(&str, &str, Per)] = &[
    (PARSE_US, "us", Per::Item),
    (PARSE_BYTES_PER_S, "B/s", Per::Item),
    (TYPECK_US, "us", Per::Item),
    (PRINT_US, "us", Per::Item),
    (STORE_LOOKUPS, "count", Per::Item),
    (STORE_HITS, "count", Per::Item),
    (STORE_DISTINCT, "count", Per::Item),
    (STORE_LIVE, "count", Per::Round),
    (ENCODE_US, "us", Per::Item),
    (DECODE_US, "us", Per::Item),
    (EVAL_HOAS_US, "us", Per::Item),
    (NORMALIZE_US, "us", Per::Item),
    (REWRITE_STEPS, "count", Per::Item),
    (NODES_VISITED, "count", Per::Item),
    (PATTERN_ATTEMPTS, "count", Per::Item),
    (GENERAL_ATTEMPTS, "count", Per::Item),
    (RULE_NF_HITS, "count", Per::Item),
    (RULE_NF_MISSES, "count", Per::Item),
    (ROOT_MEMO_HITS, "count", Per::Item),
    (ROOT_MEMO_MISSES, "count", Per::Item),
    (CANON_HITS, "count", Per::Item),
    (CANON_MISSES, "count", Per::Item),
    (LP_QUERY_US, "us", Per::Item),
    (LP_SOLVE_OF_US, "us", Per::Item),
    (LP_SOLVE_EVAL_US, "us", Per::Item),
    (LP_TABLE_HITS, "count", Per::Item),
    (LP_TABLE_VARIANT_MISSES, "count", Per::Item),
    (LP_TABLE_SUSPENSIONS, "count", Per::Item),
    (LP_TABLE_ANSWERS_REUSED, "count", Per::Item),
    (MODES_US, "us", Per::Setup),
    (TERMINATION_US, "us", Per::Setup),
    (IMAGE_LOAD_US, "us", Per::Setup),
    (IMAGE_BYTES, "B", Per::Setup),
    (IMAGE_ENTRIES_RELOADED, "count", Per::Setup),
    (TRACED_ITEMS_PER_S, "1/s", Per::Item),
];

pub const PARSE_US: &str = "core.parse.us";
pub const PARSE_BYTES_PER_S: &str = "core.parse.bytes_per_s";
pub const TYPECK_US: &str = "core.typeck.us";
pub const PRINT_US: &str = "core.print.us";
pub const STORE_LOOKUPS: &str = "core.store.lookups";
pub const STORE_HITS: &str = "core.store.hits";
pub const STORE_DISTINCT: &str = "core.store.distinct_nodes";
pub const STORE_LIVE: &str = "core.store.live_nodes";
pub const ENCODE_US: &str = "langs.encode.us";
pub const DECODE_US: &str = "langs.decode.us";
pub const EVAL_HOAS_US: &str = "langs.eval_hoas.us";
pub const NORMALIZE_US: &str = "rewrite.normalize.us";
pub const REWRITE_STEPS: &str = "rewrite.steps";
pub const NODES_VISITED: &str = "rewrite.nodes_visited";
pub const PATTERN_ATTEMPTS: &str = "unify.match.pattern_attempts";
pub const GENERAL_ATTEMPTS: &str = "unify.match.general_attempts";
pub const RULE_NF_HITS: &str = "rewrite.rule_nf.hits";
pub const RULE_NF_MISSES: &str = "rewrite.rule_nf.misses";
pub const ROOT_MEMO_HITS: &str = "rewrite.root_memo.hits";
pub const ROOT_MEMO_MISSES: &str = "rewrite.root_memo.misses";
pub const CANON_HITS: &str = "rewrite.canon.hits";
pub const CANON_MISSES: &str = "rewrite.canon.misses";
pub const LP_QUERY_US: &str = "lp.query.us";
pub const LP_SOLVE_OF_US: &str = "lp.solve.of.us";
pub const LP_SOLVE_EVAL_US: &str = "lp.solve.eval.us";
pub const LP_TABLE_HITS: &str = "lp.table.hits";
pub const LP_TABLE_VARIANT_MISSES: &str = "lp.table.variant_misses";
pub const LP_TABLE_SUSPENSIONS: &str = "lp.table.suspensions";
pub const LP_TABLE_ANSWERS_REUSED: &str = "lp.table.answers_reused";
pub const MODES_US: &str = "analyze.modes.us";
pub const TERMINATION_US: &str = "analyze.termination.us";
pub const IMAGE_LOAD_US: &str = "rewrite.image.load_us";
pub const IMAGE_BYTES: &str = "rewrite.image.bytes";
pub const IMAGE_ENTRIES_RELOADED: &str = "rewrite.image.entries_reloaded";
pub const TRACED_ITEMS_PER_S: &str = "trace.items_per_s";

/// `peak_rss_mb` is read after this many rounds. Every round starts from a
/// fresh store, so later rounds only add more draws of the same size; a
/// fixed count keeps the figure from growing with the number of rounds a
/// faster build fits into a run.
const PEAK_ROUNDS: u64 = 8;

/// Bytes handed to the parser; turned into `core.parse.bytes_per_s`.
const PARSE_BYTES: &str = "core.parse.bytes";

/// What one item's output check concluded.
pub enum Verdict {
    Pass,
    /// A wrong output, or an error where an output was due.
    Fail(String),
    /// The known printing fault (see the lp-preserve workload): the item
    /// is counted as failed but does not make the run incorrect.
    KnownFault,
}

/// Everything a run measures.
pub struct Recorder {
    trace: bool,
    /// Latencies of the current round's items, in ns.
    round_ns: Vec<u64>,
    /// Per round: items per second of timed work, p50 and p99 latency
    /// in ns; and each set-up's time in ns.
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    setups_ns: Vec<f64>,
    rounds: u64,
    attempted: u64,
    failed: u64,
    unexpected: u64,
    sums: BTreeMap<&'static str, f64>,
    store_mark: hoas_core::InternStats,
    started: Instant,
    /// The process's peak resident set in KiB by the end of round
    /// [`PEAK_ROUNDS`] (or of the last round, in a shorter run).
    peak_kib: f64,
}

impl Recorder {
    pub fn new(trace: bool) -> Recorder {
        Recorder {
            trace,
            round_ns: Vec::new(),
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            setups_ns: Vec::new(),
            rounds: 0,
            attempted: 0,
            failed: 0,
            unexpected: 0,
            sums: BTreeMap::new(),
            store_mark: hoas_core::InternStats::default(),
            started: Instant::now(),
            peak_kib: 0.0,
        }
    }

    /// Adds `v` to a per-layer sum (traced runs only).
    pub fn add(&mut self, metric: &'static str, v: f64) {
        if self.trace {
            *self.sums.entry(metric).or_insert(0.0) += v;
        }
    }

    /// Runs `f`, adding its duration in µs to `metric` when tracing.
    pub fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_in(&[metric], f)
    }

    /// Runs `f`, adding its duration in µs to each of `metrics`.
    pub fn time_in<T>(&mut self, metrics: &[&'static str], f: impl FnOnce() -> T) -> T {
        if !self.trace {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        for m in metrics {
            self.add(m, us);
        }
        out
    }

    /// A timed call that parses `bytes` bytes of source, also timed under
    /// `also` (the layer that made the call).
    pub fn parse<T>(&mut self, bytes: usize, also: &[&'static str], f: impl FnOnce() -> T) -> T {
        self.add(PARSE_BYTES, bytes as f64);
        let metrics: Vec<&'static str> = std::iter::once(PARSE_US)
            .chain(also.iter().copied())
            .collect();
        self.time_in(&metrics, f)
    }

    /// Starts timing an item: the input is about to be handed over.
    pub fn item_start(&mut self) {
        if self.trace {
            self.store_mark = hoas_core::store::stats();
        }
        self.started = Instant::now();
    }

    /// Stops timing an item: its output has been produced.
    pub fn item_stop(&mut self) {
        self.round_ns.push(self.started.elapsed().as_nanos() as u64);
        if self.trace {
            let d = hoas_core::store::stats().since(&self.store_mark);
            self.add(STORE_LOOKUPS, d.lookups as f64);
            self.add(STORE_HITS, d.hits as f64);
            self.add(STORE_DISTINCT, d.distinct_nodes as f64);
        }
    }

    /// Records the verdict of the last item's output check.
    pub fn verdict(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Pass => {}
            Verdict::KnownFault => self.failed += 1,
            Verdict::Fail(why) => {
                self.failed += 1;
                self.unexpected += 1;
                if self.unexpected <= 5 {
                    eprintln!("check failed: {why}");
                }
            }
        }
    }

    pub fn setup(&mut self, d: Duration) {
        self.setups_ns.push(d.as_nanos() as f64);
    }

    /// Adds the engine counters of one `normalize` call.
    pub fn engine(&mut self, steps: usize, s: &hoas_rewrite::EngineStats) {
        if !self.trace {
            return;
        }
        self.add(REWRITE_STEPS, steps as f64);
        self.add(NODES_VISITED, s.nodes_visited as f64);
        self.add(PATTERN_ATTEMPTS, s.pattern_attempts as f64);
        self.add(GENERAL_ATTEMPTS, s.general_attempts as f64);
        self.add(RULE_NF_HITS, s.cache_hits as f64);
        self.add(RULE_NF_MISSES, s.cache_misses as f64);
        self.add(ROOT_MEMO_HITS, s.memo_hits as f64);
        self.add(ROOT_MEMO_MISSES, s.memo_misses as f64);
        self.add(CANON_HITS, s.canon_hits as f64);
        self.add(CANON_MISSES, s.canon_misses as f64);
    }

    /// Closes a round, inside its store while the round's engine is still
    /// alive; in traced runs reads how many classes the store keeps alive
    /// (after evicting the dead ones).
    pub fn round_end(&mut self) {
        if self.rounds < PEAK_ROUNDS {
            self.peak_kib = status_kib("VmHWM");
        }
        let mut lat: Vec<f64> = self.round_ns.drain(..).map(|n| n as f64).collect();
        if !lat.is_empty() {
            lat.sort_by(f64::total_cmp);
            self.rates
                .push(lat.len() as f64 / (lat.iter().sum::<f64>() / 1e9));
            self.p50s.push(rank(&lat, 0.50));
            self.p99s.push(rank(&lat, 0.99));
        }
        self.rounds += 1;
        if self.trace {
            hoas_core::store::trim();
            self.add(STORE_LIVE, hoas_core::store::current().len() as f64);
        }
    }

    /// The result line: end-to-end metrics, or per-layer ones when tracing.
    pub fn report(&self) -> String {
        let items_per_s = median(&self.rates);
        let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
        if self.trace {
            for &(name, unit, per) in LAYERS {
                let n = match per {
                    Per::Item => self.attempted,
                    Per::Setup => self.setups_ns.len() as u64,
                    Per::Round => self.rounds,
                } as f64;
                let sum = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
                let v = match name {
                    PARSE_BYTES_PER_S if sum(PARSE_US) > 0.0 => {
                        sum(PARSE_BYTES) / (sum(PARSE_US) / 1e6)
                    }
                    PARSE_BYTES_PER_S => 0.0,
                    TRACED_ITEMS_PER_S => items_per_s,
                    _ => sum(name) / n.max(1.0),
                };
                metrics.push((name, v, unit));
            }
        } else {
            metrics.push(("items_per_s", items_per_s, "1/s"));
            metrics.push(("latency_p50_us", median(&self.p50s) / 1e3, "us"));
            metrics.push(("latency_p99_us", median(&self.p99s) / 1e3, "us"));
            metrics.push(("setup_s", median(&self.setups_ns) / 1e9, "s"));
            metrics.push(("peak_rss_mb", self.peak_kib / 1024.0, "MiB"));
        }
        let body = metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.unexpected == 0,
            self.attempted,
            self.failed
        )
    }

    /// A human-readable summary for standard error.
    pub fn summary(&self) -> String {
        format!(
            "{} rounds, {} items, {} failed ({} unexpected), {} set-ups",
            self.rounds,
            self.attempted,
            self.failed,
            self.unexpected,
            self.setups_ns.len()
        )
    }
}

/// Runs `round(index, recorder)` until `seconds` have passed (at least
/// once), looking at the clock only between rounds.
pub fn drive(
    seconds: u64,
    rec: &mut Recorder,
    mut round: impl FnMut(u64, &mut Recorder) -> Result<(), String>,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut index = 0;
    loop {
        round(index, rec)?;
        index += 1;
        if Instant::now() >= deadline {
            return Ok(());
        }
    }
}

/// Nearest-rank quantile of sorted samples (0 when there are none).
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Nearest-rank median (0 when there are no samples).
pub fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    rank(&xs, 0.5)
}

/// A finite JSON number.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), 0 if absent.
pub fn status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(rank(&xs, 0.5), 50.0);
        assert_eq!(rank(&xs, 0.99), 99.0);
        assert_eq!(rank(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(rank(&[], 0.5), 0.0);
    }

    #[test]
    fn report_has_exactly_the_required_keys() {
        let mut r = Recorder::new(false);
        r.setup(Duration::from_millis(2));
        for v in [Verdict::Pass, Verdict::KnownFault] {
            r.item_start();
            r.item_stop();
            r.verdict(v);
        }
        r.round_end();
        let line = r.report();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 1,"));
        for k in [
            "items_per_s",
            "latency_p50_us",
            "latency_p99_us",
            "setup_s",
            "peak_rss_mb",
        ] {
            assert!(
                line.contains(&format!("\"{k}\": {{\"value\": ")),
                "{k} missing: {line}"
            );
        }
        r.verdict(Verdict::Fail("wrong".into()));
        assert!(r.report().starts_with("{\"correct\": false"));
    }

    #[test]
    fn traced_report_lists_every_layer() {
        let r = Recorder::new(true);
        let line = r.report();
        for (name, unit, _) in LAYERS {
            assert!(line.contains(&format!("\"{name}\": {{")), "{name} missing");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(!line.contains("latency_p50_us"));
    }
}
