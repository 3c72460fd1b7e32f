//! Reference figures quoted in `README.md` that the timed runs do not
//! print. They are ignored tests, run on demand, one process each (the
//! resident-memory figure needs a heap no other test has grown):
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml \
//!     reference_cold_beta -- --ignored --nocapture
//! ```

use crate::harness::{self, Recorder, Verdict};
use crate::rng::Rng;
use crate::{imp_edits, lp_preserve};
use hoas_core::StoreHandle;
use hoas_langs::imp;
use hoas_langs::lambda::{self, LTerm};
use hoas_rewrite::rulesets::imp_opt;
use hoas_rewrite::Engine;
use std::time::Instant;

/// Cold HOAS β: `lambda::subst_hoas` on distinct seeded instances,
/// either each in a fresh term store (so the first probe of the store and
/// of the per-thread operation memo is part of the figure) or all in one
/// store (distinct instances, so the memo still misses).
#[test]
#[ignore]
fn reference_cold_beta() {
    for size in [16usize, 64, 256, 1024] {
        for fresh_store in [true, false] {
            let mut rng = Rng::new(size as u64);
            let shared = StoreHandle::isolated();
            let mut ns = Vec::new();
            for _ in 0..2000 {
                let body = LTerm::app(
                    lambda::gen_open(&mut rng, size.saturating_sub(3).max(2), &["subj"]),
                    LTerm::var("subj"),
                );
                let arg = lambda::gen_closed(&mut rng, (size / 4).max(4));
                let store = if fresh_store {
                    StoreHandle::isolated()
                } else {
                    shared.clone()
                };
                store.enter(|| {
                    let abs = lambda::encode(&LTerm::lam("subj", body)).unwrap();
                    let arg = lambda::encode(&arg).unwrap();
                    let t = Instant::now();
                    let out = lambda::subst_hoas(&abs, &arg).unwrap();
                    ns.push(t.elapsed().as_nanos() as u64);
                    drop(out);
                });
            }
            let mut ns: Vec<f64> = ns.into_iter().map(|n| n as f64).collect();
            ns.sort_by(f64::total_cmp);
            println!(
                "cold beta size {size}, {}: p50 {:.2} us, p99 {:.2} us over {} instances",
                if fresh_store {
                    "fresh store each"
                } else {
                    "one store"
                },
                harness::rank(&ns, 0.5) / 1e3,
                harness::rank(&ns, 0.99) / 1e3,
                ns.len()
            );
        }
    }
}

/// Store and memory growth per item of the edit stream when one engine
/// and one store live for 6000 items, and root-step memo traffic.
#[test]
#[ignore]
fn reference_edit_stream_growth() {
    let prefix = imp_edits::prefix(1);
    let items: Vec<_> = (0..4)
        .flat_map(|r| imp_edits::items(1, r, &prefix))
        .collect();
    StoreHandle::isolated().enter(|| {
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).unwrap();
        let engine = Engine::new(sig, &rules);
        let before = (harness::status_kib("VmRSS"), hoas_core::store::stats());
        let mut keep = Vec::new();
        for item in &items {
            let t = imp::encode(&item.program).unwrap();
            keep.push(engine.normalize(&imp::cmd_ty(), &t).unwrap().term);
        }
        let d = hoas_core::store::stats().since(&before.1);
        let s = engine.stats();
        println!(
            "edit stream, {} items in one store: {:.1} distinct nodes/item, {:.2} KiB RSS/item, \
             dedup {:.3}, root memo {} hits / {} probes, rule-NF {} hits / {} lookups",
            items.len(),
            d.distinct_nodes as f64 / items.len() as f64,
            (harness::status_kib("VmRSS") - before.0) / items.len() as f64,
            d.dedup_ratio(),
            s.memo_hits,
            s.memo_hits + s.memo_misses,
            s.cache_hits,
            s.cache_lookups
        );
    });
}

/// How many seeded subjects are typable, and how many of their printed
/// principal types read back as a less general type.
#[test]
#[ignore]
fn reference_ambiguous_answers() {
    let (mut subjects, mut typable, mut ambiguous) = (0, 0, 0);
    for seed in 1..=10 {
        let mut items = lp_preserve::items(seed, 0);
        for item in &mut items {
            item.strict = true;
        }
        let mut rec = Recorder::new(false);
        StoreHandle::isolated().enter(|| {
            let machine = lp_preserve::Machine::new(&mut rec).unwrap();
            for item in items.iter().skip(lp_preserve::fixed().len()) {
                subjects += 1;
                match machine.solve_and_check(item, &mut rec) {
                    Verdict::KnownFault => {
                        typable += 1;
                        ambiguous += 1;
                    }
                    Verdict::Pass if hoas_langs::miniml_types::well_typed(&item.subject) => {
                        typable += 1
                    }
                    Verdict::Pass => {}
                    Verdict::Fail(why) => panic!("{why}"),
                }
            }
        });
    }
    println!(
        "lp-preserve subjects of size {}: {subjects}, typable {typable}, printed ambiguously {ambiguous}",
        lp_preserve::SIZE
    );
}

/// The make-up of the inputs of round 0 over seeds 1 to 10.
#[test]
#[ignore]
fn reference_input_makeup() {
    use crate::{miniml_eval, prenex};
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let (mut nodes, mut quants, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut imp_sizes, mut resubmitted, mut imp_items) = (Vec::new(), 0, 0);
    let (mut lp_typable, mut lp_items) = (0, 0);
    let (mut ml_values, mut ml_nodes) = (Vec::new(), Vec::new());
    for seed in 1..=10 {
        for item in prenex::items(seed, 0) {
            nodes.push(item.formula.size() as f64);
            quants.push(item.formula.quantifier_count() as f64);
            bytes.push(item.text.len() as f64);
        }
        let prefix = imp_edits::prefix(seed);
        let mut seen: Vec<imp::Cmd> = prefix.clone();
        for item in imp_edits::items(seed, 0, &prefix) {
            imp_sizes.push(item.program.size() as f64);
            imp_items += 1;
            if seen.contains(&item.program) {
                resubmitted += 1;
            } else {
                seen.push(item.program);
            }
        }
        for item in lp_preserve::items(seed, 0)
            .iter()
            .skip(lp_preserve::fixed().len())
        {
            lp_items += 1;
            lp_typable += usize::from(hoas_langs::miniml_types::well_typed(&item.subject));
        }
        for item in miniml_eval::items(seed, 0) {
            ml_values.push(item.value as f64);
            ml_nodes.push(item.exp.size() as f64);
        }
    }
    println!(
        "prenex-cold: {:.1} formula nodes, {:.2} quantifiers, {:.0} bytes of text per item",
        mean(&nodes),
        mean(&quants),
        mean(&bytes)
    );
    println!(
        "imp-opt-edits: {:.1} command nodes per program, {:.1}% resubmissions",
        mean(&imp_sizes),
        100.0 * resubmitted as f64 / imp_items as f64
    );
    println!(
        "lp-preserve: {:.1}% of seeded subjects typable",
        100.0 * lp_typable as f64 / lp_items as f64
    );
    ml_values.sort_by(f64::total_cmp);
    println!(
        "miniml-eval: {:.1} expression nodes, value mean {:.1}, median {}, max {}",
        mean(&ml_nodes),
        mean(&ml_values),
        ml_values[ml_values.len() / 2],
        ml_values[ml_values.len() - 1]
    );
}
