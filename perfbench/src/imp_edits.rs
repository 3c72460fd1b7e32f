//! `imp-opt-edits`: a stream of IMP programs, given as ASTs, in which each
//! item either resubmits an earlier program or replaces one subtree of it.
//! Items are encoded, optimized by the `imp_opt` rules in one engine, and
//! decoded. The engine's caches start from a warm image saved from a
//! disjoint prefix of the stream, so the cache stack does most of the
//! work.
//!
//! A round runs one engine in a fresh term store over a fixed number of
//! items. The store keeps every program of the stream alive, so a round
//! of fixed length keeps the peak resident set independent of how many
//! rounds a run fits in.

use crate::harness::{self, Recorder, Verdict};
use crate::rng::Rng;
use hoas_core::{StoreHandle, Term};
use hoas_langs::imp::{self, Aexp, Bexp, Cmd};
use hoas_rewrite::rulesets::imp_opt;
use hoas_rewrite::{image, Engine, EngineCaches, EngineConfig, RuleSet};
use std::time::Instant;

/// Items per round.
const PER_ROUND: usize = 1500;
/// Programs in the prefix the warm image is saved from.
const PREFIX: usize = 200;
/// Out of 10 items, how many resubmit an earlier program unchanged.
const RESUBMIT_IN_10: u64 = 4;
/// Every `SAMPLE`-th item is also optimized by a fresh engine with empty
/// caches, whose output must be α-equal.
const SAMPLE: usize = 16;
/// Command depth of a prefix program and of a replacement subtree.
const DEPTH: u32 = 5;
const EDIT_DEPTH: u32 = 2;
const FUEL: u64 = 100_000;

/// Where the prefix stream is drawn from: apart from every round's stream.
const PREFIX_STREAM: u64 = u64::MAX;

pub struct Item {
    pub program: Cmd,
}

/// The prefix the warm image is made from.
pub fn prefix(seed: u64) -> Vec<Cmd> {
    let mut rng = Rng::stream(seed, PREFIX_STREAM);
    (0..PREFIX).map(|_| gen_program(&mut rng, DEPTH)).collect()
}

/// The inputs of round `round`: resubmissions and edits of the prefix
/// and of the round's own earlier items.
pub fn items(seed: u64, round: u64, prefix: &[Cmd]) -> Vec<Item> {
    let mut rng = Rng::stream(seed, round);
    let mut pool: Vec<Cmd> = prefix.to_vec();
    let mut out = Vec::with_capacity(PER_ROUND);
    for _ in 0..PER_ROUND {
        let base = rng.pick(&pool).clone();
        if rng.chance(RESUBMIT_IN_10, 10) {
            out.push(Item { program: base });
        } else {
            let edited = edit(&mut rng, &base);
            pool.push(edited.clone());
            out.push(Item { program: edited });
        }
    }
    out
}

/// Normalizes the prefix in its own store and saves the engine's caches,
/// as an earlier run over the same stream would have left them.
pub fn warm_image(prefix: &[Cmd]) -> Result<Vec<u8>, String> {
    StoreHandle::isolated().enter(|| {
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).map_err(|e| e.to_string())?;
        let engine = Engine::new(sig, &rules);
        let mut keep = Vec::with_capacity(prefix.len());
        for c in prefix {
            let t = imp::encode(c).map_err(|e| e.to_string())?;
            keep.push(
                engine
                    .normalize(&imp::cmd_ty(), &t)
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(image::save_warm_image(&engine.caches()))
    })
}

pub fn run(seed: u64, seconds: u64, rec: &mut Recorder) -> Result<(), String> {
    let prefix = prefix(seed);
    let image_bytes = warm_image(&prefix)?;
    let sig = imp::signature();
    harness::drive(seconds, rec, |round, rec| {
        let items = items(seed, round, &prefix);
        StoreHandle::isolated().enter(|| -> Result<(), String> {
            let t = Instant::now();
            let rules = imp_opt::rules(sig).map_err(|e| e.to_string())?;
            let sct = rec.time(harness::TERMINATION_US, || {
                hoas_analyze::analyze_ruleset(&rules)
            });
            let caches = EngineCaches::new();
            let loaded = rec
                .time(harness::IMAGE_LOAD_US, || {
                    image::load_warm_image(&image_bytes, &caches)
                })
                .map_err(|e| e.to_string())?;
            let mut engine = Engine::with_caches(sig, &rules, EngineConfig::default(), caches);
            if let Some(cert) = &sct.cert {
                engine.attach_certificate(cert);
            }
            rec.setup(t.elapsed());
            rec.add(harness::IMAGE_BYTES, loaded.bytes as f64);
            rec.add(
                harness::IMAGE_ENTRIES_RELOADED,
                loaded.entries_reloaded as f64,
            );
            for (i, item) in items.iter().enumerate() {
                rec.item_start();
                let out = pipeline(&engine, &item.program, rec);
                rec.item_stop();
                let verdict = match out {
                    Ok((term, cmd)) => {
                        let fresh = (i % SAMPLE == 0).then_some(&rules);
                        check(&item.program, &term, &cmd, fresh)
                    }
                    Err(e) => Verdict::Fail(format!("{}: {e}", item.program)),
                };
                rec.verdict(verdict);
            }
            rec.round_end();
            Ok(())
        })
    })
}

fn pipeline(engine: &Engine<'_>, program: &Cmd, rec: &mut Recorder) -> Result<(Term, Cmd), String> {
    let t = rec
        .time(harness::ENCODE_US, || imp::encode(program))
        .map_err(|e| e.to_string())?;
    let res = rec
        .time(harness::NORMALIZE_US, || {
            engine.normalize(&imp::cmd_ty(), &t)
        })
        .map_err(|e| e.to_string())?;
    rec.engine(res.steps, &res.stats);
    if !res.fixpoint {
        return Err("step budget ran out".into());
    }
    let cmd = rec
        .time(harness::DECODE_US, || imp::decode(&res.term))
        .map_err(|e| e.to_string())?;
    Ok((res.term, cmd))
}

/// The optimized program prints the same trace as the input; when
/// `fresh` is given, a fresh engine with empty caches over those rules
/// must produce an α-equal term.
fn check(input: &Cmd, term: &Term, output: &Cmd, fresh: Option<&RuleSet>) -> Verdict {
    match (imp::run(input, FUEL), imp::run(output, FUEL)) {
        (Ok(a), Ok(b)) if a == b => {}
        (a, b) => {
            return Verdict::Fail(format!(
                "trace changed: {input} gives {a:?}, {output} gives {b:?}"
            ))
        }
    }
    if let Some(rules) = fresh {
        let engine = Engine::new(imp::signature(), rules);
        let again = imp::encode(input).map_err(|e| e.to_string()).and_then(|t| {
            engine
                .normalize(&imp::cmd_ty(), &t)
                .map_err(|e| e.to_string())
        });
        match again {
            Ok(r) if &r.term == term => {}
            _ => return Verdict::Fail(format!("cached and uncached engines disagree on {input}")),
        }
    }
    Verdict::Pass
}

/// A variable in scope; loop counters may be read but not assigned, so
/// every loop runs at most its initial count of times.
#[derive(Clone)]
struct Var {
    name: String,
    writable: bool,
}

fn gen_program(rng: &mut Rng, depth: u32) -> Cmd {
    let mut scope = vec![Var {
        name: "v0".into(),
        writable: true,
    }];
    let body = gen_cmd(rng, depth, &mut scope);
    Cmd::local("v0", gen_aexp(rng, 1, &[]), body)
}

fn gen_cmd(rng: &mut Rng, depth: u32, scope: &mut Vec<Var>) -> Cmd {
    if depth == 0 {
        let writable: Vec<&Var> = scope.iter().filter(|v| v.writable).collect();
        return match rng.below(4) {
            0 => Cmd::Skip,
            1 if !writable.is_empty() => {
                let x = rng.pick(&writable).name.clone();
                Cmd::Assign(x, gen_aexp(rng, 2, scope))
            }
            _ => Cmd::Print(gen_aexp(rng, 2, scope)),
        };
    }
    match rng.below(10) {
        0..=2 => Cmd::seq(
            gen_cmd(rng, depth - 1, scope),
            gen_cmd(rng, depth - 1, scope),
        ),
        3 | 4 => {
            let b = gen_bexp(rng, scope);
            let t = gen_cmd(rng, depth - 1, scope);
            // Identical branches now and then, for `if-same`.
            let e = if rng.chance(1, 5) {
                t.clone()
            } else {
                gen_cmd(rng, depth - 1, scope)
            };
            Cmd::if_(b, t, e)
        }
        5 => {
            let x = format!("v{}", scope.len());
            let init = Aexp::Num(rng.below(4) as i64);
            scope.push(Var {
                name: x.clone(),
                writable: false,
            });
            let body = Cmd::seq(
                gen_cmd(rng, depth.saturating_sub(2), scope),
                Cmd::Assign(x.clone(), Aexp::sub(Aexp::var(x.clone()), Aexp::Num(1))),
            );
            scope.pop();
            Cmd::local(
                x.clone(),
                init,
                Cmd::while_(Bexp::le(Aexp::Num(1), Aexp::var(x)), body),
            )
        }
        6 | 7 => {
            let x = format!("v{}", scope.len());
            let init = gen_aexp(rng, 2, scope);
            scope.push(Var {
                name: x.clone(),
                writable: true,
            });
            let body = gen_cmd(rng, depth - 1, scope);
            scope.pop();
            Cmd::local(x, init, body)
        }
        _ => gen_cmd(rng, 0, scope),
    }
}

fn gen_aexp(rng: &mut Rng, depth: u32, scope: &[Var]) -> Aexp {
    if depth == 0 || rng.chance(2, 5) {
        if !scope.is_empty() && rng.chance(1, 2) {
            return Aexp::var(rng.pick(scope).name.clone());
        }
        return Aexp::Num(rng.below(6) as i64 - 1);
    }
    let a = gen_aexp(rng, depth - 1, scope);
    let b = gen_aexp(rng, depth - 1, scope);
    match rng.below(3) {
        0 => Aexp::add(a, b),
        1 => Aexp::sub(a, b),
        _ => Aexp::mul(a, b),
    }
}

fn gen_bexp(rng: &mut Rng, scope: &[Var]) -> Bexp {
    let (a, b) = (gen_aexp(rng, 1, scope), gen_aexp(rng, 1, scope));
    match rng.below(4) {
        0 => Bexp::eq(a, b),
        1 => Bexp::not(Bexp::le(a, b)),
        _ => Bexp::le(a, b),
    }
}

/// Replaces one command subtree, chosen uniformly, with a fresh one
/// generated in that subtree's scope.
fn edit(rng: &mut Rng, c: &Cmd) -> Cmd {
    let target = rng.below(count(c) as u64) as usize;
    let mut scope = Vec::new();
    replace(rng, c, &mut { target }, &mut scope)
}

/// Replaceable command positions. A loop body is `seq c (x := x - 1)`;
/// only `c` is open to edits, so every loop still counts down.
fn count(c: &Cmd) -> usize {
    1 + match c {
        Cmd::Seq(a, b) | Cmd::If(_, a, b) => count(a) + count(b),
        Cmd::While(_, a) => match &**a {
            Cmd::Seq(inner, _) => count(inner),
            _ => 0,
        },
        Cmd::Local(_, _, a) => count(a),
        _ => 0,
    }
}

fn replace(rng: &mut Rng, c: &Cmd, k: &mut usize, scope: &mut Vec<Var>) -> Cmd {
    if *k == 0 {
        *k = usize::MAX;
        return gen_cmd(rng, EDIT_DEPTH, scope);
    }
    *k = k.wrapping_sub(1);
    match c {
        Cmd::Seq(a, b) => Cmd::seq(replace(rng, a, k, scope), replace(rng, b, k, scope)),
        Cmd::If(t, a, b) => Cmd::if_(
            t.clone(),
            replace(rng, a, k, scope),
            replace(rng, b, k, scope),
        ),
        Cmd::While(t, a) => match &**a {
            Cmd::Seq(inner, dec) => Cmd::while_(
                t.clone(),
                Cmd::seq(replace(rng, inner, k, scope), (**dec).clone()),
            ),
            _ => c.clone(),
        },
        Cmd::Local(x, e, a) => {
            // A local whose body is a countdown loop on it is a loop
            // counter: keep it read-only inside.
            let writable = !matches!(&**a, Cmd::While(Bexp::Le(l, r), _)
                if **l == Aexp::Num(1) && **r == Aexp::var(x.clone()));
            scope.push(Var {
                name: x.clone(),
                writable,
            });
            let body = replace(rng, a, k, scope);
            scope.pop();
            Cmd::local(x.clone(), e.clone(), body)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let p = prefix(5);
        assert_eq!(p, prefix(5));
        let a = items(5, 2, &p);
        let b = items(5, 2, &p);
        assert!(a.iter().zip(&b).all(|(x, y)| x.program == y.program));
        assert_ne!(prefix(6), p);
        let mut seen: Vec<&Cmd> = p.iter().collect();
        let mut resubmitted = 0;
        for i in &a {
            if seen.contains(&&i.program) {
                resubmitted += 1;
            } else {
                seen.push(&i.program);
            }
        }
        assert!(resubmitted > PER_ROUND / 4 && resubmitted < PER_ROUND / 2);
    }

    #[test]
    fn every_generated_program_runs_to_completion() {
        let p = prefix(9);
        for item in items(9, 0, &p).iter().take(300) {
            assert!(imp::run(&item.program, FUEL).is_ok(), "{}", item.program);
        }
    }

    #[test]
    fn check_accepts_real_outputs_and_rejects_a_changed_trace() {
        let p = prefix(4);
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).unwrap();
        let engine = Engine::new(sig, &rules);
        let mut rec = Recorder::new(true);
        let mut checked = 0;
        for item in items(4, 0, &p).iter().take(40) {
            let (term, cmd) = pipeline(&engine, &item.program, &mut rec).unwrap();
            assert!(matches!(
                check(&item.program, &term, &cmd, Some(&rules)),
                Verdict::Pass
            ));
            let changed = Cmd::seq(cmd.clone(), Cmd::Print(Aexp::Num(7)));
            assert!(matches!(
                check(&item.program, &term, &changed, None),
                Verdict::Fail(_)
            ));
            checked += 1;
        }
        assert_eq!(checked, 40);
    }

    #[test]
    fn check_rejects_a_term_the_uncached_engine_does_not_produce() {
        let p = prefix(4);
        let sig = imp::signature();
        let rules = imp_opt::rules(sig).unwrap();
        let engine = Engine::new(sig, &rules);
        let item = &items(4, 0, &p)[0];
        let (_, cmd) = pipeline(&engine, &item.program, &mut Recorder::new(false)).unwrap();
        let other = imp::encode(&Cmd::seq(cmd.clone(), Cmd::Skip)).unwrap();
        assert!(matches!(
            check(&item.program, &other, &cmd, Some(&rules)),
            Verdict::Fail(_)
        ));
    }
}
