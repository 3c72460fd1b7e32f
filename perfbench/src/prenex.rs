//! `prenex-cold`: distinct first-order formulas, given as metalanguage
//! text, are parsed, type-checked, moved to prenex form by the
//! `fol_prenex` rules, decoded and printed. Each round runs in a fresh
//! term store with a fresh engine, so the memo layers mostly miss and the
//! store mostly inserts.

use crate::harness::{self, Recorder, Verdict};
use crate::rng::Rng;
use hoas_core::sig::Signature;
use hoas_core::{parse, print, typeck, StoreHandle, Term};
use hoas_langs::fol::{self, FoTerm, Formula, Model, Vocabulary};
use hoas_rewrite::rulesets::fol_prenex;
use hoas_rewrite::Engine;
use std::time::Instant;

/// Formulas per round.
const PER_ROUND: usize = 400;
/// Connective depth of a generated formula.
const DEPTH: u32 = 5;
/// Finite models each output is compared on, and their universe size.
const MODELS: usize = 4;
const MODEL_SIZE: usize = 3;

pub struct Item {
    pub formula: Formula,
    pub text: String,
    models_seed: u64,
}

pub struct Output {
    term: Term,
    fixpoint: bool,
    formula: Formula,
    printed: String,
}

/// The inputs of round `round` of a run seeded with `seed`.
pub fn items(seed: u64, round: u64) -> Vec<Item> {
    let mut rng = Rng::stream(seed, round);
    (0..PER_ROUND)
        .map(|_| {
            let formula = gen_formula(&mut rng, DEPTH, &mut Vec::new());
            let mut text = String::new();
            write_formula(&formula, &mut text);
            Item {
                formula,
                text,
                models_seed: rng.next_u64(),
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, rec: &mut Recorder) -> Result<(), String> {
    let vocab = Vocabulary::small();
    harness::drive(seconds, rec, |round, rec| {
        let items = items(seed, round);
        StoreHandle::isolated().enter(|| -> Result<(), String> {
            let t = Instant::now();
            let sig = vocab.signature();
            let rules = fol_prenex::rules(&sig).map_err(|e| e.to_string())?;
            let sct = rec.time(harness::TERMINATION_US, || {
                hoas_analyze::analyze_ruleset(&rules)
            });
            let mut engine = Engine::new(&sig, &rules);
            if let Some(cert) = &sct.cert {
                engine.attach_certificate(cert);
            }
            rec.setup(t.elapsed());
            for item in &items {
                rec.item_start();
                let out = pipeline(&sig, &engine, &item.text, rec);
                rec.item_stop();
                let verdict = match out {
                    Ok(out) => check(&sig, &vocab, item, &out),
                    Err(e) => Verdict::Fail(format!("{}: {e}", item.text)),
                };
                rec.verdict(verdict);
            }
            rec.round_end();
            Ok(())
        })
    })
}

fn pipeline(
    sig: &Signature,
    engine: &Engine<'_>,
    text: &str,
    rec: &mut Recorder,
) -> Result<Output, String> {
    let parsed = rec
        .parse(text.len(), &[], || parse::parse_term(sig, text))
        .map_err(|e| e.to_string())?;
    rec.time(harness::TYPECK_US, || {
        typeck::check_closed(sig, &parsed.term, &fol::o())
    })
    .map_err(|e| e.to_string())?;
    let res = rec
        .time(harness::NORMALIZE_US, || {
            engine.normalize(&fol::o(), &parsed.term)
        })
        .map_err(|e| e.to_string())?;
    rec.engine(res.steps, &res.stats);
    let formula = rec
        .time(harness::DECODE_US, || fol::decode(&res.term))
        .map_err(|e| e.to_string())?;
    let printed = rec.time(harness::PRINT_US, || print::term_to_string(&res.term));
    Ok(Output {
        term: res.term,
        fixpoint: res.fixpoint,
        formula,
        printed,
    })
}

/// The output is in prenex form, prints back to itself, and has the
/// input's truth value on seeded finite models.
fn check(sig: &Signature, vocab: &Vocabulary, item: &Item, out: &Output) -> Verdict {
    if !out.fixpoint {
        return Verdict::Fail(format!("{}: step budget ran out", item.text));
    }
    if !out.formula.is_prenex() {
        return Verdict::Fail(format!("{}: not prenex: {}", item.text, out.formula));
    }
    match parse::parse_term(sig, &out.printed) {
        Ok(p) if p.term == out.term => {}
        _ => {
            return Verdict::Fail(format!(
                "printed output does not read back: {}",
                out.printed
            ))
        }
    }
    let mut rng = Rng::new(item.models_seed);
    for _ in 0..MODELS {
        let m = Model::random(vocab, MODEL_SIZE, &mut rng);
        match (m.eval_closed(&item.formula), m.eval_closed(&out.formula)) {
            (Ok(a), Ok(b)) if a == b => {}
            _ => {
                return Verdict::Fail(format!(
                    "truth value changed: {} vs {}",
                    item.formula, out.formula
                ))
            }
        }
    }
    Verdict::Pass
}

/// A closed formula over [`Vocabulary::small`] with quantifiers at every
/// level, so that the prenex rules have binders to move.
fn gen_formula(rng: &mut Rng, depth: u32, bound: &mut Vec<String>) -> Formula {
    if depth == 0 || (depth < DEPTH - 1 && rng.chance(1, 6)) {
        return gen_atom(rng, bound);
    }
    let sub = |rng: &mut Rng, bound: &mut Vec<String>| gen_formula(rng, depth - 1, bound);
    match rng.below(9) {
        0 | 1 => Formula::and(sub(rng, bound), sub(rng, bound)),
        2 | 3 => Formula::or(sub(rng, bound), sub(rng, bound)),
        4 => Formula::imp(sub(rng, bound), sub(rng, bound)),
        5 => Formula::not(sub(rng, bound)),
        q => {
            let x = format!("x{}", bound.len());
            bound.push(x.clone());
            let body = sub(rng, bound);
            bound.pop();
            if q == 8 {
                Formula::exists(x, body)
            } else {
                Formula::forall(x, body)
            }
        }
    }
}

fn gen_atom(rng: &mut Rng, bound: &[String]) -> Formula {
    let (p, arity) = *rng.pick(&[("p", 1), ("q", 2), ("r", 0)]);
    let args = (0..arity).map(|_| gen_fo_term(rng, 1, bound)).collect();
    Formula::Pred(p.to_string(), args)
}

fn gen_fo_term(rng: &mut Rng, depth: u32, bound: &[String]) -> FoTerm {
    if !bound.is_empty() && (depth == 0 || rng.chance(2, 3)) {
        return FoTerm::Var(rng.pick(bound).clone());
    }
    match (depth, rng.below(4)) {
        (0, k) | (_, k @ 0..=1) => FoTerm::Fun(["a", "b"][k as usize % 2].to_string(), vec![]),
        (_, 2) => FoTerm::Fun("f".into(), vec![gen_fo_term(rng, depth - 1, bound)]),
        _ => FoTerm::Fun(
            "g".into(),
            vec![
                gen_fo_term(rng, depth - 1, bound),
                gen_fo_term(rng, depth - 1, bound),
            ],
        ),
    }
}

/// Metalanguage text of a formula, written by the benchmark itself so the
/// program's own encoder and printer play no part in making the input.
fn write_formula(f: &Formula, out: &mut String) {
    let node = |c: &str, args: &[&Formula], out: &mut String| {
        out.push_str(c);
        for a in args {
            out.push_str(" (");
            write_formula(a, out);
            out.push(')');
        }
    };
    match f {
        Formula::Pred(p, args) => {
            out.push_str(p);
            for a in args {
                out.push(' ');
                write_fo_term(a, out);
            }
        }
        Formula::And(a, b) => node("and", &[a, b], out),
        Formula::Or(a, b) => node("or", &[a, b], out),
        Formula::Imp(a, b) => node("imp", &[a, b], out),
        Formula::Not(a) => node("not", &[a], out),
        Formula::Forall(x, a) | Formula::Exists(x, a) => {
            let q = if matches!(f, Formula::Forall(..)) {
                "forall"
            } else {
                "exists"
            };
            out.push_str(&format!("{q} (\\{x}. "));
            write_formula(a, out);
            out.push(')');
        }
    }
}

fn write_fo_term(t: &FoTerm, out: &mut String) {
    match t {
        FoTerm::Var(x) => out.push_str(x),
        FoTerm::Fun(c, args) if args.is_empty() => out.push_str(c),
        FoTerm::Fun(c, args) => {
            out.push('(');
            out.push_str(c);
            for a in args {
                out.push(' ');
                write_fo_term(a, out);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = items(7, 3);
        let b = items(7, 3);
        assert_eq!(a.len(), PER_ROUND);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.text == y.text && x.formula == y.formula));
        assert_ne!(items(8, 3)[0].text, a[0].text);
        assert_ne!(items(7, 4)[0].text, a[0].text);
    }

    #[test]
    fn generated_text_parses_to_the_generated_formula() {
        let sig = Vocabulary::small().signature();
        for item in items(1, 0).iter().take(50) {
            let t = parse::parse_term(&sig, &item.text).unwrap().term;
            assert!(
                fol::decode(&t).unwrap().alpha_eq(&item.formula),
                "{}",
                item.text
            );
        }
    }

    fn run_one(item: &Item) -> (Signature, Output) {
        let sig = Vocabulary::small().signature();
        let rules = fol_prenex::rules(&sig).unwrap();
        let engine = Engine::new(&sig, &rules);
        let out = pipeline(&sig, &engine, &item.text, &mut Recorder::new(true)).unwrap();
        (sig, out)
    }

    #[test]
    fn check_accepts_real_outputs_and_rejects_a_non_prenex_one() {
        let vocab = Vocabulary::small();
        let item = items(2, 0)
            .into_iter()
            .find(|i| !i.formula.is_prenex())
            .unwrap();
        let (sig, out) = run_one(&item);
        assert!(matches!(check(&sig, &vocab, &item, &out), Verdict::Pass));
        // The input itself has the right truth value but is not prenex.
        let term = fol::encode(&item.formula).unwrap();
        let bad = Output {
            printed: print::term_to_string(&term),
            term,
            fixpoint: true,
            formula: item.formula.clone(),
        };
        assert!(matches!(check(&sig, &vocab, &item, &bad), Verdict::Fail(_)));
    }
}
