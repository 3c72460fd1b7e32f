//! `miniml-eval`: Mini-ML arithmetic programs (`add`, `mul` and `fact` on
//! numerals) are encoded, evaluated by `eval_hoas` — whose only
//! substitution is metalanguage β, done by hereditary substitution in the
//! kernel — and decoded. The rewrite engine and the solver play no part.

use crate::harness::{self, Recorder, Verdict};
use crate::rng::Rng;
use hoas_core::{typeck, StoreHandle};
use hoas_langs::miniml::{self, Exp};
use hoas_langs::miniml_types;
use std::time::Instant;

/// Programs per round.
const PER_ROUND: usize = 300;
/// No subexpression of a program computes a number above this, which
/// bounds the work of one item.
const CAP: u64 = 120;
/// Nesting depth of the arithmetic.
const DEPTH: u32 = 2;
const FUEL: u64 = 10_000_000;

/// A program in the arithmetic the Mini-ML library provides.
#[derive(Clone, PartialEq, Debug)]
pub enum Arith {
    Num(u64),
    Add(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
    Fact(Box<Arith>),
}

impl Arith {
    /// The value, computed directly (`None` above [`CAP`]).
    pub fn value(&self) -> Option<u64> {
        let v = match self {
            Arith::Num(n) => *n,
            Arith::Add(a, b) => a.value()? + b.value()?,
            Arith::Mul(a, b) => a.value()? * b.value()?,
            Arith::Fact(a) => {
                (1..=a.value()?).try_fold(1, |p: u64, k| p.checked_mul(k).filter(|&p| p <= CAP))?
            }
        };
        (v <= CAP).then_some(v)
    }

    pub fn to_exp(&self) -> Exp {
        let app2 = |f: Exp, a: &Arith, b: &Arith| Exp::app(Exp::app(f, a.to_exp()), b.to_exp());
        match self {
            Arith::Num(n) => Exp::num(*n),
            Arith::Add(a, b) => app2(miniml::add_fn(), a, b),
            Arith::Mul(a, b) => app2(miniml::mul_fn(), a, b),
            Arith::Fact(a) => Exp::app(miniml::fact_fn(), a.to_exp()),
        }
    }
}

pub struct Item {
    pub program: Arith,
    pub exp: Exp,
    pub value: u64,
}

/// The inputs of round `round` of a run seeded with `seed`.
pub fn items(seed: u64, round: u64) -> Vec<Item> {
    let mut rng = Rng::stream(seed, round);
    (0..PER_ROUND)
        .map(|_| loop {
            let program = gen(&mut rng, DEPTH);
            if let Some(value) = program.value() {
                break Item {
                    exp: program.to_exp(),
                    program,
                    value,
                };
            }
        })
        .collect()
}

fn gen(rng: &mut Rng, depth: u32) -> Arith {
    let num = |rng: &mut Rng| Arith::Num(rng.below(13));
    if depth == 0 {
        return num(rng);
    }
    let sub = |rng: &mut Rng| {
        if rng.chance(1, 2) {
            num(rng)
        } else {
            gen(rng, depth - 1)
        }
    };
    match rng.below(3) {
        0 => Arith::Add(Box::new(sub(rng)), Box::new(sub(rng))),
        1 => Arith::Mul(Box::new(sub(rng)), Box::new(sub(rng))),
        _ => Arith::Fact(Box::new(sub(rng))),
    }
}

pub fn run(seed: u64, seconds: u64, rec: &mut Recorder) -> Result<(), String> {
    harness::drive(seconds, rec, |round, rec| {
        let items = items(seed, round);
        StoreHandle::isolated().enter(|| -> Result<(), String> {
            let t = Instant::now();
            prelude()?;
            rec.setup(t.elapsed());
            for item in &items {
                rec.item_start();
                let out = pipeline(&item.exp, rec);
                rec.item_stop();
                let verdict = match out {
                    Ok(v) => check(item, &v),
                    Err(e) => Verdict::Fail(format!("{:?}: {e}", item.program)),
                };
                rec.verdict(verdict);
            }
            rec.round_end();
            Ok(())
        })
    })
}

/// Type-checks the library the programs call, both as Mini-ML and as
/// encoded metalanguage terms: the evaluator's one-time work.
fn prelude() -> Result<(), String> {
    for f in [miniml::add_fn(), miniml::mul_fn(), miniml::fact_fn()] {
        miniml_types::infer(&f).map_err(|e| e.0)?;
        let t = miniml::encode(&f).map_err(|e| e.to_string())?;
        typeck::check_closed(miniml::signature(), &t, &miniml::exp()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn pipeline(e: &Exp, rec: &mut Recorder) -> Result<Exp, String> {
    let t = rec
        .time(harness::ENCODE_US, || miniml::encode(e))
        .map_err(|e| e.to_string())?;
    let mut fuel = FUEL;
    let v = rec
        .time(harness::EVAL_HOAS_US, || miniml::eval_hoas(&t, &mut fuel))
        .map_err(|e| e.to_string())?;
    rec.time(harness::DECODE_US, || miniml::decode(&v))
        .map_err(|e| e.to_string())
}

/// The value is the numeral computed directly, and the one the
/// environment machine (which does no substitution) computes.
fn check(item: &Item, out: &Exp) -> Verdict {
    let mut fuel = FUEL;
    let env = miniml::eval_env(&item.exp, &mut fuel)
        .ok()
        .and_then(|v| v.as_num());
    match (out.as_num(), env) {
        (Some(a), Some(b)) if a == item.value && b == item.value => Verdict::Pass,
        (a, b) => Verdict::Fail(format!(
            "{:?}: eval_hoas gives {a:?}, eval_env {b:?}, expected {}",
            item.program, item.value
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = items(3, 5);
        let b = items(3, 5);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.program == y.program && x.value == y.value));
        assert_ne!(items(4, 5)[0].program, a[0].program);
        assert!(a.iter().all(|i| i.value <= CAP));
    }

    #[test]
    fn check_accepts_real_outputs_and_rejects_a_wrong_numeral() {
        for item in items(1, 0).iter().take(20) {
            let out = pipeline(&item.exp, &mut Recorder::new(true)).unwrap();
            assert!(matches!(check(item, &out), Verdict::Pass));
            let wrong = Exp::num(item.value + 1);
            assert!(matches!(check(item, &wrong), Verdict::Fail(_)));
        }
    }
}
