//! `lp-preserve`: type preservation for seeded closed λ-terms, run on the
//! STLC `of`/`eval` program by the λProlog machine with certified tabling.
//! Each item asks `of M ?T`; for a typable `M` it then asks `eval M ?V` and
//! `of V ?T'`, and prints the answers.
//!
//! Every round also runs the same fixed subjects first. Their principal
//! types have several distinct type variables, which the printer renders
//! with one shared name (the solver renames clause variables apart but
//! keeps their hints, and a metavariable prints as its hint alone). On
//! these subjects the printed type must read back as the principal type,
//! so each of them fails on every run until that fault is mended. On the
//! seeded subjects the printed type is only required to read back as an
//! instance of the principal type, because how many of them the fault
//! touches depends on the seed; the answer itself is checked exactly,
//! variable by variable.

use crate::harness::{self, Recorder, Verdict};
use crate::rng::Rng;
use hoas_core::ctx::Ctx;
use hoas_core::parse::{self, MetaTable};
use hoas_core::sig::Signature;
use hoas_core::{print, typeck, StoreHandle, Sym, Term, Ty};
use hoas_langs::miniml::{self, Exp};
use hoas_langs::miniml_types::{self, MlTy};
use hoas_lp::solve::{query_menv, solve_certified, SolveConfig};
use hoas_lp::{Clause, Goal, Outcome, Program, ProgramCert, TableMode};
use std::time::Instant;

/// Seeded subjects per round, and their size in λ-term nodes.
const PER_ROUND: usize = 300;
pub const SIZE: usize = 12;

/// The fixed subjects every round starts with.
pub fn fixed() -> Vec<Exp> {
    let (x0, x1, x2, x3) = (v("x0"), v("x1"), v("x2"), v("x3"));
    vec![
        // λx0 x1. (λx2 x3. x3) (x0 x1 x1) : ('a → 'a → 'b) → 'a → 'c → 'c
        lam(
            "x0",
            lam(
                "x1",
                app(
                    lam("x2", lam("x3", x3.clone())),
                    app(app(x0.clone(), x1.clone()), x1.clone()),
                ),
            ),
        ),
        // λx0 x1 x2. x0 (x1 x2) : ('a → 'b) → ('c → 'a) → 'c → 'b
        lam("x0", lam("x1", lam("x2", app(x0.clone(), app(x1, x2))))),
        // λx0 x1. (λx2 x3. x1) (λx2 x3. x1) : 'a → 'b → 'c → 'b
        lam(
            "x0",
            lam(
                "x1",
                app(lam("x2", lam("x3", v("x1"))), lam("x2", lam("x3", v("x1")))),
            ),
        ),
    ]
}

fn v(x: &str) -> Exp {
    Exp::var(x)
}
fn lam(x: &str, b: Exp) -> Exp {
    Exp::lam(x, b)
}
fn app(f: Exp, a: Exp) -> Exp {
    Exp::app(f, a)
}

pub struct Item {
    pub subject: Exp,
    pub text: String,
    /// The printed type must read back as the principal type itself.
    pub strict: bool,
}

/// The inputs of round `round`: the fixed subjects, then seeded ones.
pub fn items(seed: u64, round: u64) -> Vec<Item> {
    let mut rng = Rng::stream(seed, round);
    let seeded = (0..PER_ROUND).map(|_| gen_closed(&mut rng, SIZE));
    fixed()
        .into_iter()
        .map(|e| (e, true))
        .chain(seeded.map(|e| (e, false)))
        .map(|(subject, strict)| Item {
            text: text(&subject),
            subject,
            strict,
        })
        .collect()
}

/// STLC typing and call-by-value evaluation in one program.
pub fn program() -> Result<Program, String> {
    let sig = Signature::parse(
        "type tm. type tp. type o.
         const arr : tp -> tp -> tp. const base : tp.
         const lam : (tm -> tm) -> tm. const app : tm -> tm -> tm.
         const of : tm -> tp -> o. const eval : tm -> tm -> o.",
    )
    .map_err(|e| e.to_string())?;
    let mut prog = Program::new(sig);
    let clause = |prog: &Program, vars: &[(&str, &str)], head: &str, body: &[&str]| {
        Clause::parse(prog.sig(), vars, head, body).map_err(|e| e.to_string())
    };
    let c = clause(
        &prog,
        &[("M", "tm"), ("N", "tm"), ("A", "tp"), ("B", "tp")],
        "of (app ?M ?N) ?B",
        &["of ?M (arr ?A ?B)", "of ?N ?A"],
    )?;
    prog.push(c);
    // of (lam ?F) (arr ?A ?B) :- pi x. (of x ?A => of (?F x) ?B).
    let mut table = MetaTable::new();
    let (f, a, b) = (
        table.get_or_insert("F"),
        table.get_or_insert("A"),
        table.get_or_insert("B"),
    );
    let head = parse::parse_term_with(prog.sig(), "of (lam ?F) (arr ?A ?B)", table)
        .map_err(|e| e.to_string())?;
    let tm = Ty::base("tm");
    let hyp = Clause {
        vars: vec![],
        head: Term::apps(Term::cnst("of"), [Term::Var(0), Term::Meta(a)]),
        body: Goal::True,
    };
    let concl = Goal::Atom(Term::apps(
        Term::cnst("of"),
        [Term::app(Term::Meta(f), Term::Var(0)), Term::Meta(b)],
    ));
    prog.push(Clause {
        vars: vec![
            (Sym::new("F"), Ty::arrow(tm.clone(), tm.clone())),
            (Sym::new("A"), Ty::base("tp")),
            (Sym::new("B"), Ty::base("tp")),
        ],
        head: head.term,
        body: Goal::pi("x", tm, Goal::implies(hyp, concl)),
    });
    let c = clause(&prog, &[("F", "tm -> tm")], "eval (lam ?F) (lam ?F)", &[])?;
    prog.push(c);
    let c = clause(
        &prog,
        &[
            ("M", "tm"),
            ("N", "tm"),
            ("V", "tm"),
            ("F", "tm -> tm"),
            ("U", "tm"),
        ],
        "eval (app ?M ?N) ?V",
        &["eval ?M (lam ?F)", "eval ?N ?U", "eval (?F ?U) ?V"],
    )?;
    prog.push(c);
    Ok(prog)
}

/// What the program answered for one subject.
pub struct Output {
    /// `?T`, and its printed form; `None` when `of M ?T` has no answer.
    ty: Option<(Term, String)>,
    /// `?V` and `?T'`, each with its printed form.
    value: Option<(Term, String)>,
    value_ty: Option<(Term, String)>,
}

/// The set-up a round makes once: the program, its mode certificate and
/// the solver configuration.
pub struct Machine {
    prog: Program,
    cert: ProgramCert,
    cfg: SolveConfig,
}

impl Machine {
    pub fn new(rec: &mut Recorder) -> Result<Machine, String> {
        let prog = program()?;
        let modes = rec.time(harness::MODES_US, || hoas_analyze::analyze_program(&prog));
        Ok(Machine {
            prog,
            cert: modes.cert,
            cfg: SolveConfig {
                table: TableMode::Certified,
                ..SolveConfig::default()
            },
        })
    }

    /// Runs one item untimed and checks it.
    #[cfg(test)]
    pub fn solve_and_check(&self, item: &Item, rec: &mut Recorder) -> Verdict {
        match self.pipeline(&item.text, rec) {
            Ok(out) => check(self.prog.sig(), item, &out),
            Err(e) => Verdict::Fail(format!("{}: {e}", item.text)),
        }
    }

    fn pipeline(&self, subject: &str, rec: &mut Recorder) -> Result<Output, String> {
        let Machine { prog, cert, cfg } = self;
        let sig = prog.sig();
        let query = |rec: &mut Recorder, src: String, var: &str, ty: &str| {
            rec.parse(src.len(), &[harness::LP_QUERY_US], || {
                query_menv(sig, &src, &[(var, ty)])
            })
            .map_err(|e| e.to_string())
        };
        let solve =
            |rec: &mut Recorder, metric, (goal, menv): &(Goal, _)| -> Result<Outcome, String> {
                let out = rec
                    .time(metric, || solve_certified(prog, menv, goal, cfg, cert))
                    .map_err(|e| e.to_string())?;
                rec.add(harness::LP_TABLE_HITS, out.tables.hits as f64);
                rec.add(
                    harness::LP_TABLE_VARIANT_MISSES,
                    out.tables.variant_misses as f64,
                );
                rec.add(harness::LP_TABLE_SUSPENSIONS, out.tables.suspensions as f64);
                rec.add(
                    harness::LP_TABLE_ANSWERS_REUSED,
                    out.tables.answers_reused as f64,
                );
                if out.incomplete() || out.floundered {
                    return Err(format!("inconclusive search (cut {:?})", out.cut));
                }
                Ok(out)
            };
        let answer = |rec: &mut Recorder, out: &Outcome, var: &str| {
            let t = out.answers.first()?.get(var)?.clone();
            let printed = rec.time(harness::PRINT_US, || print::term_to_string(&t));
            Some((t, printed))
        };

        let typing = query(rec, format!("of ({subject}) ?T"), "T", "tp")?;
        if let Goal::Atom(atom) = &typing.0 {
            rec.time(harness::TYPECK_US, || {
                typeck::check(sig, &typing.1, &Ctx::new(), atom, &Ty::base("o"))
            })
            .map_err(|e| e.to_string())?;
        }
        let out = solve(rec, harness::LP_SOLVE_OF_US, &typing)?;
        let Some(ty) = answer(rec, &out, "T") else {
            return Ok(Output {
                ty: None,
                value: None,
                value_ty: None,
            });
        };
        let evaluation = query(rec, format!("eval ({subject}) ?V"), "V", "tm")?;
        let out = solve(rec, harness::LP_SOLVE_EVAL_US, &evaluation)?;
        let value = answer(rec, &out, "V");
        let value_ty = match &value {
            Some((_, printed)) => {
                let q = query(rec, format!("of ({printed}) ?T"), "T", "tp")?;
                let out = solve(rec, harness::LP_SOLVE_OF_US, &q)?;
                answer(rec, &out, "T")
            }
            None => None,
        };
        Ok(Output {
            ty: Some(ty),
            value,
            value_ty,
        })
    }
}

pub fn run(seed: u64, seconds: u64, rec: &mut Recorder) -> Result<(), String> {
    harness::drive(seconds, rec, |round, rec| {
        let items = items(seed, round);
        StoreHandle::isolated().enter(|| -> Result<(), String> {
            let t = Instant::now();
            let machine = Machine::new(rec)?;
            rec.setup(t.elapsed());
            for item in &items {
                rec.item_start();
                let out = machine.pipeline(&item.text, rec);
                rec.item_stop();
                let verdict = match out {
                    Ok(out) => check(machine.prog.sig(), item, &out),
                    Err(e) => Verdict::Fail(format!("{}: {e}", item.text)),
                };
                rec.verdict(verdict);
            }
            rec.round_end();
            Ok(())
        })
    })
}

/// Checks one subject's answers against Mini-ML type inference and the
/// native evaluator, both computed apart from the λProlog program.
fn check(sig: &Signature, item: &Item, out: &Output) -> Verdict {
    let fail = |why: String| Verdict::Fail(format!("{}: {why}", item.text));
    let principal = miniml_types::infer(&item.subject);
    let (ty, printed) = match (&out.ty, &principal) {
        (None, Err(_)) => return Verdict::Pass,
        (Some(_), Err(e)) => return fail(format!("typed, but inference rejects it: {}", e.0)),
        (None, Ok(p)) => return fail(format!("no type, but inference gives {p}")),
        (Some(t), Ok(_)) => t,
    };
    let principal = canonical(principal.as_ref().expect("matched Ok above"));
    match ml_ty(ty) {
        Some(t) if canonical(&t) == principal => {}
        _ => {
            return fail(format!(
                "?T = {printed} is not the principal type {principal}"
            ))
        }
    }
    let Some((value, _)) = &out.value else {
        return fail("a typable term has no value".into());
    };
    let mut fuel = 1_000_000;
    let expected = miniml::eval_native(&item.subject, &mut fuel)
        .map_err(|e| e.to_string())
        .and_then(|e| parse::parse_term(sig, &text(&e)).map_err(|e| e.to_string()));
    match expected {
        Ok(p) if &p.term == value => {}
        _ => return fail(format!("?V = {value} differs from the native evaluator")),
    }
    match out.value_ty.as_ref().and_then(|(t, _)| ml_ty(t)) {
        Some(t2) if instance_of(&principal, &t2) => {}
        _ => return fail("the value's type is not at least as general as ?T".into()),
    }
    let read_back = parse::parse_term(sig, printed)
        .ok()
        .and_then(|p| ml_ty(&p.term))
        .map(|t| canonical(&t));
    match read_back {
        Some(t) if t == principal => Verdict::Pass,
        Some(t) if instance_of(&t, &principal) && item.strict => Verdict::KnownFault,
        Some(t) if instance_of(&t, &principal) => Verdict::Pass,
        _ => fail(format!(
            "printed ?T = {printed} does not read back as {principal}"
        )),
    }
}

/// A `tp` term as a Mini-ML type, one type variable per distinct
/// metavariable (by identity, not by printed name).
fn ml_ty(t: &Term) -> Option<MlTy> {
    match t.spine() {
        (Term::Const(c), args) if c.as_str() == "arr" && args.len() == 2 => {
            Some(MlTy::arrow(ml_ty(args[0])?, ml_ty(args[1])?))
        }
        (Term::Const(c), args) if c.as_str() == "base" && args.is_empty() => Some(MlTy::Nat),
        (Term::Meta(m), args) if args.is_empty() => Some(MlTy::Var(m.id())),
        _ => None,
    }
}

/// Renames type variables to `0, 1, …` in order of first occurrence.
fn canonical(t: &MlTy) -> MlTy {
    fn go(t: &MlTy, seen: &mut Vec<u32>) -> MlTy {
        match t {
            MlTy::Nat => MlTy::Nat,
            MlTy::Var(v) => {
                let i = seen.iter().position(|w| w == v).unwrap_or_else(|| {
                    seen.push(*v);
                    seen.len() - 1
                });
                MlTy::Var(i as u32)
            }
            MlTy::Arrow(a, b) => {
                let a = go(a, seen);
                MlTy::arrow(a, go(b, seen))
            }
        }
    }
    go(t, &mut Vec::new())
}

/// Whether `specific` is `general` with its variables substituted.
fn instance_of(specific: &MlTy, general: &MlTy) -> bool {
    fn go<'a>(s: &'a MlTy, g: &MlTy, sub: &mut Vec<(u32, &'a MlTy)>) -> bool {
        match (s, g) {
            (_, MlTy::Var(v)) => match sub.iter().find(|(w, _)| w == v) {
                Some((_, bound)) => *bound == s,
                None => {
                    sub.push((*v, s));
                    true
                }
            },
            (MlTy::Nat, MlTy::Nat) => true,
            (MlTy::Arrow(a, b), MlTy::Arrow(c, d)) => go(a, c, sub) && go(b, d, sub),
            _ => false,
        }
    }
    go(specific, general, &mut Vec::new())
}

/// A closed λ-term of about `size` nodes (the Mini-ML subset `x`, `fn`,
/// application).
fn gen_closed(rng: &mut Rng, size: usize) -> Exp {
    fn go(rng: &mut Rng, budget: usize, depth: usize) -> Exp {
        let var = |rng: &mut Rng| Exp::var(format!("x{}", rng.below(depth as u64)));
        if budget <= 1 && depth > 0 {
            return var(rng);
        }
        let choice = match (depth, budget) {
            (0, _) => rng.below(4),
            (_, 0..=3) => rng.below(10),
            _ => rng.below(8),
        };
        match choice {
            0..=3 => Exp::lam(format!("x{depth}"), go(rng, budget - 1, depth + 1)),
            4..=7 => {
                let left = (budget - 1) / 2;
                Exp::app(
                    go(rng, left.max(1), depth),
                    go(rng, (budget - 1 - left).max(1), depth),
                )
            }
            _ => var(rng),
        }
    }
    go(rng, size.max(2), 0)
}

/// Metalanguage text of a λ-term over the `lam`/`app` signature.
fn text(e: &Exp) -> String {
    fn go(e: &Exp, out: &mut String) {
        match e {
            Exp::Var(x) => out.push_str(x),
            Exp::Lam(x, b) => {
                out.push_str(&format!("lam (\\{x}. "));
                go(b, out);
                out.push(')');
            }
            Exp::App(f, a) => {
                out.push_str("app (");
                go(f, out);
                out.push_str(") (");
                go(a, out);
                out.push(')');
            }
            other => out.push_str(&format!("<not a λ-term: {other}>")),
        }
    }
    let mut s = String::new();
    go(e, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_one(item: &Item) -> (Signature, Output) {
        let m = Machine::new(&mut Recorder::new(false)).unwrap();
        let out = m.pipeline(&item.text, &mut Recorder::new(true)).unwrap();
        (m.prog.sig().clone(), out)
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = items(11, 1);
        let b = items(11, 1);
        assert_eq!(a.len(), fixed().len() + PER_ROUND);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert_ne!(items(12, 1)[fixed().len()].text, a[fixed().len()].text);
        let typable = a
            .iter()
            .filter(|i| miniml_types::well_typed(&i.subject))
            .count();
        assert!(
            typable > PER_ROUND / 5 && typable < PER_ROUND / 2,
            "{typable}"
        );
    }

    #[test]
    fn fixed_subjects_show_the_printing_fault() {
        // As a round runs them: in a fresh store, one after another.
        StoreHandle::isolated().enter(|| {
            let m = Machine::new(&mut Recorder::new(false)).unwrap();
            for item in items(1, 0).iter().filter(|i| i.strict) {
                let v = m.solve_and_check(item, &mut Recorder::new(false));
                assert!(matches!(v, Verdict::KnownFault), "{}", item.text);
            }
        });
    }

    #[test]
    fn check_accepts_real_outputs() {
        StoreHandle::isolated().enter(|| {
            for item in items(2, 0).iter().filter(|i| !i.strict).take(60) {
                let (sig, out) = solve_one(item);
                let v = check(&sig, item, &out);
                assert!(matches!(v, Verdict::Pass), "{}", item.text);
            }
        });
    }

    #[test]
    fn check_rejects_an_over_specialised_type() {
        StoreHandle::isolated().enter(|| {
            // λx. x : 'a → 'a, answered as base → base.
            let item = Item {
                subject: lam("x", v("x")),
                text: text(&lam("x", v("x"))),
                strict: false,
            };
            let (sig, mut out) = solve_one(&item);
            assert!(matches!(check(&sig, &item, &out), Verdict::Pass));
            let base = parse::parse_term(&sig, "arr base base").unwrap().term;
            out.ty = Some((base, "arr base base".into()));
            assert!(matches!(check(&sig, &item, &out), Verdict::Fail(_)));
        });
    }

    #[test]
    fn check_rejects_a_wrong_value_and_a_missing_type() {
        StoreHandle::isolated().enter(|| {
            let k = lam("x", lam("y", v("x")));
            let subject = app(lam("z", v("z")), k);
            let item = Item {
                text: text(&subject),
                subject,
                strict: false,
            };
            let (sig, out) = solve_one(&item);
            assert!(matches!(check(&sig, &item, &out), Verdict::Pass));
            let wrong = parse::parse_term(&sig, r"lam (\x. x)").unwrap().term;
            let bad = Output {
                ty: out.ty.clone(),
                value: Some((wrong, String::new())),
                value_ty: out.value_ty.clone(),
            };
            assert!(matches!(check(&sig, &item, &bad), Verdict::Fail(_)));
            let untyped = Output {
                ty: None,
                value: None,
                value_ty: None,
            };
            assert!(matches!(check(&sig, &item, &untyped), Verdict::Fail(_)));
        });
    }
}
