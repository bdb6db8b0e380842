//! Compile-time lowering of prepared-rule formulas into specialized
//! pair-overlap evaluators.
//!
//! A verdict-cache *miss* pays the full generic pipeline per pair:
//! substitute → merge → declare domains → lower → DNF search
//! (`BENCH_PR5.json` records ~45 µs per uncached AR pair). Most corpus
//! formulas are trivially shaped — interval bounds on a numeric
//! attribute, equality tests on a shared actuator attribute, mode-set
//! membership, boolean literals. This module classifies each prepared
//! rule's constraint conjunction **once**, on the first verdict-cache
//! miss that asks for it, into a flat [`LoweredProgram`] (the cache-hit
//! path never compiles one); at detection time `check_pair` decides overlap
//! of two programs directly — same constant folding, same symbol
//! interning, same propagation, same entailment, same witness the solver
//! would produce — without building a solver model.
//!
//! The contract is **refuse, never guess**. Compilation refuses shapes
//! the evaluator cannot replicate exactly (arithmetic terms, unresolved
//! variable-variable joins, conjunctions nested inside disjunctions,
//! oversized disjunction products), and the evaluator refuses at check
//! time whenever the full solver would have to *branch* on a variable
//! (an atom neither entailed nor refuted at the propagation fixpoint —
//! e.g. `!=` against an interior point of a numeric interval). Every
//! refusal falls back to the untouched
//! [`OverlapSolver`] path, so a lowered
//! answer is always bit-identical — including the satisfying witness —
//! to what the solver would have returned.

use crate::overlap::{attr_domain, env_bounds, OverlapSolver};
use hg_capability::domains::{scaled, AttrDomain};
use hg_rules::constraint::{eval_const_cmp, CmpOp, Formula, Term};
use hg_rules::value::Value;
use hg_rules::varid::VarId;
use hg_solver::domain::{Dom, SymId, SymTable};
use hg_solver::expr::{NULL_SYM, OTHER_SYM};
use hg_solver::{Assignment, Outcome};
use std::collections::{BTreeMap, BTreeSet};

/// Ceiling on the disjunction-branch product of a single compiled
/// program. Two programs merge multiplicatively, so a pair check visits
/// at most `MAX_BRANCHES²` = 1024 branches — comfortably inside the
/// solver's DNF cap (4096) and node budget (200 000), which guarantees
/// the reference path can never diverge to `Outcome::Unknown` on a
/// shape the lowered tier accepts.
const MAX_BRANCHES: usize = 32;

/// One operand of a lowered atom.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    /// Index into [`LoweredProgram::vars`].
    Var(usize),
    /// An inline constant.
    Const(Value),
}

/// One comparison atom, negation already pushed into the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LoweredAtom {
    lhs: Operand,
    op: CmpOp,
    rhs: Operand,
}

/// One conjunct: a disjunction of atoms. A plain conjunct is the
/// single-branch common case.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LoweredFactor {
    branches: Vec<LoweredAtom>,
}

/// The domain a lowered variable ranges over, resolved at compile time
/// by the same rules `OverlapSolver::declare_domains` applies per solve.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DomSpec {
    /// A declared integer interval (device attribute range, environment
    /// bounds, time of day, day of week).
    Int { lo: i64, hi: i64 },
    /// A declared symbol set, kept in declaration order so check-time
    /// interning replays the solver's symbol-id assignment exactly.
    Enum(Vec<String>),
    /// The home's location modes — per-home state, read from the solver
    /// at check time (prepared rules are store-cached across homes).
    Modes,
    /// Undeclared: typed and bounded at check time exactly as the
    /// solver's `lower` pass treats undeclared variables.
    Free,
}

/// A prepared rule's constraint conjunction compiled to a flat program
/// of variable-vs-constant comparisons over an indexed register file.
///
/// Built once per prepared rule by `LoweredProgram::compile`, lazily on
/// the first cache miss that needs it (shared with every home holding the
/// same fleet-shared preparation), and consumed pairwise by the engine's
/// lowered tier. A program existing does not guarantee a
/// lowered verdict: the pairwise check can still refuse at runtime and
/// fall back to the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredProgram {
    factors: Vec<LoweredFactor>,
    vars: Vec<(VarId, DomSpec)>,
}

/// Compile-time operand before register indexing.
enum RawOperand {
    Var(VarId),
    Const(Value),
}

/// Compile-time atom before register indexing.
struct RawAtom {
    lhs: RawOperand,
    op: CmpOp,
    rhs: RawOperand,
}

impl LoweredProgram {
    /// Compiles a constraint formula, or returns `None` when the shape
    /// cannot be decided without the full solver.
    ///
    /// Negations are pushed into comparison operators (numbers fold the
    /// same under a negated operator as under negation of the folded
    /// result, so this commutes with check-time constant folding).
    /// Refused shapes: arithmetic terms, variable-variable atoms with no
    /// user-input side, conjunctions nested inside disjunctions, and
    /// disjunction products beyond [`MAX_BRANCHES`].
    pub(crate) fn compile(formula: &Formula) -> Option<LoweredProgram> {
        let mut raw: Vec<Vec<RawAtom>> = Vec::new();
        let mut is_false = false;
        collect_conjuncts(formula, false, &mut raw, &mut is_false)?;
        if is_false {
            // Constant-false program: one empty disjunction. The solver
            // collapses such formulas before scanning, so no variables
            // are registered.
            return Some(LoweredProgram {
                factors: vec![LoweredFactor {
                    branches: Vec::new(),
                }],
                vars: Vec::new(),
            });
        }
        let mut product = 1usize;
        for factor in &raw {
            product = product.saturating_mul(factor.len());
            if product > MAX_BRANCHES {
                return None;
            }
        }
        // Index variables in first-mention order (lhs before rhs within
        // an atom), mirroring the solver scan's register file.
        let mut vars: Vec<(VarId, DomSpec)> = Vec::new();
        let mut index: BTreeMap<VarId, usize> = BTreeMap::new();
        let mut factors = Vec::with_capacity(raw.len());
        for factor in raw {
            let branches = factor
                .into_iter()
                .map(|atom| LoweredAtom {
                    lhs: index_operand(atom.lhs, &mut vars, &mut index),
                    op: atom.op,
                    rhs: index_operand(atom.rhs, &mut vars, &mut index),
                })
                .collect();
            factors.push(LoweredFactor { branches });
        }
        Some(LoweredProgram { factors, vars })
    }

    /// Number of conjunctive factors in the compiled program.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }
}

fn index_operand(
    op: RawOperand,
    vars: &mut Vec<(VarId, DomSpec)>,
    index: &mut BTreeMap<VarId, usize>,
) -> Operand {
    match op {
        RawOperand::Const(v) => Operand::Const(v),
        RawOperand::Var(vid) => {
            if let Some(&idx) = index.get(&vid) {
                return Operand::Var(idx);
            }
            let idx = vars.len();
            let spec = dom_spec(&vid);
            index.insert(vid.clone(), idx);
            vars.push((vid, spec));
            Operand::Var(idx)
        }
    }
}

/// The compile-time domain for a variable, replicating
/// `OverlapSolver::declare_domains` case for case.
fn dom_spec(var: &VarId) -> DomSpec {
    match var {
        VarId::DeviceAttr { device, attribute } => match attr_domain(device, attribute) {
            Some(AttrDomain::Enum(values)) => {
                DomSpec::Enum(values.iter().map(|v| (*v).to_string()).collect())
            }
            Some(AttrDomain::Numeric { min, max, .. }) => DomSpec::Int { lo: min, hi: max },
            Some(AttrDomain::Text) | None => DomSpec::Free,
        },
        VarId::Env(p) => {
            let (lo, hi) = env_bounds(p);
            DomSpec::Int { lo, hi }
        }
        VarId::Mode => DomSpec::Modes,
        VarId::TimeOfDay => DomSpec::Int {
            lo: 0,
            hi: scaled(24 * 60),
        },
        VarId::DayOfWeek => DomSpec::Int {
            lo: 0,
            hi: scaled(6),
        },
        VarId::UserInput { .. } | VarId::State { .. } | VarId::Opaque { .. } => DomSpec::Free,
    }
}

/// Collects the conjuncts of `f` (with `negated` polarity) into `out`.
/// Returns `None` to refuse; sets `is_false` on a literal contradiction.
fn collect_conjuncts(
    f: &Formula,
    negated: bool,
    out: &mut Vec<Vec<RawAtom>>,
    is_false: &mut bool,
) -> Option<()> {
    match (f, negated) {
        (Formula::True, false) | (Formula::False, true) => {}
        (Formula::True, true) | (Formula::False, false) => *is_false = true,
        (Formula::Not(inner), n) => collect_conjuncts(inner, !n, out, is_false)?,
        (Formula::And(parts), false) => {
            for p in parts {
                collect_conjuncts(p, false, out, is_false)?;
            }
        }
        (Formula::Or(parts), true) => {
            // ¬(a ∨ b) = ¬a ∧ ¬b
            for p in parts {
                collect_conjuncts(p, true, out, is_false)?;
            }
        }
        (Formula::Cmp { lhs, op, rhs }, n) => {
            out.push(vec![raw_atom(lhs, *op, rhs, n)?]);
        }
        (Formula::Or(parts), false) | (Formula::And(parts), true) => {
            let mut branches = Vec::new();
            match collect_branches(parts, negated, &mut branches)? {
                // A literal-true branch makes the whole disjunct true.
                FactorState::True => {}
                FactorState::Live => {
                    if branches.is_empty() {
                        *is_false = true;
                    } else {
                        out.push(branches);
                    }
                }
            }
        }
    }
    Some(())
}

enum FactorState {
    Live,
    True,
}

fn collect_branches(
    parts: &[Formula],
    negated: bool,
    out: &mut Vec<RawAtom>,
) -> Option<FactorState> {
    for p in parts {
        if let FactorState::True = branch_one(p, negated, out)? {
            return Some(FactorState::True);
        }
    }
    Some(FactorState::Live)
}

fn branch_one(f: &Formula, negated: bool, out: &mut Vec<RawAtom>) -> Option<FactorState> {
    match (f, negated) {
        (Formula::True, false) | (Formula::False, true) => return Some(FactorState::True),
        (Formula::False, false) | (Formula::True, true) => {}
        (Formula::Not(inner), n) => return branch_one(inner, !n, out),
        (Formula::Cmp { lhs, op, rhs }, n) => out.push(raw_atom(lhs, *op, rhs, n)?),
        (Formula::Or(parts), false) | (Formula::And(parts), true) => {
            return collect_branches(parts, negated, out);
        }
        // A conjunction nested inside a disjunction: the flat
        // factor/branch form cannot express it — refuse.
        (Formula::And(_), false) | (Formula::Or(_), true) => return None,
    }
    Some(FactorState::Live)
}

/// A plain operand, or `None` for arithmetic terms (the solver's
/// arithmetic lowering is out of the replicated fragment).
fn raw_operand(t: &Term) -> Option<RawOperand> {
    match t {
        Term::Const(v) => Some(RawOperand::Const(v.clone())),
        Term::Var(vid) => Some(RawOperand::Var(vid.clone())),
        _ => None,
    }
}

fn raw_atom(lhs: &Term, op: CmpOp, rhs: &Term, negated: bool) -> Option<RawAtom> {
    let lhs = raw_operand(lhs)?;
    let rhs = raw_operand(rhs)?;
    let op = if negated { op.negate() } else { op };
    if let (RawOperand::Var(a), RawOperand::Var(b)) = (&lhs, &rhs) {
        // Variable-variable joins are only decidable after user-input
        // substitution; keep the atom when a side can still resolve to
        // a constant at check time, refuse otherwise.
        let resolvable =
            matches!(a, VarId::UserInput { .. }) || matches!(b, VarId::UserInput { .. });
        if !resolvable {
            return None;
        }
    }
    Some(RawAtom { lhs, op, rhs })
}

/// The solver's `symbolic_const`: the interned spelling of a symbolic
/// constant (`None` for numbers).
fn symbolic_const(v: &Value) -> Option<&str> {
    match v {
        Value::Sym(s) => Some(s),
        Value::Bool(true) => Some("true"),
        Value::Bool(false) => Some("false"),
        Value::Null => Some(NULL_SYM),
        Value::Num(_) => None,
    }
}

// ---------------------------------------------------------------------
// Check-time evaluation
// ---------------------------------------------------------------------

/// A check-time operand after user-value substitution.
#[derive(Clone)]
enum ROp<'a> {
    Var(&'a VarId, &'a DomSpec),
    Const(&'a Value),
}

/// A check-time atom that survived constant folding.
struct RAtom<'a> {
    lhs: ROp<'a>,
    op: CmpOp,
    rhs: ROp<'a>,
}

/// Register state accumulated during the constant scan.
struct Reg<'a> {
    spec: &'a DomSpec,
    mentions: BTreeSet<SymId>,
    sym_typed: bool,
}

/// Term type in the solver's lowered fragment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ty {
    Num,
    Sym,
}

/// A fully typed, register-indexed atom ready for evaluation.
struct CAtom {
    var: usize,
    op: CmpOp,
    val: CVal,
    var_on_left: bool,
}

enum CVal {
    Num(i64),
    Sym(SymId),
}

enum Folded {
    Live,
    False,
}

enum Fold {
    Atom(CAtom),
    True,
    False,
}

enum Prop {
    Narrowed,
    Stable,
    Conflict,
    Refuse,
}

enum BranchResult {
    Sat(Vec<Dom>),
    Unsat,
    Refused,
}

/// Decides whether two lowered programs overlap, exactly as
/// `OverlapSolver::solve(&[f1, f2])` would on the source formulas.
///
/// Returns `None` to refuse — the caller must fall back to the solver.
/// A `Some` answer is bit-identical to the solver's, including the
/// satisfying witness of a `Sat` outcome.
pub(crate) fn check_pair(
    a: &LoweredProgram,
    b: &LoweredProgram,
    solver: &OverlapSolver,
) -> Option<Outcome> {
    // Phase 1 — substitute collected user values and fold constant
    // atoms, mirroring `Formula::substitute` + the `and`/`or` smart
    // constructors: a true branch drops its whole disjunct (siblings
    // are never scanned), a false conjunct collapses the formula.
    let mut factors: Vec<Vec<RAtom>> = Vec::new();
    for prog in [a, b] {
        match fold_program(prog, solver, &mut factors)? {
            Folded::Live => {}
            Folded::False => return Some(Outcome::Unsat),
        }
    }

    // Phase 2 — register file over the surviving atoms of both
    // programs, keyed in sorted `VarId` order like `merged.variables()`.
    let mut regs: BTreeMap<&VarId, Reg> = BTreeMap::new();
    for atom in factors.iter().flatten() {
        for side in [&atom.lhs, &atom.rhs] {
            if let ROp::Var(vid, spec) = side {
                regs.entry(vid).or_insert_with(|| Reg {
                    spec,
                    mentions: BTreeSet::new(),
                    sym_typed: false,
                });
            }
        }
    }

    // Phase 3 — symbol-intern replay. Declared enum domains intern
    // first (declaration order, variables in sorted order), then every
    // symbolic constant in formula-traversal order, then the solver's
    // catch-all OTHER symbol iff an undeclared variable is sym-typed.
    let mut syms = SymTable::new();
    for reg in regs.values() {
        match reg.spec {
            DomSpec::Enum(values) => {
                for v in values {
                    syms.intern(v);
                }
            }
            DomSpec::Modes => {
                for m in solver.modes() {
                    syms.intern(m);
                }
            }
            DomSpec::Int { .. } | DomSpec::Free => {}
        }
    }
    for atom in factors.iter().flatten() {
        for (side, other) in [(&atom.lhs, &atom.rhs), (&atom.rhs, &atom.lhs)] {
            if let ROp::Const(v) = side {
                if let Some(name) = symbolic_const(v) {
                    let id = syms.intern(name);
                    if let ROp::Var(vid, _) = other {
                        if let Some(reg) = regs.get_mut(*vid) {
                            reg.mentions.insert(id);
                            reg.sym_typed = true;
                        }
                    }
                }
            }
        }
    }
    let has_free_sym = regs
        .values()
        .any(|r| matches!(r.spec, DomSpec::Free) && r.sym_typed);
    if has_free_sym {
        syms.intern(OTHER_SYM);
    }

    // Phase 4 — initial domains and types per register, in order.
    let index: BTreeMap<&VarId, usize> = regs.keys().enumerate().map(|(i, k)| (*k, i)).collect();
    let mut types = Vec::with_capacity(regs.len());
    let mut init = Vec::with_capacity(regs.len());
    for reg in regs.values() {
        let (ty, dom) = match reg.spec {
            DomSpec::Int { lo, hi } => (Ty::Num, Dom::Int { lo: *lo, hi: *hi }),
            DomSpec::Enum(values) => (
                Ty::Sym,
                Dom::Enum(values.iter().map(|v| syms.intern(v)).collect()),
            ),
            DomSpec::Modes => (
                Ty::Sym,
                Dom::Enum(solver.modes().iter().map(|m| syms.intern(m)).collect()),
            ),
            DomSpec::Free => {
                if reg.sym_typed {
                    let mut set = reg.mentions.clone();
                    set.insert(syms.intern(OTHER_SYM));
                    (Ty::Sym, Dom::Enum(set))
                } else {
                    (Ty::Num, Dom::default_int())
                }
            }
        };
        types.push(ty);
        init.push(dom);
    }

    // Phase 5 — type folding, the solver's `lower_atom` rules: ordered
    // symbol comparisons are false, mixed-type `!=` is true, any other
    // mixed-type comparison is false. Registered variables of folded
    // atoms stay registered (they were scanned), matching the solver.
    let mut checked: Vec<Vec<CAtom>> = Vec::new();
    'factors: for factor in &factors {
        let mut branches = Vec::with_capacity(factor.len());
        for atom in factor {
            match fold_types(atom, &types, &index, &mut syms)? {
                Fold::True => continue 'factors,
                Fold::False => {}
                Fold::Atom(c) => branches.push(c),
            }
        }
        if branches.is_empty() {
            return Some(Outcome::Unsat);
        }
        checked.push(branches);
    }

    // Phase 6 — DNF branch enumeration in the solver's order: the first
    // factor varies slowest, branches within a factor stay in formula
    // order, and the first satisfiable branch supplies the witness.
    let counts: Vec<usize> = checked.iter().map(Vec::len).collect();
    let mut pick = vec![0usize; checked.len()];
    loop {
        let branch: Vec<&CAtom> = checked.iter().zip(&pick).map(|(f, i)| &f[*i]).collect();
        match eval_branch(&branch, &init) {
            BranchResult::Refused => return None,
            BranchResult::Sat(doms) => {
                let mut witness = Assignment::new();
                for (vid, dom) in regs.keys().zip(&doms) {
                    let value = match dom {
                        Dom::Int { lo, .. } => Value::Num(*lo),
                        Dom::Enum(set) => match set.iter().next() {
                            Some(id) => {
                                let name = syms.name(*id);
                                if name == OTHER_SYM {
                                    Value::Sym("<any other value>".to_string())
                                } else {
                                    Value::Sym(name.to_string())
                                }
                            }
                            None => Value::Null,
                        },
                    };
                    witness.insert((*vid).clone(), value);
                }
                return Some(Outcome::Sat(witness));
            }
            BranchResult::Unsat => {}
        }
        let mut k = checked.len();
        loop {
            if k == 0 {
                return Some(Outcome::Unsat);
            }
            k -= 1;
            pick[k] += 1;
            if pick[k] < counts[k] {
                break;
            }
            pick[k] = 0;
        }
    }
}

/// Substitutes and constant-folds one program's factors into `out`.
fn fold_program<'a>(
    prog: &'a LoweredProgram,
    solver: &'a OverlapSolver,
    out: &mut Vec<Vec<RAtom<'a>>>,
) -> Option<Folded> {
    'factors: for factor in &prog.factors {
        let mut live = Vec::with_capacity(factor.branches.len());
        for atom in &factor.branches {
            let lhs = resolve(&atom.lhs, prog, solver);
            let rhs = resolve(&atom.rhs, prog, solver);
            if let (ROp::Const(x), ROp::Const(y)) = (&lhs, &rhs) {
                match eval_const_cmp(x, atom.op, y) {
                    Some(true) => continue 'factors,
                    Some(false) => continue,
                    // Undecided constant pairs survive to the scan (their
                    // symbols intern) and type-fold away afterwards.
                    None => {}
                }
            } else if matches!((&lhs, &rhs), (ROp::Var(..), ROp::Var(..))) {
                // An unresolved variable-variable join: refuse.
                return None;
            }
            live.push(RAtom {
                lhs,
                op: atom.op,
                rhs,
            });
        }
        if live.is_empty() {
            return Some(Folded::False);
        }
        out.push(live);
    }
    Some(Folded::Live)
}

fn resolve<'a>(op: &'a Operand, prog: &'a LoweredProgram, solver: &'a OverlapSolver) -> ROp<'a> {
    match op {
        Operand::Const(v) => ROp::Const(v),
        Operand::Var(idx) => {
            let (vid, spec) = &prog.vars[*idx];
            if let VarId::UserInput { app, name } = vid {
                if let Some(v) = solver.user_value(app, name) {
                    return ROp::Const(v);
                }
            }
            ROp::Var(vid, spec)
        }
    }
}

fn operand_ty(op: &ROp<'_>, types: &[Ty], index: &BTreeMap<&VarId, usize>) -> Option<Ty> {
    match op {
        ROp::Const(Value::Num(_)) => Some(Ty::Num),
        ROp::Const(_) => Some(Ty::Sym),
        ROp::Var(vid, _) => index.get(*vid).map(|i| types[*i]),
    }
}

fn fold_types(
    atom: &RAtom<'_>,
    types: &[Ty],
    index: &BTreeMap<&VarId, usize>,
    syms: &mut SymTable,
) -> Option<Fold> {
    let lty = operand_ty(&atom.lhs, types, index)?;
    let rty = operand_ty(&atom.rhs, types, index)?;
    let ordered = !matches!(atom.op, CmpOp::Eq | CmpOp::Ne);
    match (lty, rty) {
        (Ty::Sym, Ty::Sym) if ordered => return Some(Fold::False),
        (Ty::Num, Ty::Num) | (Ty::Sym, Ty::Sym) => {}
        // Mixed types: `!=` trivially holds, everything else fails.
        _ if atom.op == CmpOp::Ne => return Some(Fold::True),
        _ => return Some(Fold::False),
    }
    let (vid, val, var_on_left) = match (&atom.lhs, &atom.rhs) {
        (ROp::Var(v, _), ROp::Const(c)) => (v, c, true),
        (ROp::Const(c), ROp::Var(v, _)) => (v, c, false),
        // Same-type constant pairs fold in phase 1 and variable pairs
        // are refused there; anything else here is a shape the
        // evaluator does not model — refuse rather than guess.
        _ => return None,
    };
    let val = match val {
        Value::Num(n) => CVal::Num(*n),
        other => CVal::Sym(syms.intern(symbolic_const(other)?)),
    };
    Some(Fold::Atom(CAtom {
        var: *index.get(*vid)?,
        op: atom.op,
        val,
        var_on_left,
    }))
}

/// Runs one DNF branch: propagate every atom to the fixpoint, then
/// require every atom to be entailed — exactly the solver's `dfs` with
/// branching replaced by refusal.
fn eval_branch(atoms: &[&CAtom], init: &[Dom]) -> BranchResult {
    let mut doms = init.to_vec();
    loop {
        let mut changed = false;
        for atom in atoms {
            match propagate(atom, &mut doms) {
                Prop::Conflict => return BranchResult::Unsat,
                Prop::Refuse => return BranchResult::Refused,
                Prop::Narrowed => changed = true,
                Prop::Stable => {}
            }
        }
        if !changed {
            break;
        }
    }
    for atom in atoms {
        match entail(atom, &doms) {
            Some(true) => {}
            Some(false) => return BranchResult::Unsat,
            // The solver would branch on a variable here.
            None => return BranchResult::Refused,
        }
    }
    BranchResult::Sat(doms)
}

/// HC4-style narrowing for a variable-vs-constant atom, matching the
/// solver's `propagate_numeric`/`propagate_enum` case for case.
fn propagate(atom: &CAtom, doms: &mut [Dom]) -> Prop {
    match (&mut doms[atom.var], &atom.val) {
        (Dom::Int { lo, hi }, CVal::Num(c)) => {
            let c = *c;
            let op = if atom.var_on_left {
                atom.op
            } else {
                atom.op.flip()
            };
            match op {
                CmpOp::Eq => {
                    if c < *lo || c > *hi {
                        Prop::Conflict
                    } else if *lo == c && *hi == c {
                        Prop::Stable
                    } else {
                        *lo = c;
                        *hi = c;
                        Prop::Narrowed
                    }
                }
                CmpOp::Ne => {
                    if *lo == c && *hi == c {
                        Prop::Conflict
                    } else {
                        Prop::Stable
                    }
                }
                CmpOp::Le => {
                    if *lo > c {
                        Prop::Conflict
                    } else if *hi > c {
                        *hi = c;
                        Prop::Narrowed
                    } else {
                        Prop::Stable
                    }
                }
                CmpOp::Lt => {
                    if *lo >= c {
                        Prop::Conflict
                    } else if *hi >= c {
                        *hi = c - 1;
                        Prop::Narrowed
                    } else {
                        Prop::Stable
                    }
                }
                CmpOp::Ge => {
                    if *hi < c {
                        Prop::Conflict
                    } else if *lo < c {
                        *lo = c;
                        Prop::Narrowed
                    } else {
                        Prop::Stable
                    }
                }
                CmpOp::Gt => {
                    if *hi <= c {
                        Prop::Conflict
                    } else if *lo <= c {
                        *lo = c + 1;
                        Prop::Narrowed
                    } else {
                        Prop::Stable
                    }
                }
            }
        }
        (Dom::Enum(set), CVal::Sym(s)) => match atom.op {
            CmpOp::Eq => {
                if !set.contains(s) {
                    Prop::Conflict
                } else if set.len() == 1 {
                    Prop::Stable
                } else {
                    let s = *s;
                    set.clear();
                    set.insert(s);
                    Prop::Narrowed
                }
            }
            CmpOp::Ne => {
                if set.remove(s) {
                    if set.is_empty() {
                        Prop::Conflict
                    } else {
                        Prop::Narrowed
                    }
                } else {
                    Prop::Stable
                }
            }
            // Ordered symbol comparisons fold to false before
            // evaluation; the solver's propagator ignores them too.
            _ => Prop::Stable,
        },
        // A domain/constant type mismatch cannot survive type folding;
        // refuse defensively rather than guess.
        _ => Prop::Refuse,
    }
}

/// The solver's `atom_entailed`/`enum_entailed` on a variable-vs-constant
/// atom: `Some(true)` entailed, `Some(false)` refuted, `None` when the
/// solver would have to branch.
fn entail(atom: &CAtom, doms: &[Dom]) -> Option<bool> {
    match (&doms[atom.var], &atom.val) {
        (Dom::Int { lo, hi }, CVal::Num(c)) => {
            let (lo, hi, c) = (*lo, *hi, *c);
            let op = if atom.var_on_left {
                atom.op
            } else {
                atom.op.flip()
            };
            match op {
                CmpOp::Lt => {
                    if hi < c {
                        Some(true)
                    } else if lo >= c {
                        Some(false)
                    } else {
                        None
                    }
                }
                CmpOp::Le => {
                    if hi <= c {
                        Some(true)
                    } else if lo > c {
                        Some(false)
                    } else {
                        None
                    }
                }
                CmpOp::Gt => {
                    if lo > c {
                        Some(true)
                    } else if hi <= c {
                        Some(false)
                    } else {
                        None
                    }
                }
                CmpOp::Ge => {
                    if lo >= c {
                        Some(true)
                    } else if hi < c {
                        Some(false)
                    } else {
                        None
                    }
                }
                CmpOp::Eq => {
                    if lo == hi {
                        Some(lo == c)
                    } else if hi < c || c < lo {
                        Some(false)
                    } else {
                        None
                    }
                }
                CmpOp::Ne => {
                    if hi < c || c < lo {
                        Some(true)
                    } else if lo == hi {
                        Some(lo != c)
                    } else {
                        None
                    }
                }
            }
        }
        (Dom::Enum(set), CVal::Sym(s)) => match atom.op {
            CmpOp::Eq => {
                if set.len() == 1 && set.contains(s) {
                    Some(true)
                } else if !set.contains(s) {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Ne => {
                if !set.contains(s) {
                    Some(true)
                } else if set.len() == 1 {
                    Some(false)
                } else {
                    None
                }
            }
            _ => Some(false),
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hg_capability::device_kind::DeviceKind;
    use hg_rules::varid::DeviceRef;

    fn solver() -> OverlapSolver {
        OverlapSolver::default()
    }

    fn temp() -> Term {
        Term::var(VarId::env("temperature"))
    }

    fn mode() -> Term {
        Term::var(VarId::Mode)
    }

    fn switch(dev: &str) -> Term {
        Term::var(VarId::device_attr(DeviceRef::bound(dev), "switch"))
    }

    fn state(app: &str, name: &str) -> Term {
        Term::var(VarId::State {
            app: app.into(),
            name: name.into(),
        })
    }

    fn input(app: &str, name: &str) -> Term {
        Term::var(VarId::UserInput {
            app: app.into(),
            name: name.into(),
        })
    }

    fn cmp(l: Term, op: CmpOp, r: Term) -> Formula {
        Formula::cmp(l, op, r)
    }

    /// Asserts the lowered tier answers and agrees with the solver
    /// bit-for-bit (outcome and witness).
    fn assert_lowered_matches(s: &OverlapSolver, f1: &Formula, f2: &Formula) -> Outcome {
        let p1 = LoweredProgram::compile(f1).expect("f1 compiles");
        let p2 = LoweredProgram::compile(f2).expect("f2 compiles");
        let lowered = check_pair(&p1, &p2, s).expect("lowered tier decides");
        let reference = s.solve(&[f1, f2]);
        assert_eq!(lowered, reference, "lowered vs solver for {f1} ∧ {f2}");
        lowered
    }

    /// Asserts the pair compiles but the evaluator refuses, and that the
    /// solver still decides it (the fallback the refusal relies on).
    fn assert_refused(s: &OverlapSolver, f1: &Formula, f2: &Formula) {
        let p1 = LoweredProgram::compile(f1).expect("f1 compiles");
        let p2 = LoweredProgram::compile(f2).expect("f2 compiles");
        assert!(
            check_pair(&p1, &p2, s).is_none(),
            "expected refusal for {f1} ∧ {f2}"
        );
        assert_ne!(s.solve(&[f1, f2]), Outcome::Unknown);
    }

    #[test]
    fn closed_interval_endpoints_touch() {
        let s = solver();
        // temp >= 20 ∧ temp <= 30 vs temp >= 30: closed endpoints touch.
        let f1 = Formula::and([
            cmp(temp(), CmpOp::Ge, Term::num(scaled(20))),
            cmp(temp(), CmpOp::Le, Term::num(scaled(30))),
        ]);
        let f2 = cmp(temp(), CmpOp::Ge, Term::num(scaled(30)));
        let out = assert_lowered_matches(&s, &f1, &f2);
        assert!(matches!(out, Outcome::Sat(_)));
    }

    #[test]
    fn open_interval_endpoints_separate() {
        let s = solver();
        // temp < 30 vs temp > 30 and the half-open boundary cases.
        let lt = cmp(temp(), CmpOp::Lt, Term::num(scaled(30)));
        let gt = cmp(temp(), CmpOp::Gt, Term::num(scaled(30)));
        let ge = cmp(temp(), CmpOp::Ge, Term::num(scaled(30)));
        let le = cmp(temp(), CmpOp::Le, Term::num(scaled(30)));
        assert_eq!(assert_lowered_matches(&s, &lt, &gt), Outcome::Unsat);
        assert_eq!(assert_lowered_matches(&s, &lt, &ge), Outcome::Unsat);
        assert!(matches!(
            assert_lowered_matches(&s, &le, &ge),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn constant_on_the_left_mirrors() {
        let s = solver();
        // 30 < temp is temp > 30; exercise the flipped-operand paths.
        let f1 = cmp(Term::num(scaled(30)), CmpOp::Lt, temp());
        let f2 = cmp(Term::num(scaled(50)), CmpOp::Ge, temp());
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f2),
            Outcome::Sat(_)
        ));
        let f3 = cmp(Term::num(scaled(20)), CmpOp::Gt, temp());
        assert_eq!(assert_lowered_matches(&s, &f1, &f3), Outcome::Unsat);
    }

    #[test]
    fn equality_join_on_shared_actuator_attribute() {
        let s = solver();
        let f1 = cmp(switch("type:switch/tv"), CmpOp::Eq, Term::sym("on"));
        let f2 = cmp(switch("type:switch/tv"), CmpOp::Eq, Term::sym("off"));
        let f3 = cmp(switch("type:switch/tv"), CmpOp::Ne, Term::sym("off"));
        assert_eq!(assert_lowered_matches(&s, &f1, &f2), Outcome::Unsat);
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f3),
            Outcome::Sat(_)
        ));
        // Distinct devices do not unify: both constraints are free.
        let f4 = cmp(switch("type:switch/light"), CmpOp::Eq, Term::sym("off"));
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f4),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn mode_membership_interacts() {
        let s = solver();
        let away = cmp(mode(), CmpOp::Eq, Term::sym("Away"));
        let home = cmp(mode(), CmpOp::Eq, Term::sym("Home"));
        let not_home = cmp(mode(), CmpOp::Ne, Term::sym("Home"));
        assert_eq!(assert_lowered_matches(&s, &away, &home), Outcome::Unsat);
        assert!(matches!(
            assert_lowered_matches(&s, &away, &not_home),
            Outcome::Sat(_)
        ));
        // A mode outside the home's list is unsatisfiable.
        let vacation = cmp(mode(), CmpOp::Eq, Term::sym("Vacation"));
        assert_eq!(
            assert_lowered_matches(&s, &vacation, &not_home),
            Outcome::Unsat
        );
    }

    #[test]
    fn mode_disjunction_follows_branch_order() {
        let s = solver();
        let f1 = Formula::or([
            cmp(mode(), CmpOp::Eq, Term::sym("Home")),
            cmp(mode(), CmpOp::Eq, Term::sym("Away")),
        ]);
        let f2 = cmp(mode(), CmpOp::Eq, Term::sym("Away"));
        // The first branch (Home) conflicts; the second must supply the
        // same witness the solver's DNF order produces.
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f2),
            Outcome::Sat(_)
        ));
        let f3 = cmp(mode(), CmpOp::Eq, Term::sym("Night"));
        assert_eq!(assert_lowered_matches(&s, &f1, &f3), Outcome::Unsat);
    }

    #[test]
    fn boolean_literals_type_as_symbols() {
        let s = solver();
        let f1 = cmp(
            state("A", "armed"),
            CmpOp::Eq,
            Term::Const(Value::Bool(true)),
        );
        let f2 = cmp(
            state("A", "armed"),
            CmpOp::Eq,
            Term::Const(Value::Bool(false)),
        );
        assert_eq!(assert_lowered_matches(&s, &f1, &f2), Outcome::Unsat);
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f1),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn null_tests_use_the_null_symbol() {
        let s = solver();
        let is_null = cmp(state("A", "last"), CmpOp::Eq, Term::Const(Value::Null));
        let not_null = cmp(state("A", "last"), CmpOp::Ne, Term::Const(Value::Null));
        assert_eq!(
            assert_lowered_matches(&s, &is_null, &not_null),
            Outcome::Unsat
        );
        assert!(matches!(
            assert_lowered_matches(&s, &is_null, &is_null),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn cross_type_comparisons_fold() {
        let s = solver();
        // env.temperature is declared numeric; comparing to a symbol is
        // a type clash the solver folds — equality fails, `!=` holds.
        let clash_eq = cmp(temp(), CmpOp::Eq, Term::sym("hot"));
        let anything = cmp(temp(), CmpOp::Ge, Term::num(scaled(0)));
        assert_eq!(
            assert_lowered_matches(&s, &clash_eq, &anything),
            Outcome::Unsat
        );
        let clash_ne = cmp(temp(), CmpOp::Ne, Term::sym("hot"));
        assert!(matches!(
            assert_lowered_matches(&s, &clash_ne, &anything),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn unification_renamed_variables_share_registers() {
        let s = solver();
        // Two rules whose slots unified by type resolve to the same
        // synthetic bound id — their atoms must hit one register.
        let dev = "type:lock/door";
        let f1 = cmp(
            Term::var(VarId::device_attr(DeviceRef::bound(dev), "lock")),
            CmpOp::Eq,
            Term::sym("locked"),
        );
        let f2 = cmp(
            Term::var(VarId::device_attr(DeviceRef::bound(dev), "lock")),
            CmpOp::Eq,
            Term::sym("unlocked"),
        );
        assert_eq!(assert_lowered_matches(&s, &f1, &f2), Outcome::Unsat);
    }

    #[test]
    fn time_windows_overlap_exactly() {
        let s = solver();
        let tod = Term::var(VarId::TimeOfDay);
        let night = Formula::and([
            cmp(tod.clone(), CmpOp::Ge, Term::num(scaled(22 * 60))),
            cmp(tod.clone(), CmpOp::Le, Term::num(scaled(23 * 60))),
        ]);
        let evening = Formula::and([
            cmp(tod.clone(), CmpOp::Ge, Term::num(scaled(18 * 60))),
            cmp(tod.clone(), CmpOp::Lt, Term::num(scaled(22 * 60))),
        ]);
        assert_eq!(assert_lowered_matches(&s, &night, &evening), Outcome::Unsat);
        let late = cmp(tod, CmpOp::Gt, Term::num(scaled(22 * 60)));
        assert!(matches!(
            assert_lowered_matches(&s, &night, &late),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn resolved_user_inputs_decide() {
        let mut s = solver();
        s.set_user_value("A", "threshold", Value::Num(scaled(25)));
        let f1 = cmp(temp(), CmpOp::Gt, input("A", "threshold"));
        let f2 = cmp(temp(), CmpOp::Lt, Term::num(scaled(20)));
        assert_eq!(assert_lowered_matches(&s, &f1, &f2), Outcome::Unsat);
        let f3 = cmp(temp(), CmpOp::Gt, Term::num(scaled(20)));
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f3),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn unresolved_user_input_refuses_at_check_time() {
        let s = solver();
        // Compiles (the input side could resolve), but with no collected
        // value the join is variable-variable: refuse, don't guess.
        let f1 = cmp(temp(), CmpOp::Gt, input("A", "threshold"));
        let f2 = cmp(temp(), CmpOp::Lt, Term::num(scaled(20)));
        assert_refused(&s, &f1, &f2);
    }

    #[test]
    fn interior_numeric_ne_refuses_where_solver_branches() {
        let s = solver();
        let f1 = Formula::and([
            cmp(temp(), CmpOp::Ge, Term::num(scaled(20))),
            cmp(temp(), CmpOp::Le, Term::num(scaled(30))),
        ]);
        let f2 = cmp(temp(), CmpOp::Ne, Term::num(scaled(25)));
        assert_refused(&s, &f1, &f2);
        // At the fixpoint the domain collapses to a point: decidable.
        let point = Formula::and([
            cmp(temp(), CmpOp::Ge, Term::num(scaled(25))),
            cmp(temp(), CmpOp::Le, Term::num(scaled(25))),
        ]);
        assert_eq!(assert_lowered_matches(&s, &point, &f2), Outcome::Unsat);
    }

    #[test]
    fn arithmetic_terms_refuse_at_compile_time() {
        let f = cmp(
            Term::Add(Box::new(temp()), Box::new(Term::num(scaled(5)))),
            CmpOp::Gt,
            Term::num(scaled(30)),
        );
        assert!(LoweredProgram::compile(&f).is_none());
    }

    #[test]
    fn device_to_device_joins_refuse_at_compile_time() {
        let f = cmp(
            switch("type:switch/tv"),
            CmpOp::Eq,
            switch("type:switch/light"),
        );
        assert!(LoweredProgram::compile(&f).is_none());
    }

    #[test]
    fn conjunction_inside_disjunction_refuses() {
        let f = Formula::Or(vec![
            Formula::And(vec![
                cmp(temp(), CmpOp::Ge, Term::num(scaled(20))),
                cmp(temp(), CmpOp::Le, Term::num(scaled(30))),
            ]),
            cmp(temp(), CmpOp::Gt, Term::num(scaled(40))),
        ]);
        assert!(LoweredProgram::compile(&f).is_none());
    }

    #[test]
    fn oversized_branch_products_refuse() {
        // Six two-way disjunctions: 2⁶ = 64 > MAX_BRANCHES.
        let two_way = |n: i64| {
            Formula::or([
                cmp(temp(), CmpOp::Gt, Term::num(scaled(n))),
                cmp(temp(), CmpOp::Lt, Term::num(scaled(-n))),
            ])
        };
        let f = Formula::and((1..=6).map(two_way));
        assert!(LoweredProgram::compile(&f).is_none());
        let small = Formula::and((1..=5).map(two_way));
        assert!(LoweredProgram::compile(&small).is_some());
    }

    #[test]
    fn negation_pushes_through_connectives() {
        let s = solver();
        // ¬(temp < 20 ∨ temp > 30) is the closed interval [20, 30].
        let f1 = Formula::Not(Box::new(Formula::Or(vec![
            cmp(temp(), CmpOp::Lt, Term::num(scaled(20))),
            cmp(temp(), CmpOp::Gt, Term::num(scaled(30))),
        ])));
        let f2 = cmp(temp(), CmpOp::Ge, Term::num(scaled(30)));
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f2),
            Outcome::Sat(_)
        ));
        let f3 = cmp(temp(), CmpOp::Gt, Term::num(scaled(30)));
        assert_eq!(assert_lowered_matches(&s, &f1, &f3), Outcome::Unsat);
    }

    #[test]
    fn literal_constants_collapse_like_the_solver() {
        let s = solver();
        let f1 = Formula::And(vec![
            Formula::True,
            cmp(temp(), CmpOp::Ge, Term::num(scaled(20))),
        ]);
        let f2 = Formula::True;
        assert!(matches!(
            assert_lowered_matches(&s, &f1, &f2),
            Outcome::Sat(_)
        ));
        let contradiction = Formula::False;
        assert_eq!(
            assert_lowered_matches(&s, &f1, &contradiction),
            Outcome::Unsat
        );
    }

    #[test]
    fn undeclared_text_attribute_gets_the_other_symbol_witness() {
        let s = solver();
        // A free symbolic variable constrained only by `!=` forces the
        // solver's catch-all «other» witness — replicate it exactly.
        let f1 = cmp(state("A", "phase"), CmpOp::Ne, Term::sym("idle"));
        let f2 = cmp(state("A", "phase"), CmpOp::Ne, Term::sym("armed"));
        let out = assert_lowered_matches(&s, &f1, &f2);
        match out {
            Outcome::Sat(w) => {
                let v = w.values().next().expect("one variable");
                assert_eq!(v, &Value::Sym("<any other value>".to_string()));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn unbound_slot_attributes_use_capability_domains() {
        let s = solver();
        let slot = DeviceRef::Unbound {
            app: "A".into(),
            input: "door".into(),
            capability: "lock".into(),
            kind: DeviceKind::Lock,
        };
        let f1 = cmp(
            Term::var(VarId::device_attr(slot.clone(), "lock")),
            CmpOp::Eq,
            Term::sym("locked"),
        );
        let f2 = cmp(
            Term::var(VarId::device_attr(slot, "lock")),
            CmpOp::Ne,
            Term::sym("locked"),
        );
        assert_eq!(assert_lowered_matches(&s, &f1, &f2), Outcome::Unsat);
    }

    /// A deterministic mini-fuzz over the lowered fragment: every pair
    /// the evaluator answers must match the solver bit-for-bit, and both
    /// answered and refused pairs must occur.
    #[test]
    fn fuzz_lowered_agrees_with_solver() {
        let mut s = solver();
        s.set_user_value("F", "limit", Value::Num(scaled(40)));
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            // SplitMix64, as the integration harnesses use.
            seed = seed.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let modes = ["Home", "Away", "Night", "Vacation"];
        let gen_atom = |r: u64| -> Formula {
            let op = ops[(r % 6) as usize];
            match (r >> 3) % 4 {
                0 => cmp(temp(), op, Term::num(scaled(((r >> 8) % 60) as i64))),
                1 => {
                    let m = modes[((r >> 8) % 4) as usize];
                    let op = if op == CmpOp::Eq {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    };
                    cmp(mode(), op, Term::sym(m))
                }
                2 => {
                    let v = if (r >> 8).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    };
                    let op = if op == CmpOp::Eq {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    };
                    cmp(switch("type:switch/tv"), op, Term::sym(v))
                }
                _ => cmp(temp(), op, input("F", "limit")),
            }
        };
        let gen_formula = |next: &mut dyn FnMut() -> u64| -> Formula {
            let r = next();
            match r % 3 {
                0 => gen_atom(r >> 2),
                1 => Formula::and([gen_atom(next() >> 2), gen_atom(next() >> 2)]),
                _ => Formula::or([gen_atom(next() >> 2), gen_atom(next() >> 2)]),
            }
        };
        let (mut answered, mut refused) = (0u32, 0u32);
        for _ in 0..300 {
            let f1 = gen_formula(&mut next);
            let f2 = gen_formula(&mut next);
            let (Some(p1), Some(p2)) = (LoweredProgram::compile(&f1), LoweredProgram::compile(&f2))
            else {
                continue;
            };
            match check_pair(&p1, &p2, &s) {
                Some(lowered) => {
                    answered += 1;
                    assert_eq!(lowered, s.solve(&[&f1, &f2]), "pair: {f1} ∧ {f2}");
                }
                None => refused = refused.saturating_add(1),
            }
        }
        assert!(answered > 100, "fuzz must exercise the lowered tier");
        assert!(refused > 0, "fuzz must exercise refusal");
    }
}
