//! The predicate DSL of the `WHERE` clause.
//!
//! Conditions are arithmetic comparisons over attributes of bound events,
//! e.g. the paper's band conditions `α · a.vol < b.vol < β · a.vol`
//! (expressed as two comparisons under [`Predicate::And`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Arithmetic expression over bound-event attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Literal.
    Const(f64),
    /// `binding.attr`, attribute by index.
    Attr {
        /// Binding name of the referenced event.
        binding: String,
        /// Attribute index within the event.
        attr: usize,
    },
    /// Product.
    Mul(Box<Expr>, Box<Expr>),
    /// Sum.
    Add(Box<Expr>, Box<Expr>),
    /// Difference.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `binding.attr` shorthand.
    pub fn attr(binding: impl Into<String>, attr: usize) -> Self {
        Expr::Attr {
            binding: binding.into(),
            attr,
        }
    }

    /// `factor · binding.attr` shorthand (the paper's scaled comparisons).
    pub fn scaled(factor: f64, binding: impl Into<String>, attr: usize) -> Self {
        Expr::Mul(
            Box::new(Expr::Const(factor)),
            Box::new(Expr::attr(binding, attr)),
        )
    }

    /// Evaluate against a binding resolver; `None` when a referenced binding
    /// is unbound or an attribute is missing. For the parser and tests:
    /// engines [`lower`](Self::lower) once and evaluate the compiled form.
    pub fn eval(&self, lookup: &dyn Fn(&str, usize) -> Option<f64>) -> Option<f64> {
        self.lower(&mut |b, a| Some((b, a)))
            .eval(&|&(b, a)| lookup(b, a))
    }

    /// Resolve every `binding.attr` to a leaf of the caller's choosing
    /// (`None`: nothing binds that name, the reference never evaluates).
    pub fn lower<'a, L>(
        &'a self,
        leaf: &mut impl FnMut(&'a str, usize) -> Option<L>,
    ) -> CompiledExpr<L> {
        match self {
            Expr::Const(c) => CompiledExpr::Const(*c),
            Expr::Attr { binding, attr } => {
                leaf(binding, *attr).map_or(CompiledExpr::Unresolved, CompiledExpr::Leaf)
            }
            Expr::Mul(a, b) => match (a.lower(leaf), b.lower(leaf)) {
                (CompiledExpr::Const(c), CompiledExpr::Leaf(l)) => CompiledExpr::Scaled(c, l),
                (a, b) => CompiledExpr::Mul(Box::new(a), Box::new(b)),
            },
            Expr::Add(a, b) => CompiledExpr::Add(Box::new(a.lower(leaf)), Box::new(b.lower(leaf))),
            Expr::Sub(a, b) => CompiledExpr::Sub(Box::new(a.lower(leaf)), Box::new(b.lower(leaf))),
        }
    }

    fn collect_bindings<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Expr::Const(_) => {}
            Expr::Attr { binding, .. } => {
                out.insert(binding);
            }
            Expr::Mul(a, b) | Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.collect_bindings(out);
                b.collect_bindings(out);
            }
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison.
    #[inline]
    pub fn apply(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// Boolean predicate over bound events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `lhs op rhs`.
    Cmp {
        /// Left expression.
        lhs: Expr,
        /// Operator.
        op: CmpOp,
        /// Right expression.
        rhs: Expr,
    },
    /// All must hold.
    And(Vec<Predicate>),
    /// At least one must hold.
    Or(Vec<Predicate>),
    /// Negated predicate.
    Not(Box<Predicate>),
    /// Always true (useful for templates with no condition).
    True,
}

impl Predicate {
    /// `lhs < rhs` shorthand.
    pub fn lt(lhs: Expr, rhs: Expr) -> Self {
        Predicate::Cmp {
            lhs,
            op: CmpOp::Lt,
            rhs,
        }
    }

    /// `lhs > rhs` shorthand.
    pub fn gt(lhs: Expr, rhs: Expr) -> Self {
        Predicate::Cmp {
            lhs,
            op: CmpOp::Gt,
            rhs,
        }
    }

    /// The paper's band condition `lo_factor·lo.attr < mid.attr < hi_factor·hi.attr`.
    pub fn band(
        lo_factor: f64,
        lo: (&str, usize),
        mid: (&str, usize),
        hi_factor: f64,
        hi: (&str, usize),
    ) -> Self {
        Predicate::And(vec![
            Predicate::lt(
                Expr::scaled(lo_factor, lo.0, lo.1),
                Expr::attr(mid.0, mid.1),
            ),
            Predicate::lt(
                Expr::attr(mid.0, mid.1),
                Expr::scaled(hi_factor, hi.0, hi.1),
            ),
        ])
    }

    /// Evaluate against a binding resolver. `None` when some referenced
    /// binding is not (yet) bound — callers treat that as "not decidable".
    /// For the parser and tests: engines [`lower`](Self::lower) once and
    /// evaluate the compiled form.
    pub fn eval(&self, lookup: &dyn Fn(&str, usize) -> Option<f64>) -> Option<bool> {
        self.lower(&mut |b, a| Some((b, a)))
            .eval(&|&(b, a)| lookup(b, a))
    }

    /// Resolve every `binding.attr` to a leaf of the caller's choosing; see
    /// [`Expr::lower`].
    pub fn lower<'a, L>(
        &'a self,
        leaf: &mut impl FnMut(&'a str, usize) -> Option<L>,
    ) -> CompiledPred<L> {
        match self {
            Predicate::Cmp { lhs, op, rhs } => CompiledPred::Cmp {
                lhs: lhs.lower(leaf),
                op: *op,
                rhs: rhs.lower(leaf),
            },
            Predicate::And(ps) => CompiledPred::And(ps.iter().map(|p| p.lower(leaf)).collect()),
            Predicate::Or(ps) => CompiledPred::Or(ps.iter().map(|p| p.lower(leaf)).collect()),
            Predicate::Not(p) => CompiledPred::Not(Box::new(p.lower(leaf))),
            Predicate::True => CompiledPred::True,
        }
    }

    /// All binding names the predicate references, sorted and deduplicated.
    pub fn referenced_bindings(&self) -> Vec<&str> {
        let mut set = BTreeSet::new();
        self.collect(&mut set);
        set.into_iter().collect()
    }

    fn collect<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Predicate::Cmp { lhs, rhs, .. } => {
                lhs.collect_bindings(out);
                rhs.collect_bindings(out);
            }
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect(out);
                }
            }
            Predicate::Not(p) => p.collect(out),
            Predicate::True => {}
        }
    }
}

/// An [`Expr`] with names resolved: what engines evaluate per event. The
/// leaf type is the engine's own (a row slot, a step index, …), so the one
/// evaluator below serves all of them without a name or a hash at run time.
/// Variants mirror [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr<L> {
    Const(f64),
    /// A resolved `binding.attr`.
    Leaf(L),
    /// `factor · binding.attr`, the paper's band bound, without the boxes.
    Scaled(f64, L),
    /// A reference nothing binds; evaluates to `None`.
    Unresolved,
    Mul(Box<CompiledExpr<L>>, Box<CompiledExpr<L>>),
    Add(Box<CompiledExpr<L>>, Box<CompiledExpr<L>>),
    Sub(Box<CompiledExpr<L>>, Box<CompiledExpr<L>>),
}

impl<L> CompiledExpr<L> {
    /// Evaluate with `get` supplying leaf values; `None` when a leaf is
    /// unbound or its attribute missing.
    #[inline]
    pub fn eval(&self, get: &impl Fn(&L) -> Option<f64>) -> Option<f64> {
        match self {
            CompiledExpr::Const(c) => Some(*c),
            CompiledExpr::Leaf(l) => get(l),
            CompiledExpr::Scaled(c, l) => Some(c * get(l)?),
            CompiledExpr::Unresolved => None,
            CompiledExpr::Mul(a, b) => Some(a.eval(get)? * b.eval(get)?),
            CompiledExpr::Add(a, b) => Some(a.eval(get)? + b.eval(get)?),
            CompiledExpr::Sub(a, b) => Some(a.eval(get)? - b.eval(get)?),
        }
    }
}

/// A [`Predicate`] with names resolved, variant for variant; see
/// [`CompiledExpr`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPred<L> {
    Cmp {
        lhs: CompiledExpr<L>,
        op: CmpOp,
        rhs: CompiledExpr<L>,
    },
    And(Vec<CompiledPred<L>>),
    Or(Vec<CompiledPred<L>>),
    Not(Box<CompiledPred<L>>),
    True,
}

impl<L> CompiledPred<L> {
    /// Evaluate with `get` supplying leaf values. `None` when some leaf is
    /// not (yet) bound — callers treat that as "not decidable".
    #[inline]
    pub fn eval(&self, get: &impl Fn(&L) -> Option<f64>) -> Option<bool> {
        match self {
            CompiledPred::Cmp { lhs, op, rhs } => Some(op.apply(lhs.eval(get)?, rhs.eval(get)?)),
            CompiledPred::And(ps) => {
                for p in ps {
                    if !p.eval(get)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            CompiledPred::Or(ps) => {
                for p in ps {
                    if p.eval(get)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            CompiledPred::Not(p) => Some(!p.eval(get)?),
            CompiledPred::True => Some(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn resolver<'a>(
        vals: &'a HashMap<(&'a str, usize), f64>,
    ) -> impl Fn(&str, usize) -> Option<f64> + 'a {
        move |b, a| vals.get(&(b, a)).copied()
    }

    #[test]
    fn expr_eval_arithmetic() {
        let mut vals = HashMap::new();
        vals.insert(("a", 0), 2.0);
        vals.insert(("b", 0), 3.0);
        let e = Expr::Add(
            Box::new(Expr::scaled(10.0, "a", 0)),
            Box::new(Expr::Sub(
                Box::new(Expr::attr("b", 0)),
                Box::new(Expr::Const(1.0)),
            )),
        );
        assert_eq!(e.eval(&resolver(&vals)), Some(22.0));
    }

    #[test]
    fn unbound_reference_is_none() {
        let vals = HashMap::new();
        assert_eq!(Expr::attr("a", 0).eval(&resolver(&vals)), None);
        let p = Predicate::lt(Expr::attr("a", 0), Expr::Const(1.0));
        assert_eq!(p.eval(&resolver(&vals)), None);
    }

    #[test]
    fn band_condition_semantics() {
        let p = Predicate::band(0.85, ("a", 0), ("b", 0), 1.15, ("a", 0));
        let mut vals = HashMap::new();
        vals.insert(("a", 0), 100.0);
        vals.insert(("b", 0), 100.0);
        assert_eq!(p.eval(&resolver(&vals)), Some(true));
        vals.insert(("b", 0), 200.0);
        assert_eq!(p.eval(&resolver(&vals)), Some(false));
        vals.insert(("b", 0), 50.0);
        assert_eq!(p.eval(&resolver(&vals)), Some(false));
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Gt.apply(3.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(!CmpOp::Lt.apply(2.0, 2.0));
    }

    #[test]
    fn or_and_not() {
        let mut vals = HashMap::new();
        vals.insert(("a", 0), 1.0);
        let t = Predicate::gt(Expr::attr("a", 0), Expr::Const(0.0));
        let f = Predicate::lt(Expr::attr("a", 0), Expr::Const(0.0));
        let r = resolver(&vals);
        assert_eq!(
            Predicate::Or(vec![f.clone(), t.clone()]).eval(&r),
            Some(true)
        );
        assert_eq!(
            Predicate::And(vec![t.clone(), f.clone()]).eval(&r),
            Some(false)
        );
        assert_eq!(Predicate::Not(Box::new(f)).eval(&r), Some(true));
        assert_eq!(Predicate::True.eval(&r), Some(true));
    }

    #[test]
    fn referenced_bindings_dedup() {
        let p = Predicate::band(0.5, ("a", 0), ("b", 0), 1.5, ("a", 0));
        assert_eq!(p.referenced_bindings(), vec!["a", "b"]);
    }
}
