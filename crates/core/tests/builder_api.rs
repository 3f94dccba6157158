//! Builder-surface contracts: the fluent builders are the one construction
//! path for non-default options. Option order must not matter, the builder
//! must agree byte-for-byte with the direct construction entry points that
//! remain, and invalid option combinations must be rejected at `build()`.

use std::borrow::Cow;
use std::sync::Arc;

use dlacep_cep::{Match, Pattern, PatternExpr, PatternSet, TypeSet};
use dlacep_core::runtime::{RuntimeConfig, StreamingDlacep};
use dlacep_core::{
    AssemblerConfig, Dlacep, DriftConfig, ModelTrainer, OracleFilter, Parallelism,
    PassthroughFilter, RetrainConfig, RuntimeError,
};
use dlacep_events::{EventStream, OutOfOrderPolicy, TypeId, WindowSpec};
use dlacep_obs::{FieldValue, Registry};

const A: TypeId = TypeId(0);
const B: TypeId = TypeId(1);

fn seq_ab(w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(A), "a"),
            PatternExpr::event(TypeSet::single(B), "b"),
        ]),
        vec![],
        WindowSpec::Count(w),
    )
}

fn stream(n: usize) -> EventStream {
    let mut s = EventStream::new();
    for i in 0..n {
        let t = match i % 4 {
            0 => A,
            2 => B,
            _ => TypeId(2),
        };
        s.push(t, i as u64, vec![i as f64]);
    }
    s
}

fn journal_kinds_and_fields(reg: &Registry) -> Vec<(String, Vec<(String, FieldValue)>)> {
    reg.journal()
        .snapshot()
        .entries
        .into_iter()
        .map(|e| (e.kind, e.fields))
        .collect()
}

#[test]
fn batch_builder_options_are_order_independent() {
    let p = seq_ab(6);
    let s = stream(160);
    let asm = AssemblerConfig {
        mark_size: 10,
        step_size: 3,
    };

    let reg_a = Arc::new(Registry::enabled());
    let report_a = Dlacep::builder(p.clone(), OracleFilter::new(p.clone()))
        .assembler(asm)
        .parallelism(Parallelism::serial())
        .obs(reg_a.clone())
        .build()
        .unwrap()
        .run(s.events());

    let reg_b = Arc::new(Registry::enabled());
    let report_b = Dlacep::builder(p.clone(), OracleFilter::new(p))
        .obs(reg_b.clone())
        .parallelism(Parallelism::serial())
        .assembler(asm)
        .build()
        .unwrap()
        .run(s.events());

    assert_eq!(report_a.matches(), report_b.matches());
    assert_eq!(report_a.events_total, report_b.events_total);
    assert_eq!(report_a.events_relayed, report_b.events_relayed);
    assert_eq!(reg_a.snapshot().counters, reg_b.snapshot().counters);
}

#[test]
fn streaming_builder_options_are_order_independent() {
    let p = seq_ab(6);
    let s = stream(200);
    let cfg = RuntimeConfig {
        ooo_policy: OutOfOrderPolicy::ClampToLastTs,
        ..Default::default()
    };

    let reg_a = Arc::new(Registry::with_journal_capacity(2048));
    let mut a = StreamingDlacep::builder(p.clone(), PassthroughFilter)
        .config(cfg)
        .obs(reg_a.clone())
        .build()
        .unwrap();

    let reg_b = Arc::new(Registry::with_journal_capacity(2048));
    let mut b = StreamingDlacep::builder(p, PassthroughFilter)
        .obs(reg_b.clone())
        .config(cfg)
        .build()
        .unwrap();

    for ev in s.events() {
        a.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
        b.ingest(ev.type_id, ev.ts.0, ev.attrs.clone()).unwrap();
    }
    let ra = a.finish();
    let rb = b.finish();

    assert_eq!(ra.matches, rb.matches);
    assert_eq!(ra.windows_evaluated, rb.windows_evaluated);
    assert_eq!(ra.timeline, rb.timeline);
    assert_eq!(reg_a.snapshot().counters, reg_b.snapshot().counters);
    // The journals must agree entry-for-entry: either order installs obs
    // before the initial mode transition, so the (kind, fields) sequences
    // line up from entry zero, which is that transition.
    let journal = journal_kinds_and_fields(&reg_a);
    assert_eq!(journal, journal_kinds_and_fields(&reg_b));
    let (kind, fields) = &journal[0];
    assert_eq!(kind, "mode");
    assert_eq!(fields[2], ("cause".to_string(), FieldValue::from("Start")));
}

/// Trainer stub for option-validation tests: never actually called.
struct NoopTrainer;

impl ModelTrainer<OracleFilter> for NoopTrainer {
    fn retrain(
        &self,
        _pattern: &Pattern,
        _windows: &[Vec<dlacep_events::PrimitiveEvent>],
        _attempt: u64,
    ) -> Result<OracleFilter, String> {
        Err("noop".into())
    }

    fn encode(&self, _filter: &OracleFilter) -> Vec<u8> {
        Vec::new()
    }

    fn decode(&self, _bytes: &[u8]) -> Result<OracleFilter, String> {
        Err("noop".into())
    }
}

#[test]
fn retrain_without_drift_is_rejected_at_build() {
    let p = seq_ab(6);
    let err = StreamingDlacep::builder(p, OracleFilter::new(seq_ab(6)))
        .retrain(RetrainConfig::default(), Box::new(NoopTrainer))
        .build()
        .err()
        .expect("retrain without drift must be rejected");
    assert!(
        matches!(err, RuntimeError::Config(ref m) if m.contains("drift")),
        "got: {err:?}"
    );
}

#[test]
fn retrain_config_without_trainer_is_rejected_at_build() {
    let p = seq_ab(6);
    let err = StreamingDlacep::builder(p, OracleFilter::new(seq_ab(6)))
        .config(RuntimeConfig {
            drift: Some(DriftConfig::with_baseline(0.4)),
            retrain: Some(RetrainConfig::default()),
            ..Default::default()
        })
        .build()
        .err()
        .expect("retrain config without trainer must be rejected");
    assert!(
        matches!(err, RuntimeError::Config(ref m) if m.contains("trainer")),
        "got: {err:?}"
    );
}

fn seq_bc(w: u64) -> Pattern {
    Pattern::new(
        PatternExpr::Seq(vec![
            PatternExpr::event(TypeSet::single(B), "b"),
            PatternExpr::event(TypeSet::single(TypeId(2)), "c"),
        ]),
        vec![],
        WindowSpec::Count(w),
    )
}

fn match_keys(ms: &[Match]) -> std::collections::BTreeSet<Vec<dlacep_events::EventId>> {
    ms.iter().map(|m| m.event_ids.to_vec()).collect()
}

#[test]
fn multi_per_pattern_attribution_agrees_with_independent_runs() {
    let p1 = seq_ab(6);
    let p2 = seq_bc(6);
    let s = stream(200);

    // A passthrough filter relays every window, so each run is exact CEP:
    // the shared plan's per-pattern attribution must reproduce what each
    // pattern finds when evaluated on its own.
    let solo1 = Dlacep::new(p1.clone(), PassthroughFilter)
        .unwrap()
        .run(s.events());
    let solo2 = Dlacep::new(p2.clone(), PassthroughFilter)
        .unwrap()
        .run(s.events());

    let set = PatternSet::new(vec![p1, p2]).unwrap();
    let multi = Dlacep::multi(set, PassthroughFilter)
        .build()
        .unwrap()
        .run(s.events());

    assert_eq!(multi.per_pattern.len(), 2);
    assert!(
        !solo1.matches().is_empty() && !solo2.matches().is_empty(),
        "workload must exercise both patterns"
    );
    assert_eq!(
        match_keys(&multi.per_pattern[0]),
        match_keys(&solo1.matches())
    );
    assert_eq!(
        match_keys(&multi.per_pattern[1]),
        match_keys(&solo2.matches())
    );
    // The union report covers exactly the attributed matches: the
    // per-pattern lists concatenated in registration order.
    let mut union = match_keys(&multi.per_pattern[0]);
    union.extend(match_keys(&multi.per_pattern[1]));
    assert_eq!(match_keys(&multi.matches()), union);
    let all = multi.matches();
    assert!(matches!(all, Cow::Owned(_)));
    assert_eq!(*all, multi.per_pattern.concat());
}

#[test]
fn single_pattern_report_attributes_everything_to_that_pattern() {
    let p = seq_ab(6);
    let report = Dlacep::new(p.clone(), OracleFilter::new(p))
        .unwrap()
        .run(stream(160).events());
    assert_eq!(report.per_pattern.len(), 1);
    assert!(!report.per_pattern[0].is_empty());
    // One pattern: the report holds one copy, and `matches()` lends it.
    let all = report.matches();
    assert!(matches!(all, Cow::Borrowed(_)));
    assert!(std::ptr::eq(&*all, report.per_pattern[0].as_slice()));
}

#[test]
fn builder_patterns_appends_to_the_registered_set() {
    let p1 = seq_ab(6);
    let p2 = seq_bc(6);
    let s = stream(200);

    let via_append = Dlacep::builder(p1.clone(), PassthroughFilter)
        .patterns([p2.clone()])
        .build()
        .unwrap()
        .run(s.events());
    let via_set = Dlacep::multi(PatternSet::new(vec![p1, p2]).unwrap(), PassthroughFilter)
        .build()
        .unwrap()
        .run(s.events());

    assert_eq!(via_append.matches(), via_set.matches());
    assert_eq!(via_append.per_pattern, via_set.per_pattern);
}
