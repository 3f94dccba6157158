//! Byte identity of the match representation: a match used to carry its
//! own names, as `(String, Vec<EventId>)` pairs beside its sorted ids. That
//! representation, its encoding and the way it advanced an
//! [`EmittedMark`] are kept here as the oracle: a match under a shared
//! schema must encode to the same bytes and fold into the same mark —
//! whether it was built from bindings, emitted by an engine, or handed to
//! its pattern by a shared plan's attribution — and decode back to itself.

use super::{EmittedMark, Mixer};
use dlacep_cep::{event, TypeSet};
use dlacep_cep::{kleene, seq, CepEngine, Match, NfaConfig, Pattern, PatternExpr, PatternSet};
use dlacep_dur::{Decoder, Encoder};
use dlacep_events::{EventId, PrimitiveEvent, TypeId, WindowSpec};
use proptest::prelude::*;

/// A match as it was: its own names and one id vector per binding.
struct OldMatch {
    event_ids: Vec<EventId>,
    bindings: Vec<(String, Vec<EventId>)>,
}

impl OldMatch {
    /// What `Match::from_bindings` derived the sorted ids from.
    fn from_bindings(bindings: Vec<(String, Vec<EventId>)>) -> Self {
        let mut event_ids: Vec<EventId> = bindings.iter().flat_map(|(_, v)| v.clone()).collect();
        event_ids.sort_unstable();
        event_ids.dedup();
        Self {
            event_ids,
            bindings,
        }
    }

    /// The values `m` exposes, in the old layout.
    fn of(m: &Match) -> Self {
        Self {
            event_ids: m.event_ids.to_vec(),
            bindings: (m.bindings())
                .map(|(name, ids)| (name.to_string(), ids.to_vec()))
                .collect(),
        }
    }

    /// The old `Enc for Match`, written out word by word.
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let ids = |e: &mut Encoder, ids: &[EventId]| {
            e.put_u64(ids.len() as u64);
            ids.iter().for_each(|id| e.put_u64(id.0));
        };
        ids(&mut e, &self.event_ids);
        e.put_u64(self.bindings.len() as u64);
        for (name, bound) in &self.bindings {
            e.put_u64(name.len() as u64);
            e.put_bytes(name.as_bytes());
            ids(&mut e, bound);
        }
        e.into_bytes()
    }

    /// The old `EmittedMark::push`.
    fn push(&self, mark: &mut EmittedMark) {
        let mut h = Mixer(mark.hash);
        h.ids(&self.event_ids);
        h.word(self.bindings.len() as u64);
        for (name, bound) in &self.bindings {
            h.name(name.as_bytes());
            h.ids(bound);
        }
        mark.count += 1;
        mark.hash = h.0;
    }
}

/// Characters binding names are drawn from: one- to four-byte UTF-8.
const CHARS: [char; 8] = ['a', 'z', '_', '7', '.', 'é', '名', '🦀'];

/// A name of 1 to 40 bytes drawn from `g`.
fn name(g: &mut impl FnMut(u32) -> u32) -> String {
    let want = 1 + g(40) as usize;
    let mut s = String::new();
    while s.len() < want {
        let c = CHARS[g(CHARS.len() as u32) as usize];
        if s.len() + c.len_utf8() > want {
            break;
        }
        s.push(c);
    }
    if s.is_empty() {
        s.push('x');
    }
    s
}

fn genes(genes: &[u32]) -> impl FnMut(u32) -> u32 + '_ {
    let mut g = genes.iter().copied().cycle();
    move |n| g.next().unwrap_or(0) % n
}

/// Up to six bindings: single ones, and Kleene ones of 0 to 5 ids.
fn random_bindings(g: &mut impl FnMut(u32) -> u32) -> Vec<(String, Vec<EventId>)> {
    (0..g(7))
        .map(|_| {
            let n = match g(2) {
                0 => 1,
                _ => g(6) as usize,
            };
            let ids = (0..n)
                .map(|_| EventId(u64::from(g(1_000)) << g(40)))
                .collect();
            (name(g), ids)
        })
        .collect()
}

/// Up to three patterns `SEQ(x, y[, KC(z)])` over types 0..4 with random
/// names (distinct within a pattern), the `KC` one absorbing type 3.
fn random_set(g: &mut impl FnMut(u32) -> u32) -> PatternSet {
    let patterns = (0..=g(3))
        .map(|_| {
            // A leading character per step keeps the names distinct.
            let names: Vec<String> = ["A", "B", "C"]
                .iter()
                .map(|lead| {
                    let mut n = name(g);
                    while n.len() >= 40 {
                        n.pop();
                    }
                    format!("{lead}{n}")
                })
                .collect();
            let mut steps = vec![
                event(TypeSet::single(TypeId(g(3))), &names[0]),
                event(TypeSet::single(TypeId(g(3))), &names[1]),
            ];
            if g(2) == 0 {
                steps.push(kleene(event(TypeSet::single(TypeId(3)), &names[2])));
            }
            Pattern::new(seq(steps), vec![], WindowSpec::Count(6))
        })
        .collect::<Vec<Pattern>>();
    PatternSet::new(patterns).unwrap()
}

fn stream(types: &[u32]) -> Vec<PrimitiveEvent> {
    (types.iter().enumerate())
        .map(|(i, &t)| PrimitiveEvent::new(i as u64, TypeId(t), i as u64, vec![i as f64]))
        .collect()
}

/// `got` encodes, marks and decodes as `old` did; `marks` are the running
/// marks (`push`, `push_encoded`, oracle) over the sequence so far.
fn same_bytes(
    got: &Match,
    old: &OldMatch,
    marks: &mut [EmittedMark; 3],
) -> Result<(), TestCaseError> {
    let mut e = Encoder::new();
    e.put(got);
    let bytes = e.into_bytes();
    prop_assert_eq!(&bytes, &old.encode());
    marks[0].push(got);
    marks[1].push_encoded(&bytes).unwrap();
    old.push(&mut marks[2]);
    prop_assert_eq!(marks[0], marks[2]);
    prop_assert_eq!(marks[1], marks[2]);
    let mut d = Decoder::new(&bytes);
    let back: Match = d.get().unwrap();
    d.finish().unwrap();
    prop_assert_eq!(&back, got);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn built_matches_encode_and_mark_as_the_old_representation(
        g in prop::collection::vec(0u32..1_000_000, 96),
    ) {
        let mut g = genes(&g);
        let mut marks = [EmittedMark::default(); 3];
        for _ in 0..1 + g(4) {
            let bindings = random_bindings(&mut g);
            let got = Match::from_bindings(bindings.clone());
            same_bytes(&got, &OldMatch::from_bindings(bindings), &mut marks)?;
        }
    }

    #[test]
    fn attributed_matches_encode_and_mark_as_the_old_representation(
        g in prop::collection::vec(0u32..1_000_000, 48),
        types in prop::collection::vec(0u32..4, 10..40),
    ) {
        let set = random_set(&mut genes(&g));
        let shared = set.compile().unwrap();
        let fused = shared.engine(NfaConfig::default()).run(&stream(&types));
        let mut marks = [EmittedMark::default(); 3];
        let mut decoded = Vec::new();
        for m in &fused {
            same_bytes(m, &OldMatch::of(m), &mut marks)?;
            let mut e = Encoder::new();
            e.put(m);
            decoded.push(Decoder::new(&e.into_bytes()).get::<Match>().unwrap());
        }
        let per = shared.attribute(fused);
        for m in per.iter().flatten() {
            same_bytes(m, &OldMatch::of(m), &mut marks)?;
        }
        // Decoded matches carry schemas of their own: attribution finds
        // their unit by name and rebuilds them under the owners' schemas.
        prop_assert_eq!(shared.attribute(decoded), per);
    }
}

#[test]
fn attributed_names_are_the_patterns() {
    let p = |a: &str, b: &str, k: &str| {
        let steps = vec![
            event(TypeSet::single(TypeId(0)), a),
            event(TypeSet::single(TypeId(1)), b),
            kleene(event(TypeSet::single(TypeId(3)), k)),
        ];
        Pattern::new(PatternExpr::Seq(steps), vec![], WindowSpec::Count(6))
    };
    let long = "a_binding_name_of_forty_bytes_and_more__";
    let set = PatternSet::new(vec![p("x", "y", "k"), p(long, "é", "🦀")]).unwrap();
    let shared = set.compile().unwrap();
    let fused = shared
        .engine(NfaConfig::default())
        .run(&stream(&[0, 1, 3, 3, 0, 1, 3]));
    let per = shared.attribute(fused);
    assert!(!per[0].is_empty());
    assert_eq!(per[0].len(), per[1].len());
    for (x, y) in per[0].iter().zip(&per[1]) {
        let names = |m: &Match| m.bindings().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(x), ["x", "y", "k"]);
        assert_eq!(names(y), [long, "é", "🦀"]);
        assert_eq!(x.event_ids, y.event_ids);
        let mut e = Encoder::new();
        e.put(y);
        assert_eq!(e.into_bytes(), OldMatch::of(y).encode());
    }
}
