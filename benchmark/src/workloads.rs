//! The seven workloads: what each one's input is, what its timed operation
//! is, and what its outputs are checked against. End-to-end runs only —
//! nothing here records a span or counts an allocation.

use crate::gen::{input_hash, stock_stream};
use crate::stats::median;
use crate::sut::{self, AnyFilter, Event, Pattern, Producer, Server, Trained};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StockInt8,
    StockExact,
    Multiquery16,
    ServeClosed,
    ServeOpen,
    ServeFrontdoor,
    FleetRecover,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "stock_int8" => Kind::StockInt8,
            "stock_exact" => Kind::StockExact,
            "multiquery16" => Kind::Multiquery16,
            "serve_closed" => Kind::ServeClosed,
            "serve_open" => Kind::ServeOpen,
            "serve_frontdoor" => Kind::ServeFrontdoor,
            "fleet_recover" => Kind::FleetRecover,
            _ => return None,
        })
    }

    /// Whether the workload's events reach key runtimes through a fleet
    /// (so windows slide over per-key substreams, not the whole stream).
    pub fn keyed(self) -> bool {
        matches!(
            self,
            Kind::ServeClosed | Kind::ServeOpen | Kind::ServeFrontdoor | Kind::FleetRecover
        )
    }

    fn int8(self) -> bool {
        matches!(self, Kind::StockInt8 | Kind::ServeClosed | Kind::ServeOpen)
    }

    /// Events in the workload's input. Serving workloads cycle through
    /// theirs for as long as they run.
    fn input_events(self) -> usize {
        match self {
            Kind::StockInt8 => 100_000,
            Kind::StockExact => 32_000,
            Kind::Multiquery16 => 40_000,
            Kind::ServeClosed | Kind::ServeOpen | Kind::ServeFrontdoor => 200_000,
            Kind::FleetRecover => RECOVER_INGEST + RECOVER_TAIL,
        }
    }
}

/// Stream ids handed to the generator, so measured input and training
/// history never share a seed.
const MEASURED: u64 = 0;
const HISTORY: u64 = 1;

/// A workload's input, patterns and filter, built from the seed alone.
pub struct Scenario {
    pub events: Vec<Event>,
    pub input_hash: u64,
    pub patterns: Vec<Pattern>,
    /// The filter the workload runs with.
    pub filter: AnyFilter,
    /// The trained event-net: always for int8 workloads, and for every
    /// workload when the traced pass asks for one.
    pub trained: Option<Trained>,
    pub datagen_ms: f64,
}

impl Scenario {
    pub fn build(kind: Kind, seed: u64, always_train: bool) -> Scenario {
        let t = Instant::now();
        let raw = stock_stream(seed, MEASURED, kind.input_events());
        let events = sut::to_events(&raw);
        let datagen_ms = t.elapsed().as_secs_f64() * 1e3;
        let patterns = match kind {
            // The regime where a one-second training budget is enough for
            // recall above 0.85: few relevant tickers, wide bands.
            Kind::StockInt8 => vec![sut::q_a1(4, 2, &[1, 2], 0.8, 1.25, 16)],
            // Behind a fleet the same tickers make up half of their key's
            // substream, and a key runtime's checkpoint holds every match it
            // has emitted: tighter bands keep matches (and so checkpoints)
            // sparse enough that a run's cost does not grow with its length.
            Kind::ServeClosed | Kind::ServeOpen | Kind::FleetRecover => {
                vec![sut::q_a1(4, 2, &[1, 2, 3], 0.9, 1.1, 16)]
            }
            // Heavy partial-match load, few full matches.
            Kind::StockExact => vec![sut::q_a1(4, 10, &[1, 2, 3], 0.95, 1.05, 24)],
            Kind::Multiquery16 => sut::multiquery16(),
            Kind::ServeFrontdoor => vec![sut::rare_seq2(8)],
        };
        let trained = (kind.int8() || always_train).then(|| {
            // A key runtime sees only its key's substream, so a fleet's
            // filter is trained on the substream of the pattern's key.
            let history = if kind.keyed() {
                let all = sut::to_events(&stock_stream(seed, HISTORY, 2 * sut::HISTORY_EVENTS));
                sut::key_substream(&all, sut::pattern_key(&patterns[0]))
            } else {
                sut::to_events(&stock_stream(seed, HISTORY, sut::HISTORY_EVENTS))
            };
            sut::train_int8(&patterns[0], history)
        });
        let filter = match (&trained, kind.int8()) {
            (Some(t), true) => t.int8.clone(),
            _ => AnyFilter::Passthrough,
        };
        Scenario {
            input_hash: input_hash(&raw),
            events,
            patterns,
            filter,
            trained,
            datagen_ms,
        }
    }
}

/// What one end-to-end run measured.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    pub events_per_s: f64,
    pub recall: f64,
    pub precision: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness or validity checks; empty when all hold.
    pub problems: Vec<String>,
    /// Facts worth printing beside the metrics.
    pub notes: Vec<(&'static str, String)>,
    pub input_hash: u64,
}

// ---------------------------------------------------------------------------
// Shared measuring helpers
// ---------------------------------------------------------------------------

/// How long a run measures and the fewest samples it takes however short
/// that is. `--quick` smoke runs take fewer.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    /// Set-ups timed at least.
    pub setups: usize,
    /// Operations timed at least.
    pub ops: usize,
}

impl Budget {
    pub fn full(seconds: f64) -> Budget {
        Budget {
            seconds,
            setups: 3,
            ops: 5,
        }
    }

    pub fn quick(seconds: f64) -> Budget {
        Budget {
            seconds,
            setups: 1,
            ops: 2,
        }
    }
}

/// Set up `budget.setups` times, keeping the last result for the
/// measurement and handing the others to `discard`. Returns every set-up's
/// seconds. A set-up ends where the first timed operation begins: it
/// includes one warm-up operation, so first windows, lazily created state
/// and cold caches are paid for here and show in `setup_s`.
fn repeat_setup<T>(
    budget: Budget,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let ready = setup();
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= budget.setups {
            return (ready, secs);
        }
        discard(ready);
    }
}

/// `op` until `budget.seconds` have passed (at least `budget.ops` times).
/// Returns each repetition's seconds.
fn timed_reps(budget: Budget, mut op: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget.seconds);
    let mut secs = Vec::new();
    while secs.len() < budget.ops || Instant::now() < deadline {
        let t = Instant::now();
        op();
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

/// `(recall, precision)` of an emitted match set against the exact one.
fn quality<T: Ord>(emitted: &BTreeSet<T>, exact: &BTreeSet<T>) -> (f64, f64) {
    let common = emitted.intersection(exact).count() as f64;
    let share = |of: usize| if of == 0 { 1.0 } else { common / of as f64 };
    (share(exact.len()), share(emitted.len()))
}

fn ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}

pub fn run(kind: Kind, seed: u64, budget: Budget) -> E2e {
    match kind {
        Kind::StockInt8 | Kind::Multiquery16 => batch(kind, seed, budget),
        Kind::StockExact => stock_exact(seed, budget),
        Kind::ServeClosed | Kind::ServeFrontdoor => {
            serve(kind, seed, budget, sut::wire_client, |c, _, pool, sent| {
                drive_closed(c, pool, sent, budget)
            })
        }
        Kind::ServeOpen => serve(
            kind,
            seed,
            budget,
            sut::resilient_client,
            |c, server, pool, sent| drive_open(c, server, pool, sent, budget),
        ),
        Kind::FleetRecover => fleet_recover(seed, budget),
    }
}

// ---------------------------------------------------------------------------
// stock_int8, multiquery16: the batch pipeline
// ---------------------------------------------------------------------------

/// Validity floor of `stock_int8`: below it the trained filter is not the
/// product the workload is there to measure.
const MIN_RECALL: f64 = 0.85;
const MIN_MARK_SHARE: f64 = 0.6;

fn batch(kind: Kind, seed: u64, budget: Budget) -> E2e {
    let ((scn, pipeline), setup_s) = repeat_setup(
        budget,
        || {
            let scn = Scenario::build(kind, seed, false);
            let pipeline = sut::Batch::new(&scn.patterns, scn.filter.clone(), 1, sut::Obs::Default);
            std::hint::black_box(pipeline.run(&scn.events));
            (scn, pipeline)
        },
        drop,
    );
    let mut last = None;
    let secs = timed_reps(budget, || last = Some(pipeline.run(&scn.events)));
    let report = last.expect("at least one repetition ran");

    // Reference: one exact engine per pattern on the same input.
    let mut problems = Vec::new();
    let (mut common, mut exact_total, mut emitted_total) = (0usize, 0usize, 0usize);
    for (i, pattern) in scn.patterns.iter().enumerate() {
        let exact = sut::match_keys(&sut::exact_nfa(pattern, &scn.events).0);
        let emitted = sut::match_keys(&report.per_pattern[i]);
        common += emitted.intersection(&exact).count();
        exact_total += exact.len();
        emitted_total += emitted.len();
        // §4.4: without negation, emitted matches are a subset of the exact ones.
        if !emitted.is_subset(&exact) {
            problems.push(format!(
                "pattern {i}: emitted matches are not a subset of exact CEP"
            ));
        }
        if kind == Kind::Multiquery16 && emitted != exact {
            problems.push(format!(
                "pattern {i}: shared plan emitted {} matches, a separate engine {}",
                emitted.len(),
                exact.len()
            ));
        }
    }
    let recall = common as f64 / exact_total.max(1) as f64;
    let precision = common as f64 / emitted_total.max(1) as f64;
    let busy = (report.filter_time + report.cep_time).as_secs_f64();
    let mark_share = report.filter_time.as_secs_f64() / busy;
    if kind == Kind::StockInt8 {
        if recall < MIN_RECALL {
            problems.push(format!("invalid: recall {recall:.3} below {MIN_RECALL}"));
        }
        if mark_share < MIN_MARK_SHARE {
            problems.push(format!(
                "invalid: filter stage share {mark_share:.2} below {MIN_MARK_SHARE}"
            ));
        }
    }
    if exact_total == 0 {
        problems.push("invalid: the input holds no exact match".into());
    }
    let n = scn.events.len() as f64;
    E2e {
        setup_s,
        events_per_s: n / median(&secs),
        op_ms: ms(&secs),
        recall,
        precision,
        attempted: secs.len() as u64,
        failed: 0,
        problems,
        notes: vec![
            ("events", scn.events.len().to_string()),
            ("patterns", scn.patterns.len().to_string()),
            ("exact_matches", exact_total.to_string()),
            (
                "relayed_share",
                format!("{:.4}", report.events_relayed as f64 / n),
            ),
            ("filter_stage_share", format!("{mark_share:.3}")),
        ],
        input_hash: scn.input_hash,
    }
}

// ---------------------------------------------------------------------------
// stock_exact: the exact engine alone
// ---------------------------------------------------------------------------

fn stock_exact(seed: u64, budget: Budget) -> E2e {
    let (scn, setup_s) = repeat_setup(
        budget,
        || {
            let scn = Scenario::build(Kind::StockExact, seed, false);
            std::hint::black_box(sut::exact_nfa(&scn.patterns[0], &scn.events));
            scn
        },
        drop,
    );
    let pattern = &scn.patterns[0];
    let mut last = None;
    let secs = timed_reps(budget, || last = Some(sut::exact_nfa(pattern, &scn.events)));
    let (matches, counts) = last.expect("at least one repetition ran");

    let nfa = sut::match_keys(&matches);
    let tree = sut::match_keys(&sut::exact_tree(pattern, &scn.events));
    let (recall, precision) = quality(&nfa, &tree);
    let mut problems = Vec::new();
    if nfa != tree {
        problems.push(format!(
            "NfaEngine emitted {} matches, TreeEngine {} on the same input",
            nfa.len(),
            tree.len()
        ));
    }
    if tree.is_empty() {
        problems.push("invalid: the input holds no exact match".into());
    }
    E2e {
        setup_s,
        events_per_s: scn.events.len() as f64 / median(&secs),
        op_ms: ms(&secs),
        recall,
        precision,
        attempted: secs.len() as u64,
        failed: 0,
        problems,
        notes: vec![
            ("events", scn.events.len().to_string()),
            ("exact_matches", tree.len().to_string()),
            ("partials_created", counts.partials_created.to_string()),
        ],
        input_hash: scn.input_hash,
    }
}

// ---------------------------------------------------------------------------
// serve_closed, serve_frontdoor, serve_open: the TCP path
// ---------------------------------------------------------------------------

/// Events per `Flush` in the closed loops.
pub const CLOSED_BATCH: u64 = 512;
/// Open-loop schedule: a tick every 50 ms, 150 events per tick = 3k ev/s.
/// Both numbers sit below a cliff. A request of more than 190 events
/// outgrows the client's 8 KiB write buffer, leaves in two socket writes
/// and then waits ≈ 44 ms for a delayed ACK; at more than ≈ 4.3k ev/s the
/// events falling due during one such wait are again more than 190, so a
/// single hiccup would lock the loop into that regime for the rest of the
/// run. At 150 events every 50 ms a late tick costs one such wait and the
/// next flush is back to one write. 150 events per flush also make the
/// flush ≈ 2 ms of work rather than four thread hand-offs' worth of
/// scheduler noise.
pub const TICK: Duration = Duration::from_millis(50);
pub const EVENTS_PER_TICK: u64 = 150;
/// A tick whose Summary arrives later than this after its due time failed.
pub const FLUSH_LIMIT: Duration = Duration::from_secs(1);
/// A run stops sending once this many events are out, however much time is
/// left, so checking its output against in-process fleets stays bounded.
const MAX_SENT: u64 = 400_000;

pub struct ClosedRun {
    /// Seconds of each 512-Ingest + Flush round trip.
    pub op_s: Vec<f64>,
    /// Seconds the `offer` calls alone took, per round trip.
    pub send_s: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Closed loop: send a batch, flush, wait for the Summary, repeat — the
/// next batch leaves only after the previous one is acknowledged.
pub fn closed_loop<P: Producer>(
    client: &mut P,
    pool: &[Event],
    mut sent: u64,
    budget: Budget,
) -> ClosedRun {
    let mut run = ClosedRun {
        op_s: Vec::new(),
        send_s: Vec::new(),
        sent,
        failed: 0,
        problems: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(budget.seconds);
    while (run.op_s.len() < budget.ops || Instant::now() < deadline)
        && sent + CLOSED_BATCH <= MAX_SENT
    {
        let t = Instant::now();
        let outcome = (|| {
            for i in sent..sent + CLOSED_BATCH {
                client.offer(&pool[(i % pool.len() as u64) as usize], i)?;
            }
            run.send_s.push(t.elapsed().as_secs_f64());
            client.barrier()
        })();
        run.op_s.push(t.elapsed().as_secs_f64());
        sent += CLOSED_BATCH;
        match outcome {
            Ok(ack) if ack.offered == sent => {}
            Ok(ack) => {
                run.problems.push(format!(
                    "Summary.offered {} after {sent} events sent",
                    ack.offered
                ));
                break;
            }
            Err(e) => {
                run.failed += 1;
                run.problems.push(format!("round trip failed: {e}"));
                break;
            }
        }
    }
    run.sent = sent;
    run
}

pub struct OpenRun {
    /// Per tick: its due time to the Summary that covered it, in ms.
    pub latency_ms: Vec<f64>,
    /// Per tick: its due time to the moment the generator sent it, in ms.
    pub lag_ms: Vec<f64>,
    /// Ticks the schedule held.
    pub ticks: u64,
    pub sent: u64,
    pub elapsed_s: f64,
    pub failed: u64,
    pub queue_depth_max: u64,
    pub problems: Vec<String>,
}

/// Open loop: tick `k` is due at `k × TICK` whatever the server does. When
/// a flush has kept the generator busy past several due times it catches
/// up by sending everything due, and every tick's latency still counts
/// from its own due time.
pub fn open_loop<P: Producer>(
    client: &mut P,
    server: &Server,
    pool: &[Event],
    mut sent: u64,
    seconds: f64,
) -> OpenRun {
    let ticks = ((seconds / TICK.as_secs_f64()) as u64).min((MAX_SENT - sent) / EVENTS_PER_TICK);
    let mut run = OpenRun {
        latency_ms: Vec::with_capacity(ticks as usize),
        lag_ms: Vec::with_capacity(ticks as usize),
        ticks,
        sent,
        elapsed_s: 0.0,
        failed: 0,
        queue_depth_max: 0,
        problems: Vec::new(),
    };
    let due = |k: u64| TICK * k as u32;
    let t0 = Instant::now();
    let mut next = 0u64;
    while next < ticks {
        let now = t0.elapsed();
        let due_upto = ((now.as_nanos() / TICK.as_nanos()) as u64 + 1).min(ticks);
        if due_upto <= next {
            std::thread::sleep(due(next) - now);
            continue;
        }
        let outcome = (|| {
            for k in next..due_upto {
                run.lag_ms.push((t0.elapsed() - due(k)).as_secs_f64() * 1e3);
                for i in sent..sent + EVENTS_PER_TICK {
                    client.offer(&pool[(i % pool.len() as u64) as usize], i)?;
                }
                sent += EVENTS_PER_TICK;
            }
            run.queue_depth_max = run.queue_depth_max.max(server.queue_depth());
            client.barrier()
        })();
        let done = t0.elapsed();
        match outcome {
            Ok(ack) if ack.offered == sent => {}
            Ok(ack) => {
                run.problems.push(format!(
                    "Summary.offered {} after {sent} events sent",
                    ack.offered
                ));
                break;
            }
            Err(e) => {
                run.failed += ticks - next;
                run.problems.push(format!("flush failed: {e}"));
                break;
            }
        }
        for k in next..due_upto {
            let latency = done - due(k);
            run.failed += u64::from(latency > FLUSH_LIMIT);
            run.latency_ms.push(latency.as_secs_f64() * 1e3);
        }
        next = due_upto;
    }
    run.sent = sent;
    run.elapsed_s = t0.elapsed().as_secs_f64();
    run
}

/// What a load generator measured against a running server.
struct Driven {
    op_ms: Vec<f64>,
    events_per_s: f64,
    attempted: u64,
    failed: u64,
    /// Events sent in all, warm-up included.
    sent: u64,
    problems: Vec<String>,
    notes: Vec<(&'static str, String)>,
}

fn drive_closed(client: &mut sut::WireClient, pool: &[Event], sent: u64, budget: Budget) -> Driven {
    let run = closed_loop(client, pool, sent, budget);
    let rates: Vec<f64> = run.op_s.iter().map(|s| CLOSED_BATCH as f64 / s).collect();
    Driven {
        op_ms: ms(&run.op_s),
        events_per_s: median(&rates),
        attempted: run.op_s.len() as u64,
        failed: run.failed,
        sent: run.sent,
        problems: run.problems,
        notes: Vec::new(),
    }
}

fn drive_open(
    client: &mut sut::ResilientClient,
    server: &Server,
    pool: &[Event],
    sent: u64,
    budget: Budget,
) -> Driven {
    let run = open_loop(client, server, pool, sent, budget.seconds);
    let (overloaded, resyncs) = sut::client_counts(client);
    Driven {
        events_per_s: (run.sent - sent) as f64 / run.elapsed_s,
        attempted: run.ticks,
        failed: run.failed,
        sent: run.sent,
        problems: run.problems,
        notes: vec![
            (
                "generator_lag_end_ms",
                format!("{:.2}", run.lag_ms.last().copied().unwrap_or(0.0)),
            ),
            ("queue_depth_max", run.queue_depth_max.to_string()),
            ("overloaded_replies", overloaded.to_string()),
            ("resyncs", resyncs.to_string()),
        ],
        op_ms: run.latency_ms,
    }
}

/// Set up fleet, server and client; warm up; let `drive` load the server;
/// stop it and check what it emitted.
fn serve<P: Producer>(
    kind: Kind,
    seed: u64,
    budget: Budget,
    connect: impl Fn(std::net::SocketAddr) -> Result<P, String>,
    drive: impl FnOnce(&mut P, &Server, &[Event], u64) -> Driven,
) -> E2e {
    // Warm-up: the first windows, the first checkpoints, key runtimes
    // created on their first event.
    let warm_up = Budget {
        seconds: 0.0,
        ..budget
    };
    let ((scn, server, mut client, warm), setup_s) = repeat_setup(
        budget,
        || {
            let scn = Scenario::build(kind, seed, false);
            let fleet = sut::fleet_create(&scn.patterns[0], scn.filter.clone());
            let server = Server::start(fleet).expect("loopback bind");
            let mut client = connect(server.addr()).expect("loopback server accepts");
            let warm = closed_loop(&mut client, &scn.events, 0, warm_up);
            (scn, server, client, warm)
        },
        |(_, server, client, _)| {
            drop(client);
            server.stop().expect("warmed-up server stops");
        },
    );
    let pool = &scn.events;
    let Driven {
        op_ms,
        events_per_s,
        attempted,
        failed,
        sent,
        problems: driven_problems,
        mut notes,
    } = drive(&mut client, &server, pool, warm.sent);
    let mut problems = warm.problems;
    problems.extend(driven_problems);
    drop(client);

    // Outputs: the wire run against the same fleet fed in process, and
    // against exact CEP (the same fleet with a passthrough filter).
    let (mut recall, mut precision) = (0.0, 0.0);
    match server.stop() {
        Err(e) => problems.push(format!("server stop: {e}")),
        Ok(wire) => {
            if wire.offered != sent {
                problems.push(format!(
                    "fleet was offered {} of {sent} events sent",
                    wire.offered
                ));
            }
            let replay = sut::cycled(pool, sent);
            let in_process = |filter: AnyFilter| {
                let mut fleet = sut::fleet_create_reference(&scn.patterns[0], filter);
                sut::fleet_ingest(&mut fleet, &replay).expect("memory fleet ingests");
                sut::fleet_finish(fleet)
            };
            let same = in_process(scn.filter.clone());
            if same.matches != wire.matches {
                problems.push(format!(
                    "wire run counted {} matches, the same fleet fed in process {}",
                    wire.matches.len(),
                    same.matches.len()
                ));
            }
            let exact = match scn.filter {
                AnyFilter::Passthrough => same,
                _ => in_process(AnyFilter::Passthrough),
            };
            if !wire.matches.is_subset(&exact.matches) {
                problems.push("emitted matches are not a subset of exact CEP".into());
            }
            if exact.matches.is_empty() {
                problems.push("invalid: the input holds no exact match".into());
            }
            (recall, precision) = quality(&wire.matches, &exact.matches);
            notes.push(("events_sent", sent.to_string()));
            notes.push(("keys", wire.keys.to_string()));
            notes.push(("exact_matches", exact.matches.len().to_string()));
            notes.push((
                "relayed_share",
                format!("{:.4}", wire.events_relayed as f64 / sent as f64),
            ));
        }
    }
    E2e {
        setup_s,
        op_ms,
        events_per_s,
        recall,
        precision,
        attempted,
        failed,
        problems,
        notes,
        input_hash: scn.input_hash,
    }
}

// ---------------------------------------------------------------------------
// fleet_recover: write, crash, read back
// ---------------------------------------------------------------------------

/// Events the fleet ingests before the crash, at most. Each repetition
/// crashes a little earlier than the last (16 crash points, then around
/// again), so the median `recover()` is over many checkpoint ages and WAL
/// suffix lengths rather than the luck of one …
pub const RECOVER_INGEST: usize = 50_100;
const CRASH_POINTS: usize = 16;
const CRASH_STEP: usize = 331;
/// … and events fed after recovery when checking the outcome.
const RECOVER_TAIL: usize = 4_000;
/// `recover()` calls timed per ingest.
const RECOVERS_PER_REP: usize = 5;

/// One ingest-crash-recover cycle at crash point `rep`.
struct CrashCycle {
    ingest_events_per_s: f64,
    recover_s: Vec<f64>,
    stores: sut::Stores,
    problems: Vec<String>,
}

fn crash_cycle(scn: &Scenario, rep: usize) -> CrashCycle {
    let pattern = &scn.patterns[0];
    let before_crash = &scn.events[..RECOVER_INGEST - (rep % CRASH_POINTS) * CRASH_STEP];
    let mut fleet = sut::fleet_create(pattern, scn.filter.clone());
    let t = Instant::now();
    sut::fleet_ingest(&mut fleet, before_crash).expect("memory fleet ingests");
    let ingest_events_per_s = before_crash.len() as f64 / t.elapsed().as_secs_f64();
    let stores = sut::fleet_crash(fleet);
    let (mut recover_s, mut problems) = (Vec::new(), Vec::new());
    for _ in 0..RECOVERS_PER_REP {
        let image = stores.clone();
        let t = Instant::now();
        let recovered = sut::fleet_recover(pattern, scn.filter.clone(), image);
        recover_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = recovered {
            problems.push(format!("recover failed: {e}"));
        }
    }
    CrashCycle {
        ingest_events_per_s,
        recover_s,
        stores,
        problems,
    }
}

fn fleet_recover(seed: u64, budget: Budget) -> E2e {
    let (scn, setup_s) = repeat_setup(
        budget,
        || {
            let scn = Scenario::build(Kind::FleetRecover, seed, false);
            crash_cycle(&scn, 0);
            scn
        },
        drop,
    );
    let pattern = &scn.patterns[0];

    let (mut rates, mut recover_s, mut problems) = (Vec::new(), Vec::new(), Vec::new());
    let mut crashed = None;
    timed_reps(budget, || {
        let cycle = crash_cycle(&scn, rates.len() + 1);
        rates.push(cycle.ingest_events_per_s);
        recover_s.extend(cycle.recover_s);
        problems.extend(cycle.problems);
        crashed = Some(cycle.stores);
    });
    let failed = problems.len() as u64;

    // Recovery + re-feed from resume_seq must equal an uninterrupted run.
    let uninterrupted = {
        let mut fleet = sut::fleet_create(pattern, scn.filter.clone());
        sut::fleet_ingest(&mut fleet, &scn.events).expect("memory fleet ingests");
        sut::fleet_finish(fleet)
    };
    let (mut recall, mut precision) = (0.0, 0.0);
    let mut notes = vec![("crashes", rates.len().to_string())];
    match sut::fleet_recover(
        pattern,
        scn.filter.clone(),
        crashed.expect("a repetition ran"),
    ) {
        Err(e) => problems.push(format!("recover failed: {e}")),
        Ok(mut r) => {
            let resume = (r.resume_seq - 1) as usize;
            sut::fleet_ingest(&mut r.fleet, &scn.events[resume..]).expect("memory fleet ingests");
            let resumed = sut::fleet_finish(r.fleet);
            if resumed.matches != uninterrupted.matches || resumed.offered != uninterrupted.offered
            {
                problems.push(format!(
                    "recover + re-feed from {} gave {} matches over {} events, an uninterrupted run {} over {}",
                    r.resume_seq,
                    resumed.matches.len(),
                    resumed.offered,
                    uninterrupted.matches.len(),
                    uninterrupted.offered
                ));
            }
            (recall, precision) = quality(&resumed.matches, &uninterrupted.matches);
            notes.push(("resume_seq", r.resume_seq.to_string()));
            notes.push(("events_replayed", r.events_replayed.to_string()));
            notes.push(("exact_matches", uninterrupted.matches.len().to_string()));
        }
    }
    if uninterrupted.matches.is_empty() {
        problems.push("invalid: the input holds no exact match".into());
    }
    E2e {
        setup_s,
        op_ms: ms(&recover_s),
        events_per_s: median(&rates),
        recall,
        precision,
        attempted: recover_s.len() as u64,
        failed,
        problems,
        notes,
        input_hash: scn.input_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_an_implementation() {
        for w in crate::spec::WORKLOADS {
            assert!(Kind::from_name(w.name).is_some(), "{}", w.name);
        }
        assert!(Kind::from_name("no_such_workload").is_none());
    }

    #[test]
    fn quality_is_recall_then_precision() {
        let exact: BTreeSet<u32> = [1, 2, 3, 4].into();
        let emitted: BTreeSet<u32> = [1, 2, 9].into();
        assert_eq!(quality(&emitted, &exact), (0.5, 2.0 / 3.0));
        assert_eq!(quality(&BTreeSet::<u32>::new(), &exact), (0.0, 1.0));
    }
}
