//! The traced pass: replay a workload's own input through every layer, one
//! layer at a time, from outside — timing calls into each layer's public
//! functions, recording a span around each pass, and counting allocations.
//!
//! Every workload gets every layer's number on *its* input, whether or not
//! the workload's end-to-end path goes through that layer: "what would the
//! filter cost on this stream" is a question `stock_exact` has too. Which
//! layers are on the path is stated per workload in `on_path`, and
//! `trace.coverage` adds up only those.

use crate::stats::{median, quantile};
use crate::sut::{self, AnyFilter, Event, Producer};
use crate::trace::{count_allocs, Tracer};
use crate::workloads::{self, Kind, Scenario};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Events of the workload's input each layer is replayed over: fewer where
/// one engine pass over them is slow, and in a `--quick` smoke run.
const SAMPLE: usize = 16_000;
const HEAVY_SAMPLE: usize = 5_000;
const QUICK_SAMPLE: usize = 4_000;
/// Share of `--seconds` one layer's passes may take.
const LAYER_SLICE: f64 = 0.02;
/// Shares of `--seconds` for the closed and open loops against a server.
const CLOSED_SLICE: f64 = 0.08;
const OPEN_SLICE: f64 = 0.25;

pub struct Pass {
    pub values: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    pub input_hash: u64,
    /// Timed passes made, over all layers.
    pub attempted: u64,
    pub problems: Vec<String>,
}

/// Repeat `pass` inside a span named `name` until `slice` has elapsed (at
/// least once). Returns the median nanoseconds of a pass.
struct Bench<'a> {
    tracer: &'a mut Tracer,
    slice: Duration,
    passes: u64,
}

impl Bench<'_> {
    fn time(&mut self, name: &'static str, mut pass: impl FnMut(&mut Tracer)) -> f64 {
        let deadline = Instant::now() + self.slice;
        let mut ns = Vec::new();
        loop {
            let ((), d) = self.tracer.span(name, &mut pass);
            ns.push(d as f64);
            self.passes += 1;
            if Instant::now() >= deadline {
                return median(&ns);
            }
        }
    }
}

/// Layers whose self time adds up to the workload's end-to-end time per
/// event, by the names their spans carry.
fn on_path(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::StockInt8 | Kind::Multiquery16 => {
            &["assemble", "filter.mark", "relay", "cep", "share.attribute"]
        }
        Kind::StockExact => &["cep"],
        // `client.send` is the client's `ingest` calls: encode + socket writes.
        Kind::ServeClosed | Kind::ServeOpen | Kind::ServeFrontdoor => &[
            "client.send",
            "wire.decode",
            "route",
            "wal.append",
            "wal.sync",
            "ckpt",
            "assemble",
            "filter.mark",
            "relay",
            "cep",
        ],
        Kind::FleetRecover => &[
            "route",
            "wal.append",
            "wal.sync",
            "ckpt",
            "assemble",
            "filter.mark",
            "relay",
            "cep",
        ],
    }
}

/// Every window's marks under `filter`, stream by stream in window order.
fn mark_all(filter: &AnyFilter, pattern: &sut::Pattern, streams: &[Vec<Event>]) -> Vec<Vec<bool>> {
    streams
        .iter()
        .flat_map(|s| sut::windows(pattern, s))
        .map(|w| sut::mark(filter, w))
        .collect()
}

pub fn run(kind: Kind, name: &str, seed: u64, seconds: f64, quick: bool) -> Pass {
    let mut tracer = Tracer::new(name);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut problems = Vec::new();

    // ---- setup ------------------------------------------------------------
    let (scn, _) = tracer.span("setup", |_| Scenario::build(kind, seed, true));
    let trained = scn.trained.as_ref().expect("the traced pass always trains");
    let pattern = &scn.patterns[0];
    v.insert("setup.datagen_ms", scn.datagen_ms);
    v.insert("setup.train_s", trained.train_s);
    v.insert("setup.train_epochs", trained.epochs as f64);
    v.insert("setup.quantize_ms", trained.quantize_ms);

    let sample_len = match kind {
        _ if quick => QUICK_SAMPLE,
        Kind::StockExact => HEAVY_SAMPLE,
        _ => SAMPLE,
    };
    let sample = &scn.events[..scn.events.len().min(sample_len)];
    let n = sample.len() as f64;
    // What the assembler, filter and engine see: the whole stream in a
    // batch pipeline, one substream per partition key behind a fleet.
    let streams: Vec<Vec<Event>> = if kind.keyed() {
        let keys: BTreeSet<u64> = sample.iter().map(|ev| sut::route(ev).0).collect();
        keys.iter()
            .map(|k| sut::key_substream(sample, *k))
            .collect()
    } else {
        vec![sample.to_vec()]
    };
    let mut bench = Bench {
        tracer: &mut tracer,
        slice: Duration::from_secs_f64(seconds * LAYER_SLICE),
        passes: 0,
    };

    // ---- serve::wire --------------------------------------------------------
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let encode_ns = bench.time("wire.encode", |_| {
        frames = sample.iter().map(sut::wire_encode).collect();
    });
    let bytes = frames.concat();
    let decode_ns = bench.time("wire.decode", |_| {
        assert_eq!(sut::wire_decode(&bytes), sample.len());
    });
    let (_, decode_allocs) = count_allocs(|| sut::wire_decode(&bytes));
    v.insert("wire.encode_ns_per_event", encode_ns / n);
    v.insert("wire.decode_ns_per_event", decode_ns / n);
    v.insert("wire.bytes_per_event", bytes.len() as f64 / n);
    v.insert("wire.decode_allocs_per_event", decode_allocs as f64 / n);

    // ---- events::key + serve::hash -----------------------------------------
    let route_ns = bench.time("route", |_| {
        for ev in sample {
            black_box(sut::route(ev));
        }
    });
    let mut routed = [0u64; sut::SHARDS as usize];
    let mut keys = BTreeSet::new();
    for ev in sample {
        let (key, shard) = sut::route(ev);
        keys.insert(key);
        routed[shard as usize] += 1;
    }
    let busiest = *routed.iter().max().expect("at least one shard") as f64;
    v.insert("route.ns_per_event", route_ns / n);
    v.insert("route.keys", keys.len() as f64);
    v.insert("route.shard_skew", busiest / (n / f64::from(sut::SHARDS)));

    // ---- dur::wal -----------------------------------------------------------
    // Append events `first..` of the sample as the fleet's WAL records.
    let append = |wal: &mut sut::MemWal, first: usize, events: &[Event]| {
        for (i, ev) in events.iter().enumerate() {
            wal.append(&sut::wal_record(
                (first + i) as u64 + 1,
                sut::route(ev).0,
                ev,
            ));
        }
    };
    let (mut wal_bytes, mut sync_ns) = (0u64, Vec::new());
    let append_ns = {
        let mut own_ns = Vec::new();
        let whole = bench.time("wal.append", |tr| {
            let mut wal = sut::MemWal::open();
            let mut in_sync = 0u64;
            for (c, chunk) in sample.chunks(32).enumerate() {
                append(&mut wal, c * 32, chunk);
                let ((), d) = tr.span("wal.sync", |_| wal.sync());
                sync_ns.push(d as f64);
                in_sync += d;
            }
            wal_bytes = wal.bytes();
            own_ns.push(in_sync as f64);
        });
        whole - median(&own_ns)
    };
    let (_, append_allocs) = count_allocs(|| append(&mut sut::MemWal::open(), 0, sample));
    v.insert("wal.append_ns_per_event", append_ns / n);
    v.insert("wal.sync_ns_per_call", median(&sync_ns));
    v.insert("wal.bytes_per_event", wal_bytes as f64 / n);
    v.insert("wal.append_allocs_per_event", append_allocs as f64 / n);
    v.insert(
        "wal.dirstore_sync_ns_per_call",
        dirstore_sync_ns(sample, &mut problems),
    );

    // ---- dur::checkpoint + core::durable ------------------------------------
    let keyed_stream = if kind.keyed() {
        sut::key_substream(sample, sut::pattern_key(pattern))
    } else {
        sample.to_vec()
    };
    let ckpt_events = &keyed_stream[..keyed_stream.len().min(4_000)];
    let ((encode, decode, ckpt_bytes), _) = bench.tracer.span("ckpt", |_| {
        sut::checkpoint_roundtrip(pattern, scn.filter.clone(), ckpt_events, 5)
    });
    v.insert("ckpt.encode_ns", median(&encode));
    v.insert("ckpt.decode_ns", median(&decode));
    v.insert("ckpt.bytes", ckpt_bytes as f64);

    // ---- serve::fleet in process, and its recovery ---------------------------
    let feed_fleet = |events: &[Event]| {
        let mut fleet = sut::fleet_create(pattern, scn.filter.clone());
        sut::fleet_ingest(&mut fleet, events).expect("memory fleet ingests");
        fleet
    };
    let mut inproc = None;
    let inproc_ns = bench.time("fleet.inproc", |_| {
        inproc = Some(sut::fleet_finish(feed_fleet(sample)));
    });
    let inproc = inproc.expect("at least one pass ran");
    let fleet_barriers = |per_shard_total: u64| per_shard_total as f64 / f64::from(sut::SHARDS);
    v.insert("serve.inproc_events_per_s", n / (inproc_ns * 1e-9));
    v.insert(
        "wal.syncs_per_kevent",
        fleet_barriers(inproc.wal_syncs) / (n / 1e3),
    );
    v.insert(
        "ckpt.per_kevent",
        fleet_barriers(inproc.checkpoints) / (n / 1e3),
    );

    // One fleet-wide checkpoint, taken half-way through the sample (a key
    // runtime's checkpoint grows with the matches it has emitted).
    let fleet_ckpt_ns = {
        let mut fleet = feed_fleet(&sample[..sample.len() / 2]);
        let (ns, _) = bench
            .tracer
            .span("ckpt.fleet", |_| sut::fleet_checkpoint_ns(&mut fleet));
        ns.unwrap_or_else(|e| {
            problems.push(format!("checkpoint_now failed: {e}"));
            0.0
        })
    };
    // Not a multiple of the checkpoint cadence: a WAL suffix remains.
    let crashed = sut::fleet_crash(feed_fleet(
        &sample[..sample.len() - sample.len() % 256 - 100],
    ));
    let load_ns: Vec<f64> = (0..5)
        .map(|_| sut::checkpoint_load_ns(&crashed) as f64)
        .collect();
    let mut replayed = 0;
    let recover_ns = bench.time("recover", |_| {
        match sut::fleet_recover(pattern, scn.filter.clone(), crashed.clone()) {
            Ok(r) => replayed = r.events_replayed,
            Err(e) => problems.push(format!("recover failed: {e}")),
        }
    });
    v.insert("recover.total_ms", recover_ns * 1e-6);
    v.insert("recover.ckpt_load_ns", median(&load_ns));
    v.insert("recover.events_replayed", replayed as f64);
    v.insert(
        "recover.replay_ns_per_event",
        (recover_ns - median(&load_ns)).max(0.0) / (replayed.max(1) as f64),
    );

    // ---- core::assembler ------------------------------------------------------
    let (mut windows, mut inferred) = (0usize, 0usize);
    let assemble_ns = bench.time("assemble", |_| {
        (windows, inferred) = (0, 0);
        for w in streams.iter().flat_map(|s| sut::windows(pattern, s)) {
            windows += 1;
            inferred += black_box(w).len();
        }
    });
    v.insert("assemble.ns_per_event", assemble_ns / n);
    v.insert("assemble.windows", windows as f64);
    v.insert("assemble.infer_factor", inferred as f64 / n);

    // ---- core::embed ----------------------------------------------------------
    let mut embedder = sut::Embedder::for_pattern(pattern);
    let mut embed_pass = || {
        for w in streams.iter().flat_map(|s| sut::windows(pattern, s)) {
            for ev in w {
                black_box(embedder.embed(ev));
            }
        }
    };
    let embed_ns = bench.time("embed", |_| embed_pass()) - assemble_ns;
    let (_, embed_allocs) = count_allocs(&mut embed_pass);
    v.insert("embed.ns_per_event", embed_ns.max(0.0) / n);
    v.insert("embed.allocs_per_event", embed_allocs as f64 / n);

    // ---- core::filter / core::quantized + nn ------------------------------------
    let mut int8_marks = Vec::new();
    let int8_ns = bench.time("mark.int8", |_| {
        int8_marks = mark_all(&trained.int8, pattern, &streams);
    }) - assemble_ns;
    let (_, mark_allocs) = count_allocs(|| mark_all(&trained.int8, pattern, &streams));
    let mut f32_marks = Vec::new();
    let f32_ns = bench.time("mark.f32", |_| {
        f32_marks = mark_all(&trained.f32, pattern, &streams);
    }) - assemble_ns;
    let mut encoder = sut::EncoderOnly::same_shape_as(trained);
    let encoder_ns = bench.time("nn.encoder", |_| {
        for w in streams.iter().flat_map(|s| sut::windows(pattern, s)) {
            encoder.infer(w.len());
        }
    }) - assemble_ns;
    let positions: usize = int8_marks.iter().map(Vec::len).sum();
    let agree: usize = int8_marks
        .iter()
        .zip(&f32_marks)
        .map(|(a, b)| a.iter().zip(b).filter(|(x, y)| x == y).count())
        .sum();
    let (int8_relayed, _) = relayed(pattern, &streams, &int8_marks);
    // Multiply-accumulates of one inferred event: per direction and layer
    // 4h·(in + h) for the gates, then 2h·2 for the emission layer.
    let (h, mut width, mut macs) = (trained.hidden, trained.input_dim, 0usize);
    for _ in 0..trained.layers {
        macs += 2 * 4 * h * (width + h);
        width = 2 * h;
    }
    macs += 2 * h * 2;
    v.insert("mark.ns_per_event", int8_ns / n);
    v.insert("mark.ns_per_window", int8_ns / windows.max(1) as f64);
    v.insert("mark.allocs_per_event", mark_allocs as f64 / n);
    v.insert(
        "mark.marked_share",
        int8_relayed.iter().map(Vec::len).sum::<usize>() as f64 / n,
    );
    v.insert("mark.agree_share", agree as f64 / positions.max(1) as f64);
    v.insert("mark.f32_ns_per_event", f32_ns / n);
    v.insert("nn.encoder_ns_per_event", encoder_ns.max(0.0) / n);
    v.insert(
        "nn.head_ns_per_event",
        (int8_ns - embed_ns - encoder_ns).max(0.0) / n,
    );
    v.insert("nn.macs_per_event", macs as f64 * inferred as f64 / n);

    // The workload's own filter, when it is not the int8 one just timed.
    let (actual_marks, actual_ns) = match scn.filter {
        AnyFilter::Int8(_) => (int8_marks, int8_ns),
        _ => {
            let mut marks = Vec::new();
            let ns = bench.time("filter.mark", |_| {
                marks = mark_all(&scn.filter, pattern, &streams);
            }) - assemble_ns;
            (marks, ns.max(0.0))
        }
    };

    // ---- core::pipeline relay ------------------------------------------------------
    let (relayed_streams, marked_positions) = relayed(pattern, &streams, &actual_marks);
    let relayed_events: usize = relayed_streams.iter().map(Vec::len).sum();
    let serial = sut::Batch::new(&scn.patterns, scn.filter.clone(), 1, sut::Obs::Default);
    let mut filter_stage_ns = Vec::new();
    let serial_ns = bench.time("batch.run", |_| {
        let stage: f64 = streams
            .iter()
            .map(|s| serial.run(s).filter_time.as_nanos() as f64)
            .sum();
        filter_stage_ns.push(stage);
    });
    let relay_ns = (median(&filter_stage_ns) - assemble_ns - actual_ns).max(0.0);
    v.insert("relay.ns_per_event", relay_ns / n);
    v.insert("relay.relayed_share", relayed_events as f64 / n);
    v.insert(
        "relay.dup_share",
        1.0 - relayed_events as f64 / marked_positions.max(1) as f64,
    );

    // ---- cep::nfa (the fused plan of every pattern, as the pipeline runs it) -------
    let (shared, compile_ns) = {
        let mut plan = None;
        let ns = bench.time("share.compile", |_| {
            plan = Some(sut::Shared::compile(&scn.patterns))
        });
        (plan.expect("at least one pass ran"), ns)
    };
    let mut counts = sut::CepCounts::default();
    let mut fused = Vec::new();
    let mut cep_pass = || {
        counts = sut::CepCounts::default();
        fused.clear();
        for s in &relayed_streams {
            let (matches, c) = shared.run(s);
            fused.extend(matches);
            counts.events_processed += c.events_processed;
            counts.partials_created += c.partials_created;
            counts.peak_partials = counts.peak_partials.max(c.peak_partials);
            counts.cond_evals += c.cond_evals;
            counts.matches += c.matches;
        }
    };
    let cep_ns = bench.time("cep", |_| cep_pass());
    let (_, cep_allocs) = count_allocs(&mut cep_pass);
    v.insert("cep.ns_per_event", cep_ns / n);
    v.insert(
        "cep.ns_per_relayed_event",
        cep_ns / relayed_events.max(1) as f64,
    );
    v.insert("cep.partials_per_event", counts.partials_created as f64 / n);
    v.insert("cep.peak_partials", counts.peak_partials as f64);
    v.insert("cep.cond_evals_per_event", counts.cond_evals as f64 / n);
    v.insert(
        "cep.partials_per_match",
        counts.partials_created as f64 / counts.matches.max(1) as f64,
    );
    v.insert("cep.allocs_per_event", cep_allocs as f64 / n);
    v.insert("cep.matches", counts.matches as f64);

    // ---- cep::rewrite + cep::share ---------------------------------------------------
    let attribute_ns = bench.time("share.attribute", |_| {
        black_box(shared.attribute(&fused));
    });
    let mut shared_steps = 0;
    let shared_full_ns = bench.time("share.shared_scan", |_| {
        shared_steps = streams
            .iter()
            .map(|s| shared.run(s).1.events_processed)
            .sum();
    });
    let mut separate_steps = 0;
    let separate_ns = bench.time("share.separate_scans", |_| {
        separate_steps = 0;
        for p in &scn.patterns {
            for s in &streams {
                separate_steps += sut::exact_nfa(p, s).1.events_processed;
            }
        }
    });
    let share = shared.counts();
    v.insert("share.compile_ms", compile_ns * 1e-6);
    v.insert("share.units", share.units as f64);
    v.insert("share.branches_merged", share.branches_merged as f64);
    v.insert("share.engine_steps", shared_steps as f64);
    v.insert("share.separate_engine_steps", separate_steps as f64);
    v.insert(
        "share.attribute_ns_per_match",
        attribute_ns / fused.len().max(1) as f64,
    );
    v.insert("share.speedup_vs_separate", separate_ns / shared_full_ns);

    // ---- par -----------------------------------------------------------------------------
    let pooled = sut::Batch::new(&scn.patterns, scn.filter.clone(), 2, sut::Obs::Default);
    let (mut jobs, mut steals) = (0, 0);
    let pooled_ns = bench.time("par.run_2t", |_| {
        for s in &streams {
            (jobs, steals) = sut::pool_counts(&pooled.run(s));
        }
    });
    v.insert("par.events_per_s_2t", n / (pooled_ns * 1e-9));
    v.insert("par.speedup_2t", serial_ns / pooled_ns);
    v.insert("par.jobs", jobs as f64);
    v.insert("par.steals", steals as f64);

    // ---- obs -----------------------------------------------------------------------------
    let quiet = sut::Batch::new(&scn.patterns, scn.filter.clone(), 1, sut::Obs::Off);
    let observed = sut::Batch::new(&scn.patterns, scn.filter.clone(), 1, sut::Obs::Traced);
    let run_all = |b: &sut::Batch| {
        for s in &streams {
            black_box(b.run(s));
        }
    };
    let quiet_ns = bench.time("obs.off", |_| run_all(&quiet));
    let observed_ns = bench.time("obs.on", |_| run_all(&observed));
    let scrape_ns = bench.time("obs.scrape", |_| {
        black_box(observed.scrape());
    });
    v.insert("obs.overhead_share", (observed_ns - quiet_ns) / quiet_ns);
    v.insert("obs.scrape_ms", scrape_ns * 1e-6);

    // ---- reference: exact CEP on the same input --------------------------------------------
    let exact_all = || {
        for s in &streams {
            black_box(sut::exact_nfa(pattern, s));
        }
    };
    let exact_ns = bench.time("ref.exact", |_| exact_all());
    v.insert("ref.exact_events_per_s", n / (exact_ns * 1e-9));

    // ---- serve::server / channel / client ---------------------------------------------------
    let passes = bench.passes;
    let served = serve_section(&mut tracer, &scn, seconds, &mut v, &mut problems);

    // ---- the workload's own path, end to end, and how much of it the layers explain ------
    let (e2e_ns_per_event, allocs_per_event) = match kind {
        Kind::StockInt8 | Kind::Multiquery16 => {
            let ((), allocs) = count_allocs(|| run_all(&serial));
            (serial_ns / n, allocs as f64 / n)
        }
        Kind::StockExact => {
            let ((), allocs) = count_allocs(exact_all);
            (exact_ns / n, allocs as f64 / n)
        }
        Kind::ServeClosed | Kind::ServeOpen | Kind::ServeFrontdoor => {
            (served.closed_ns_per_event, served.closed_allocs_per_event)
        }
        Kind::FleetRecover => {
            let (_, allocs) = count_allocs(|| feed_fleet(sample));
            (inproc_ns / n, allocs as f64 / n)
        }
    };
    v.insert("ref.gain_vs_exact", (exact_ns / n) / e2e_ns_per_event);
    let per_event: BTreeMap<&str, f64> = BTreeMap::from([
        ("wire.encode", encode_ns / n),
        ("client.send", served.send_ns_per_event),
        ("wire.decode", decode_ns / n),
        ("route", route_ns / n),
        ("wal.append", append_ns / n),
        (
            "wal.sync",
            median(&sync_ns) * v["wal.syncs_per_kevent"] / 1e3 * f64::from(sut::SHARDS),
        ),
        ("ckpt", fleet_ckpt_ns * v["ckpt.per_kevent"] / 1e3),
        ("assemble", assemble_ns / n),
        ("filter.mark", actual_ns / n),
        ("relay", relay_ns / n),
        ("cep", cep_ns / n),
        ("share.attribute", attribute_ns / n),
    ]);
    let explained: f64 = on_path(kind).iter().map(|layer| per_event[layer]).sum();
    v.insert("trace.coverage", explained / e2e_ns_per_event);
    v.insert(
        "trace.unaccounted_ns_per_event",
        e2e_ns_per_event - explained,
    );
    v.insert("trace.allocs_per_event", allocs_per_event);

    Pass {
        values: v,
        tracer,
        input_hash: scn.input_hash,
        attempted: passes + served.ops,
        problems,
    }
}

/// The events each stream relays under `marks` (a marked event is relayed
/// once however many overlapping windows marked it), and how many window
/// positions were marked in all.
fn relayed(
    pattern: &sut::Pattern,
    streams: &[Vec<Event>],
    marks: &[Vec<bool>],
) -> (Vec<Vec<Event>>, usize) {
    let mut marks = marks.iter();
    let mut marked_positions = 0;
    let out = streams
        .iter()
        .map(|s| {
            let mut keep = BTreeSet::new();
            for w in sut::windows(pattern, s) {
                let m = marks.next().expect("one mark vector per window");
                for (ev, marked) in w.iter().zip(m) {
                    if *marked {
                        marked_positions += 1;
                        keep.insert(ev.id.0);
                    }
                }
            }
            s.iter()
                .filter(|ev| keep.contains(&ev.id.0))
                .cloned()
                .collect()
        })
        .collect();
    (out, marked_positions)
}

/// Median nanoseconds of an append + `fsync` on a directory-backed log
/// under `benchmark/out/` (informational: the workloads use memory stores).
fn dirstore_sync_ns(sample: &[Event], problems: &mut Vec<String>) -> f64 {
    let dir = std::path::PathBuf::from(format!("benchmark/out/wal_{}", std::process::id()));
    let timed = (|| -> std::io::Result<Vec<f64>> {
        std::fs::create_dir_all(&dir)?;
        let mut wal = sut::DirWal::open(&dir)?;
        sample
            .iter()
            .take(16)
            .enumerate()
            .map(|(i, ev)| {
                let record = sut::wal_record(i as u64 + 1, sut::route(ev).0, ev);
                let t = Instant::now();
                wal.append_and_sync(&record)?;
                Ok(t.elapsed().as_nanos() as f64)
            })
            .collect()
    })();
    let _ = std::fs::remove_dir_all(&dir);
    match timed {
        Ok(ns) => median(&ns),
        Err(e) => {
            problems.push(format!("directory store under {}: {e}", dir.display()));
            0.0
        }
    }
}

struct Served {
    send_ns_per_event: f64,
    closed_ns_per_event: f64,
    /// Allocations per event over the closed loop, client and server
    /// threads together.
    closed_allocs_per_event: f64,
    ops: u64,
}

/// The workload's pattern and filter behind `WireServer` on loopback: how
/// long a connection and an idle flush take, a closed loop, then an open
/// loop at the `serve_open` schedule.
fn serve_section(
    tracer: &mut Tracer,
    scn: &Scenario,
    seconds: f64,
    v: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) -> Served {
    let pool = &scn.events;
    let (server, start_ns) = tracer.span("serve.start", |_| {
        sut::Server::start(sut::fleet_create(&scn.patterns[0], scn.filter.clone()))
            .expect("loopback bind")
    });
    v.insert("setup.server_start_ms", start_ns as f64 * 1e-6);

    // Connection set-up: connect + Hello/Resume, on fresh connections.
    let connects: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let client = sut::resilient_client(server.addr()).expect("loopback server accepts");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(client);
            ms
        })
        .collect();
    v.insert("serve.conn_setup_ms", median(&connects));

    // One Flush at a time on an otherwise idle connection.
    let mut wire = sut::wire_client(server.addr()).expect("loopback server accepts");
    let idle: Vec<f64> = (0..12)
        .map(|_| {
            let ((), d) = tracer.span("serve.flush_idle", |_| {
                if let Err(e) = wire.barrier() {
                    problems.push(format!("idle flush: {e}"));
                }
            });
            d as f64 * 1e-6
        })
        .collect();
    v.insert("serve.flush_rtt_idle_ms", median(&idle));

    // Closed loop, as serve_closed runs it.
    let ((closed, closed_allocs), _) = tracer.span("serve.closed_loop", |_| {
        count_allocs(|| {
            let budget = workloads::Budget::full(seconds * CLOSED_SLICE);
            workloads::closed_loop(&mut wire, pool, 0, budget)
        })
    });
    problems.extend(closed.problems.iter().cloned());
    let batch = workloads::CLOSED_BATCH as f64;
    let send_ns_per_event = median(&closed.send_s) * 1e9 / batch;
    let closed_ns_per_event = median(&closed.op_s) * 1e9 / batch;
    v.insert("serve.client_send_ns_per_event", send_ns_per_event);
    v.insert("serve.closed_ns_per_event", closed_ns_per_event);
    drop(wire);

    // Open loop, as serve_open runs it.
    let mut resilient = sut::resilient_client(server.addr()).expect("loopback server accepts");
    let (open, _) = tracer.span("serve.open_loop", |_| {
        workloads::open_loop(
            &mut resilient,
            &server,
            pool,
            closed.sent,
            seconds * OPEN_SLICE,
        )
    });
    problems.extend(open.problems.iter().cloned());
    let (overloaded, resyncs) = sut::client_counts(&resilient);
    drop(resilient);
    let or_zero = |samples: &[f64], q: f64| {
        if samples.is_empty() {
            0.0
        } else {
            quantile(samples, q)
        }
    };
    v.insert("serve.flush_p50_ms", or_zero(&open.latency_ms, 0.5));
    v.insert("serve.flush_p90_ms", or_zero(&open.latency_ms, 0.9));
    v.insert("serve.queue_depth_max", open.queue_depth_max as f64);
    v.insert("serve.overloaded_replies", overloaded as f64);
    v.insert("serve.resyncs", resyncs as f64);
    v.insert("gen.lag_p90_ms", or_zero(&open.lag_ms, 0.9));
    v.insert("gen.lag_end_ms", open.lag_ms.last().copied().unwrap_or(0.0));

    match server.stop() {
        Ok(outcome) if outcome.offered == open.sent => {}
        Ok(outcome) => problems.push(format!(
            "fleet was offered {} of {} events sent",
            outcome.offered, open.sent
        )),
        Err(e) => problems.push(format!("server stop: {e}")),
    }
    Served {
        send_ns_per_event,
        closed_ns_per_event,
        closed_allocs_per_event: closed_allocs as f64 / closed.sent.max(1) as f64,
        ops: (closed.op_s.len() + open.latency_ms.len()) as u64,
    }
}
