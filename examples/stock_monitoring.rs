//! Stock-market monitoring — the paper's motivating domain (§1, §5).
//!
//! Uses the textual pattern language against a synthetic NASDAQ-like stream
//! (Zipf-skewed tickers, log-normal volumes): detect five specific stock
//! updates with correlated volumes inside a count window, the structure of
//! the paper's Table 1 templates.
//!
//! ```bash
//! cargo run --release --example stock_monitoring
//! ```

use dlacep::cep::engine::CepEngine;
use dlacep::cep::pattern::parser::parse_pattern;
use dlacep::cep::NfaEngine;
use dlacep::core::prelude::*;
use dlacep::core::trainer::train_event_filter;
use dlacep::data::StockConfig;

fn main() {
    // Generate the market stream: 64 tickers S000..S063, volume attribute.
    let (schema, stream) = StockConfig {
        num_tickers: 64,
        num_events: 20_000,
        ..Default::default()
    }
    .generate();

    // Pattern in the textual language (cf. the SEQ/WHERE/WITHIN example of
    // paper §2.1). The volume of S003 must sit inside a band around the
    // volumes of the three preceding updates.
    let pattern = parse_pattern(
        &schema,
        "SEQ(S000|S001 a, S002|S003 b, S000|S001 c) \
         WHERE 0.6 * a.vol < c.vol < 1.7 * a.vol \
           AND 0.6 * b.vol < c.vol < 1.7 * b.vol \
         WITHIN 30",
    )
    .expect("pattern parses");
    println!("monitoring: SEQ(S000|S001, S002|S003, S000|S001) with volume bands, W = 30");

    // Train on the first 14k events, evaluate on the rest.
    let events = stream.events();
    let train = dlacep::events::EventStream::from_events(events[..14_000].to_vec()).unwrap();
    let live = &events[14_000..];

    println!("training event-network on 14k historical events...");
    let trained = train_event_filter(&pattern, &train, &TrainConfig::quick());
    println!(
        "  {} epochs, event-level test F1 = {:.3}",
        trained.report.epochs_run,
        trained.test.f1()
    );

    let dlacep = Dlacep::new(pattern.clone(), trained.filter).unwrap();
    let report = compare(&pattern, live, &dlacep);
    println!("\nlive monitoring over {} events:", live.len());
    println!("  exact matches    : {}", report.ecep_matches);
    println!(
        "  DLACEP matches   : {} (recall {:.3})",
        report.acep_matches, report.recall
    );
    println!("  throughput gain  : {:.2}x", report.throughput_gain);
    println!("  ECEP partials    : {}", report.ecep_partials);
    println!("  DLACEP partials  : {}", report.acep_partials);

    // Show one concrete alert, resolved back through the schema.
    let mut exact = NfaEngine::new(&pattern).unwrap();
    if let Some(m) = exact.run(live).first() {
        println!("\nexample alert:");
        for (binding, ids) in m.bindings() {
            for id in ids {
                let ev = live.iter().find(|e| e.id == *id).unwrap();
                println!(
                    "  {binding} = {} @ t={} vol={:.3}",
                    schema.type_name(ev.type_id).unwrap_or("?"),
                    ev.ts.0,
                    ev.attrs[0]
                );
            }
        }
    }
}
