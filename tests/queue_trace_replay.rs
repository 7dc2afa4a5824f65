//! End-to-end pop-order pins over real golden-corpus scenarios: the
//! engine's main-queue pop sequence is captured as a `(cycle,
//! fingerprint)` trace for every scenario of a corpus file, and the
//! concatenated trace text is frozen as a `(length, FNV-1a 64)` pin.
//!
//! The pins were computed from the historical `BinaryHeap` reference
//! queue (the `(at, seq)` oracle) and checked equal to the calendar
//! queue's traces before the reference path left the engine, so they
//! carry the oracle's authority: the calendar queue must keep
//! replaying that exact order — event for event — through routing,
//! contention, retransmission, and measurement resolution, not just at
//! the queue-API level (`crates/hisq-sim/tests/queue_equivalence.rs`
//! covers that).

use std::fmt::Write;

use distributed_hisq::runner::{scenario_system, Scenario};
use distributed_hisq::scenario::ScenarioFile;
use distributed_hisq::testing::assert_pinned;

/// Expands a committed scenario file into its scenario list.
fn corpus(text: &str) -> Vec<Scenario> {
    ScenarioFile::parse(text)
        .expect("committed corpus files parse")
        .expand(None)
}

/// Runs every scenario of the file with the pop trace enabled and
/// renders the traces as text (one `# id` header per scenario, one
/// `cycle fingerprint` line per popped event), returning the text and
/// the total event count.
fn trace_text(name: &str, text: &str) -> (String, usize) {
    let scenarios = corpus(text);
    assert!(!scenarios.is_empty(), "{name}: corpus expands to scenarios");
    let mut out = String::new();
    let mut events = 0usize;
    for scenario in &scenarios {
        let mut system = scenario_system(scenario).expect("corpus scenario builds");
        system.record_event_trace();
        system.run().expect("corpus scenario runs");
        writeln!(out, "# {}", scenario.id()).unwrap();
        for &(cycle, fingerprint) in system.event_trace() {
            writeln!(out, "{cycle} {fingerprint:016x}").unwrap();
        }
        events += system.event_trace().len();
    }
    (out, events)
}

/// Asserts the file's traces carry events and match the pin.
fn assert_file_trace(name: &str, text: &str, pinned_len: usize, pinned_fnv: u64) {
    let (trace, events) = trace_text(name, text);
    assert!(events > 0, "{name}: traces must carry events");
    assert_pinned(name, &trace, pinned_len, pinned_fnv);
}

#[test]
fn bisp_vs_lockstep_corpus_replays_exactly() {
    assert_file_trace(
        "bisp_vs_lockstep",
        include_str!("../scenarios/bisp_vs_lockstep.json"),
        58516,
        0xe3ea_4b97_3669_122a,
    );
}

#[test]
fn contended_links_corpus_replays_exactly() {
    assert_file_trace(
        "contended_links",
        include_str!("../scenarios/contended_links.json"),
        315972,
        0xb487_f65e_e7bb_afd0,
    );
}

#[test]
fn noisy_backends_corpus_replays_exactly() {
    assert_file_trace(
        "noisy_backends",
        include_str!("../scenarios/noisy_backends.json"),
        19093,
        0x0957_4987_927b_c9b9,
    );
}
