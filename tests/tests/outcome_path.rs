//! Record identity of the outcome-only path.
//!
//! Outcome-only campaigns (`campaign`, `exhaustive`, ground truths,
//! characterization) run [`Injector::run_many`], which classifies a run
//! without recording or comparing its value stream. Their records must
//! be exactly the experiment half of a propagation extraction
//! ([`Injector::extract_propagation`]) of the same `(site, bit)`: same
//! outcome, and the same `injected_err`/`output_err` bit patterns, under
//! either extraction mode and on scalar, snapshot-resumed and
//! lane-batched injectors alike.

use ftb_inject::{Experiment, ExtractionMode, Injector};
use ftb_integration::tiny_suite;
use ftb_trace::FaultSpec;

/// A record with its floats as raw bit patterns, so equality is bitwise.
fn key(e: &Experiment) -> (usize, u8, u8, u64, u64) {
    (
        e.site,
        e.bit,
        e.outcome.code(),
        e.injected_err.to_bits(),
        e.output_err.to_bits(),
    )
}

/// Every third site, with every fifth bit plus the two top bits: covers
/// masked, SDC and crash outcomes on every suite kernel at debug-build
/// cost.
fn strided_plan(n_sites: usize, bits: u8) -> Vec<FaultSpec> {
    let mut probe: Vec<u8> = (0..bits).step_by(5).collect();
    probe.extend([bits - 2, bits - 1]);
    probe.dedup();
    (0..n_sites)
        .step_by(3)
        .flat_map(|site| probe.iter().map(move |&bit| FaultSpec { site, bit }))
        .collect()
}

fn assert_records_match_extraction(inj: &Injector<'_>, plan: &[FaultSpec], label: &str) {
    let outcome_only = inj.run_many(plan);
    assert_eq!(outcome_only.len(), plan.len(), "{label}: record count");
    for (f, got) in plan.iter().zip(&outcome_only) {
        let extracted = inj.extract_propagation(f.site, f.bit, |_, _| {}).experiment;
        assert_eq!(
            key(got),
            key(&extracted),
            "{label}: run_many diverges from extract_propagation at ({}, {})",
            f.site,
            f.bit
        );
    }
}

#[test]
fn run_many_records_equal_extraction_experiments() {
    let mut batched = 0;
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let classifier = ftb_inject::Classifier::new(*tol);
        let probe = Injector::new(kernel.as_ref(), classifier);
        let plan = strided_plan(probe.n_sites(), probe.bits());
        for mode in [ExtractionMode::Buffered, ExtractionMode::Streamed] {
            let scalar = Injector::new(kernel.as_ref(), classifier).with_extraction(mode);
            assert_records_match_extraction(&scalar, &plan, &format!("{config:?} {mode:?} scalar"));
            if !kernel.batch_capable() {
                continue;
            }
            let lanes = Injector::new(kernel.as_ref(), classifier)
                .with_extraction(mode)
                .with_snapshots(usize::MAX)
                .with_batch_lanes(16);
            assert!(
                lanes.batch_binding().is_some(),
                "{config:?}: batching is off"
            );
            assert_records_match_extraction(&lanes, &plan, &format!("{config:?} {mode:?} batched"));
            batched += 1;
        }
    }
    assert!(
        batched >= 6,
        "batching applied to only {batched} kernel/mode cells — the batched axis is vacuous"
    );
}
