//! Differential harness across the two propagation-extraction paths.
//!
//! Buffered (full-trace record + after-the-fact comparison) and streamed
//! (one-sided comparison against the shared compact golden trace) are
//! two implementations of the paper's §2.2 extractor; Algorithm 1's
//! masked-run folds may use either, so they must be **bit-identical**: same
//! `Propagation` folds, same `Outcome` classifications, same
//! `injected_err`/`output_err`, across every kernel, fault site, bit,
//! and control-flow shape.

use ftb_inject::{Classifier, Experiment, ExtractionMode, Injector};
use ftb_integration::tiny_suite;
use ftb_kernels::{CgConfig, Kernel, KernelConfig};
use ftb_trace::{
    propagation, streamed_propagation, CompactGolden, CompareScratch, FaultSpec, Propagation,
    RecordMode, Tracer,
};
use proptest::prelude::*;
use rayon::prelude::*;

/// Everything one extraction produces, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Extraction {
    folded: Vec<(usize, u64)>,
    injected_err: u64,
    output_err: u64,
    outcome: u8,
    compare_len: usize,
    diverged: bool,
    max_err: u64,
}

/// Run one `(site, bit)` experiment through `mode`, capturing the fold
/// with errors as raw bit patterns so equality is bitwise, not approximate.
fn extract(
    kernel: &dyn Kernel,
    tol: f64,
    mode: ExtractionMode,
    site: usize,
    bit: u8,
) -> Extraction {
    let inj = Injector::new(kernel, Classifier::new(tol)).with_extraction(mode);
    let mut folded = Vec::new();
    let summary = inj.extract_propagation(site, bit, |s, d| folded.push((s, d.to_bits())));
    Extraction {
        folded,
        injected_err: summary.experiment.injected_err.to_bits(),
        output_err: summary.experiment.output_err.to_bits(),
        outcome: summary.experiment.outcome.code(),
        compare_len: summary.compare_len,
        diverged: summary.diverged,
        max_err: summary.max_err.to_bits(),
    }
}

fn assert_paths_agree(config: &KernelConfig, tol: f64, site: usize, bit: u8) {
    let kernel = config.build();
    let buffered = extract(kernel.as_ref(), tol, ExtractionMode::Buffered, site, bit);
    let streamed = extract(kernel.as_ref(), tol, ExtractionMode::Streamed, site, bit);
    assert_eq!(
        buffered, streamed,
        "buffered vs streamed disagree: {config:?} site {site} bit {bit}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: an arbitrary kernel, site and bit
    /// produce bit-identical extractions on both paths.
    #[test]
    fn all_paths_agree_on_arbitrary_faults(
        kernel_idx in 0usize..8,
        site_raw in any::<usize>(),
        bit_raw in any::<u8>(),
    ) {
        let (config, tol) = &tiny_suite()[kernel_idx];
        let kernel = config.build();
        let n_sites = kernel.golden().n_sites();
        let bits = kernel.precision().bits();
        let site = site_raw % n_sites;
        let bit = bit_raw % bits;
        assert_paths_agree(config, *tol, site, bit);
    }
}

/// High bits of early sites: the faults most likely to derail control
/// flow (divergence, crashes, hangs) on every kernel in the suite.
#[test]
fn all_paths_agree_on_high_bit_faults_across_kernels() {
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let bits = kernel.precision().bits();
        for site in [0, 1] {
            for bit in [bits - 1, bits - 2, 0] {
                assert_paths_agree(config, *tol, site, bit);
            }
        }
    }
}

/// Divergent control flow (the early-consumer-stop path): find faults
/// that change CG's iteration count, then check both extractors agree
/// there: the streamed comparator must seal its window at the
/// divergence cursor exactly where the buffered one cuts it.
#[test]
fn all_paths_agree_under_control_flow_divergence() {
    let config = KernelConfig::Cg(CgConfig {
        grid: 4,
        max_iters: 100,
        ..CgConfig::small()
    });
    let tol = 1e-1;
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
    let mut diverging = 0;
    for site in 0..inj.n_sites() {
        let (_, prop) = inj.run_one_traced(site, 30);
        if prop.diverged {
            assert_paths_agree(&config, tol, site, 30);
            diverging += 1;
            if diverging >= 4 {
                break;
            }
        }
    }
    assert!(
        diverging > 0,
        "no diverging fault found to exercise the test"
    );
}

/// The site-never-reached edge case, at the trace level: a fault site
/// beyond the execution leaves `injected_err` unset and the propagation
/// window empty, identically on the buffered and streamed paths.
#[test]
fn buffered_and_streamed_agree_when_fault_site_is_never_reached() {
    let (config, _) = &tiny_suite()[4]; // matvec
    let kernel = config.build();
    let golden = kernel.golden();
    let compact = CompactGolden::from_golden(&golden);
    let fault = FaultSpec {
        site: golden.n_sites() + 7,
        bit: 1,
    };

    let buffered_run = kernel.run_injected(fault, RecordMode::Full);
    let buffered: Propagation = propagation(&golden, &buffered_run);

    let mut scratch = CompareScratch::new();
    let mut t = Tracer::comparing(fault, &compact, &mut scratch);
    let out = kernel.run(&mut t);
    let (streamed_run, window) = t.finish_compare(out);
    let streamed = streamed_propagation(fault.site, window, &scratch);

    assert_eq!(buffered, streamed);
    assert!(streamed.errors.is_empty());
    assert_eq!(buffered_run.injected_err, None);
    assert_eq!(streamed_run.injected_err, None);
    assert_eq!(buffered_run.output, streamed_run.output);
}

/// The experiment half of propagation extractions through `mode` over
/// `plan`, in plan order (parallel over the current rayon pool).
fn extracted(
    kernel: &dyn Kernel,
    tol: f64,
    mode: ExtractionMode,
    plan: &[FaultSpec],
) -> Vec<Experiment> {
    let inj = Injector::new(kernel, Classifier::new(tol)).with_extraction(mode);
    plan.par_iter()
        .map(|f| inj.extract_propagation(f.site, f.bit, |_, _| {}).experiment)
        .collect()
}

/// Every site, every seventh bit plus the sign and top exponent bits.
fn probe_plan(kernel: &dyn Kernel, tol: f64) -> Vec<FaultSpec> {
    let probe = Injector::new(kernel, Classifier::new(tol));
    let bits = probe.bits();
    let mut probe_bits: Vec<u8> = (0..bits).step_by(7).collect();
    probe_bits.extend([bits - 2, bits - 1]);
    probe_bits.dedup();
    (0..probe.n_sites())
        .flat_map(|site| probe_bits.iter().map(move |&bit| FaultSpec { site, bit }))
        .collect()
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// The full conformance matrix: every instrumented kernel in the tiny
/// suite × every extraction path × {1, 4, 8}-thread rayon pools yields
/// experiment records bit-identical to the outcome-only path's
/// ([`Injector::run_many`]) under a serial pool, and so does the
/// outcome-only path itself under 4- and 8-thread pools. The bit axis
/// is strided (every seventh bit plus the sign and top exponent bits)
/// so the matrix stays affordable in a debug run; full-bit-axis
/// agreement is covered by
/// `exhaustive_outcome_tables_identical_across_paths` and the proptest.
#[test]
fn conformance_matrix_all_kernels_modes_and_pools() {
    let key = |v: Vec<Experiment>| -> Vec<(u8, u64, u64)> {
        v.iter()
            .map(|e| {
                (
                    e.outcome.code(),
                    e.injected_err.to_bits(),
                    e.output_err.to_bits(),
                )
            })
            .collect()
    };
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let plan = probe_plan(kernel.as_ref(), *tol);
        assert!(!plan.is_empty(), "{config:?}: empty campaign");
        let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol));
        let reference = key(in_pool(1, || inj.run_many(&plan)));
        for threads in [4usize, 8] {
            let got = key(in_pool(threads, || inj.run_many(&plan)));
            assert_eq!(
                reference, got,
                "{config:?}: outcome-only path under a {threads}-thread pool diverged"
            );
        }
        for mode in [ExtractionMode::Buffered, ExtractionMode::Streamed] {
            for threads in [1usize, 4, 8] {
                let got = key(in_pool(threads, || {
                    extracted(kernel.as_ref(), *tol, mode, &plan)
                }));
                assert_eq!(
                    reference, got,
                    "{config:?}: {mode:?} extraction under a {threads}-thread pool \
                     diverged from the serial outcome-only path"
                );
            }
        }
    }
}

/// The batched-execution axis of the conformance matrix: the same
/// kernels and plans as `conformance_matrix_all_kernels_modes_and_pools`,
/// run through the outcome-only path with snapshots captured and an
/// 8-lane batch width configured, under 1-, 4- and 8-thread pools.
/// Batch-capable kernels (jacobi, gemm, lu) run the lane-batched SoA
/// engine; every other kernel silently falls back to scalar
/// snapshot-resumed execution. Every cell must reproduce serial
/// from-scratch buffered extraction bitwise — experiments *and* their
/// serialized ledger-record bytes.
#[test]
fn conformance_matrix_batched_axis() {
    let mut batched_somewhere = 0;
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let plan = probe_plan(kernel.as_ref(), *tol);
        let records = |v: Vec<Experiment>| -> Vec<String> {
            v.iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect()
        };
        let reference = records(in_pool(1, || {
            extracted(kernel.as_ref(), *tol, ExtractionMode::Buffered, &plan)
        }));
        let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol))
            .with_snapshots(usize::MAX)
            .with_batch_lanes(8);
        if inj.batch_binding().is_some() {
            batched_somewhere += 1;
        }
        for threads in [1usize, 4, 8] {
            let got = records(in_pool(threads, || inj.run_many(&plan)));
            assert_eq!(
                reference, got,
                "{config:?}: batched outcome-only path under a {threads}-thread pool \
                 diverged from serial scalar buffered extraction"
            );
        }
    }
    assert!(
        batched_somewhere >= 3,
        "batching applied to only {batched_somewhere} suite kernels — the axis is vacuous"
    );
}

/// Exhaustive agreement on one small kernel: the whole `sites × bits`
/// outcome table built from either extraction path is identical to the
/// outcome-only [`Injector::exhaustive`] table (this is the same
/// assertion the CI benchmark smoke job makes on the bench suite).
#[test]
fn exhaustive_outcome_tables_identical_across_paths() {
    let (config, tol) = &tiny_suite()[4]; // matvec
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol));
    let table = inj.exhaustive();
    let plan: Vec<FaultSpec> = (0..inj.n_sites())
        .flat_map(|site| (0..inj.bits()).map(move |bit| FaultSpec { site, bit }))
        .collect();
    for mode in [ExtractionMode::Buffered, ExtractionMode::Streamed] {
        let codes: Vec<u8> = extracted(kernel.as_ref(), *tol, mode, &plan)
            .iter()
            .map(|e| e.outcome.code())
            .collect();
        assert_eq!(table.codes, codes, "{mode:?}");
    }
}
