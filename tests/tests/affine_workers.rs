//! The affine threshold sweep runs its seed chunks on every rayon
//! worker. A symbol's `(c, k)` arithmetic reads only that symbol's own
//! pairs, in fixed edge order, so the thresholds must not depend on the
//! worker count, on the chunk width, or on which other sites share a
//! chunk. These tests compare results bit for bit (`to_bits`), and pin
//! each kernel's thresholds to a digest of the output of the serial
//! sweep this one replaced.

use ftb_core::{affine_bound, AffineBound, AffineConfig};
use ftb_integration::tiny_suite;
use ftb_trace::{Ddg, Fnv1a};
use rayon::ThreadPoolBuilder;

fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(f)
}

/// Everything the sweep decides, with thresholds as raw bits.
fn fingerprint(ab: &AffineBound) -> (Vec<u64>, usize, usize) {
    (
        ab.thresholds.iter().map(|t| t.to_bits()).collect(),
        ab.n_tightened,
        ab.n_swept,
    )
}

fn digest(ab: &AffineBound) -> u64 {
    let mut h = Fnv1a::new();
    for t in &ab.thresholds {
        h.write_u64(t.to_bits());
    }
    h.write_u64(ab.n_tightened as u64);
    h.write_u64(ab.n_swept as u64);
    h.finish()
}

fn bound(
    ddg: &Ddg,
    tolerance: f64,
    budget: usize,
    targets: Option<&[usize]>,
    workers: usize,
) -> AffineBound {
    with_workers(workers, || {
        affine_bound(ddg, tolerance, 1.0, &AffineConfig { budget }, targets).unwrap()
    })
}

/// Digests of the single-threaded sweep that swept every chunk from
/// site 0, per [`tiny_suite`] kernel (in its order), for every live site
/// and for every third site.
const SERIAL_DIGESTS: [(u64, u64); 8] = [
    (0x1b8a_c68d_82f1_cfa4, 0x070a_e985_4106_439c), // cg
    (0x196a_e81d_0da7_c58d, 0x17f7_159b_6c36_98ea), // lu
    (0xe664_b94e_2f32_ed81, 0x8709_6c13_96fa_63e7), // fft
    (0x8728_6f2a_e03c_a438, 0x82fd_52e0_e15a_ceab), // stencil
    (0x57d5_fcb0_0fc8_e532, 0x1f80_9f50_8175_5e5f), // matvec
    (0xc19b_218c_75bc_bff0, 0xdcc8_57c9_2a3f_d8f1), // gemm
    (0x0846_8a1e_40ec_8cde, 0x07e9_4cdd_84c1_484d), // spmv
    (0x0f8d_3058_7e1c_1e16, 0x44cf_ddcd_b08f_c4a3), // jacobi
];

#[test]
fn thresholds_are_identical_for_every_worker_count() {
    for ((config, tolerance), pinned) in tiny_suite().into_iter().zip(SERIAL_DIGESTS) {
        let (_, ddg) = config.build().golden_with_ddg();
        let strided: Vec<usize> = (0..ddg.n_sites).step_by(3).collect();
        for (targets, pinned) in [(None, pinned.0), (Some(&strided[..]), pinned.1)] {
            let serial = bound(&ddg, tolerance, 32, targets, 1);
            assert_eq!(
                digest(&serial),
                pinned,
                "{config:?}: strided {} does not match the serial sweep's digest",
                targets.is_some()
            );
            // budget 4 gives every kernel several chunks per worker
            for budget in [4, 32] {
                for workers in [2, 3, 8] {
                    let parallel = bound(&ddg, tolerance, budget, targets, workers);
                    assert!(
                        fingerprint(&serial) == fingerprint(&parallel),
                        "{config:?}: budget {budget}, {workers} workers, strided {} \
                         differs from one worker",
                        targets.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn thresholds_do_not_depend_on_chunk_width() {
    for (config, tolerance) in tiny_suite() {
        let (_, ddg) = config.build().golden_with_ddg();
        let reference = fingerprint(&bound(&ddg, tolerance, 64, None, 2));
        for budget in [1, 7, 32] {
            assert!(
                fingerprint(&bound(&ddg, tolerance, budget, None, 2)) == reference,
                "{config:?}: budget {budget} changes the thresholds"
            );
        }
    }
}

/// The `cg-adaptive-affine` benchmark input (cg grid 10, seed 42,
/// tolerance 1e-4, default safety and budget). The digest was taken from
/// the single-threaded sweep that swept every chunk from site 0, so this
/// pins the chunk-parallel sweep to that one.
#[test]
fn benchmark_cg_thresholds_match_the_serial_sweep() {
    let line = "adaptive --kernel cg --grid 10 --tolerance 1e-4 --bit-prune --domain affine \
                --seed 42";
    let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
    let args = ftb_cli::parse(&raw).unwrap();
    let (_, ddg) = args.kernel.build().golden_with_ddg();
    let ab = affine_bound(
        &ddg,
        args.tolerance,
        args.safety,
        &AffineConfig {
            budget: args.budget,
        },
        None,
    )
    .unwrap();
    assert_eq!((ab.n_swept, ab.n_edges), (8380, 33580));
    assert_eq!(ab.n_tightened, 6179);
    assert_eq!(
        digest(&ab),
        0xe24e_1e02_bb2d_9049,
        "digest {:#018x}",
        digest(&ab)
    );
}
