//! Traced run of one e2ebench workload.
//!
//! Takes the same arguments as the `ftb` command it stands in for
//! (`exhaustive --bit-prune` or `adaptive`), parses them with the CLI's
//! own parser, and replays that command's flow call by call through the
//! library. Each public call into a layer runs inside a span: wall time,
//! plus the process peak RSS over the call (VmHWM is reset by writing
//! `5` to `/proc/self/clear_refs` before the call and read after it).
//! Counts are taken at the same boundaries. The answer is written to
//! `--json` exactly as the CLI writes it, so the benchmark checks it
//! against the same reference.
//!
//! Prints one JSON object on stdout:
//! `{"spans": [{"layer", "call", "start_s", "end_s", "peak_rss_mb"}..],
//!   "counts": {name: value}}`. Spans are kept in memory and printed at
//! the end; every span is a child of the whole run, and they never
//! overlap.
//!
//! Usage: `ftb-traced exhaustive --kernel jacobi --grid 14 ...`

use ftb_cli::Args;
use ftb_core::prelude::*;
use ftb_core::BoundaryEval;
use ftb_inject::ledger::{LedgerHeader, LedgerWriter};
use ftb_inject::{
    pruned_exhaustive_plan, schedule_snapshot_major, BitPruneBinding, CampaignBinding,
    ChunkedCampaign, Experiment,
};
use ftb_kernels::Kernel;
use ftb_trace::FaultSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

struct Span {
    layer: &'static str,
    call: &'static str,
    start_s: f64,
    end_s: f64,
    peak_rss_mb: f64,
}

/// In-memory span and counter log for one run.
struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` as one call into `layer`.
    fn span<T>(&mut self, layer: &'static str, call: &'static str, f: impl FnOnce() -> T) -> T {
        reset_peak_rss();
        let start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            call,
            start_s,
            end_s,
            peak_rss_mb: peak_rss_mb(),
        });
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"layer\": \"{}\", \"call\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"peak_rss_mb\": {}}}",
                s.layer, s.call, s.start_s, s.end_s, s.peak_rss_mb
            );
        }
        out.push_str("], \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push_str("}}");
        out
    }
}

/// Reset the process high-water mark to the current RSS. Best effort: a
/// kernel without `clear_refs` leaves the peak process-wide.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

fn write_answer<T: serde::Serialize>(args: &Args, value: &T) -> Result<(), String> {
    if let Some(path) = &args.json {
        let data = serde_json::to_vec_pretty(value).map_err(|e| err("serialising answer", e))?;
        std::fs::write(path, data).map_err(|e| err(path, e))?;
    }
    Ok(())
}

/// The `ftb` injector setup: golden record, then optional snapshots and
/// lane width, as `Analysis::new(..).with_*` builds it in the CLI.
fn injector<'k>(tr: &mut Trace, args: &Args, kernel: &'k dyn Kernel) -> Injector<'k> {
    let classifier = Classifier::new(args.tolerance);
    let mut injector = tr.span("trace.golden", "Injector::new", || {
        Injector::new(kernel, classifier).with_extraction(args.extraction)
    });
    tr.count("trace.sites", injector.n_sites() as f64);
    tr.count(
        "trace.golden_mb",
        injector.compact_golden().memory_bytes() as f64 / MIB,
    );
    if args.snapshot {
        injector = tr.span("inject.snapshot", "Injector::with_snapshots", || {
            injector.with_snapshots(args.snapshot_max)
        });
        if let Some(store) = injector.snapshot_store() {
            tr.count("inject.snapshots", store.len() as f64);
            tr.count("inject.snapshot_mb", store.store_bytes() as f64 / MIB);
        }
    }
    injector.with_batch_lanes(args.batch_lanes)
}

/// `--bit-prune` certification masks, as the CLI derives them.
fn bit_masks(tr: &mut Trace, args: &Args, kernel: &dyn Kernel) -> Result<BitMasks, String> {
    let (golden, ddg) = tr.span("trace.ddg", "Kernel::golden_with_ddg", || {
        kernel.golden_with_ddg()
    });
    tr.count("trace.ddg_edges", ddg.n_edges() as f64);
    let fwd = ForwardConfig { widen: args.widen };
    let masks = if args.domain == "affine" {
        let acfg = AffineConfig {
            budget: args.budget,
        };
        let ab = tr
            .span("absint.affine", "affine_bound", || {
                affine_bound(&ddg, args.tolerance, args.safety, &acfg, None)
            })
            .map_err(|e| err("bit masks", e))?;
        let fw = tr
            .span("absint.affine", "affine_forward", || {
                affine_forward(&ddg, &golden, &fwd, &acfg)
            })
            .map_err(|e| err("forward pass", e))?;
        tr.count("absint.swept_sites", ab.n_swept as f64);
        tr.count("absint.dead_sites", ab.n_dead as f64);
        tr.span("absint.affine", "safe_bit_masks", || {
            safe_bit_masks(&fw, &ab.boundary(), MaskSource::Affine)
        })
    } else {
        let cfg = StaticBoundConfig {
            tolerance: args.tolerance,
            safety: args.safety,
        };
        let sb = tr
            .span("absint.interval", "static_bound", || {
                static_bound(&ddg, &cfg)
            })
            .map_err(|e| err("bit masks", e))?;
        let fw = tr
            .span("absint.interval", "forward_pass", || {
                forward_pass(&ddg, &golden, &fwd)
            })
            .map_err(|e| err("forward pass", e))?;
        tr.span("absint.interval", "safe_bit_masks", || {
            safe_bit_masks(&fw, &sb.boundary(), MaskSource::Static)
        })
    };
    tr.count("absint.certified_bits", masks.certified_total() as f64);
    tr.count(
        "absint.total_bits",
        masks.n_sites() as f64 * f64::from(masks.bits),
    );
    Ok(masks)
}

/// Schedule, execute chunk by chunk, and persist the pruned exhaustive
/// plan, as the CLI's `run_chunked` does, with the ledger appends timed
/// apart from execution.
fn run_chunked<'k>(
    tr: &mut Trace,
    args: &Args,
    injector: &'k Injector<'k>,
    plan: Vec<FaultSpec>,
    bit_prune: BitPruneBinding,
) -> Result<ChunkedCampaign<'k>, String> {
    let plan = match injector.snapshot_store() {
        Some(store) => tr.span("inject.plan", "schedule_snapshot_major", || {
            schedule_snapshot_major(&plan, store)
        }),
        None => plan,
    };
    tr.count("inject.planned", plan.len() as f64);
    let mut cc = ChunkedCampaign::new(injector, plan, args.chunk);
    let mut ledger = match &args.checkpoint {
        Some(path) => {
            let binding = CampaignBinding {
                kernel: args.kernel.clone(),
                classifier: *injector.classifier(),
                n_sites: injector.n_sites(),
                bits: injector.bits(),
                plan: "exhaustive bit-prune".to_string(),
                bit_prune: Some(bit_prune),
                snapshot: injector.snapshot_store().map(|s| s.binding()),
                batch: injector.batch_binding(),
            };
            let header = LedgerHeader::new(binding);
            let writer = tr
                .span("inject.ledger", "LedgerWriter::create", || {
                    LedgerWriter::create(Path::new(path), &header)
                })
                .map_err(|e| err(path, e))?;
            Some(writer)
        }
        None => None,
    };
    while !cc.is_done() {
        let before = cc.experiments().len();
        tr.span("inject.execute", "Injector::run_batch", || cc.step())
            .map_err(|e| err("campaign", e))?;
        if let Some(writer) = &mut ledger {
            let chunk = &cc.experiments()[before..];
            tr.span("inject.ledger", "LedgerWriter::append_chunk", || {
                writer.append_chunk(chunk)
            })
            .map_err(|e| err("ledger", e))?;
        }
    }
    if let Some(writer) = &ledger {
        let bytes = std::fs::metadata(writer.path()).map_err(|e| err("ledger", e))?;
        tr.count("inject.ledger_mb", bytes.len() as f64 / MIB);
    }
    count_outcomes(tr, cc.experiments());
    Ok(cc)
}

fn count_outcomes(tr: &mut Trace, experiments: &[Experiment]) {
    let (mut masked, mut sdc, mut crash) = (0u64, 0u64, 0u64);
    for e in experiments {
        match e.outcome.code() {
            0 => masked += 1,
            1 => sdc += 1,
            _ => crash += 1,
        }
    }
    tr.count("inject.executed", experiments.len() as f64);
    tr.count("inject.masked", masked as f64);
    tr.count("inject.sdc", sdc as f64);
    tr.count("inject.crash", crash as f64);
}

fn exhaustive(tr: &mut Trace, args: &Args) -> Result<(), String> {
    if !args.bit_prune {
        return Err("the traced exhaustive flow expects --bit-prune".into());
    }
    let kernel = args.kernel.build();
    let injector = injector(tr, args, kernel.as_ref());
    let masks = bit_masks(tr, args, kernel.as_ref())?;
    let certified = masks.certified_masks();
    let plan = tr.span("inject.plan", "pruned_exhaustive_plan", || {
        pruned_exhaustive_plan(injector.n_sites(), injector.bits(), &certified)
    });
    let binding = BitPruneBinding {
        certified: masks.certified_total(),
        digest: masks.digest(),
    };
    let cc = run_chunked(tr, args, &injector, plan, binding)?;
    let table = tr.span("inject.fold", "into_exhaustive_with_certified", || {
        cc.into_exhaustive_with_certified(&certified)
    });
    write_answer(args, &table)
}

fn adaptive(tr: &mut Trace, args: &Args) -> Result<(), String> {
    let filter = match args.filter.as_str() {
        "off" => FilterMode::Off,
        "per-site" => FilterMode::PerSite,
        "global" => FilterMode::Global,
        other => return Err(format!("unknown filter mode '{other}'")),
    };
    if args.static_prior || args.checkpoint.is_some() {
        return Err(
            "the traced adaptive flow takes neither --static-prior nor --checkpoint".into(),
        );
    }
    let kernel = args.kernel.build();
    let injector = injector(tr, args, kernel.as_ref());
    let cfg = AdaptiveConfig {
        filter,
        seed: args.seed,
        ..AdaptiveConfig::default()
    };
    let masks = if args.bit_prune {
        Some(bit_masks(tr, args, kernel.as_ref())?)
    } else {
        None
    };
    let mut state = tr.span("core.adaptive", "AdaptiveState::new", || {
        AdaptiveState::new(&injector, &cfg)
    });
    let mut pruned = 0u64;
    if let Some(masks) = &masks {
        pruned = tr.span("core.adaptive", "AdaptiveState::apply_bit_masks", || {
            state.apply_bit_masks(masks)
        });
    }
    while tr
        .span("core.adaptive", "AdaptiveState::step", || {
            state.step(&injector)
        })
        .is_some()
    {}
    let result = tr.span("core.infer", "AdaptiveState::finish", || {
        state.finish(&injector)
    });
    let predictor = Predictor::new(injector.golden(), &result.inference.boundary);
    let sdc_ratio = tr.span("core.infer", "Predictor::overall_sdc_ratio", || {
        predictor.overall_sdc_ratio(Some(&result.samples))
    });
    let uncertainty = tr.span("core.infer", "BoundaryEval::uncertainty", || {
        BoundaryEval::uncertainty(&predictor, &result.samples).precision
    });
    std::hint::black_box((sdc_ratio, uncertainty));
    tr.count("core.rounds", result.rounds.len() as f64);
    tr.count("core.adaptive_executed", result.samples.len() as f64);
    tr.count("core.pruned_bits", pruned as f64);
    write_answer(args, &result)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match ftb_cli::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Trace::new();
    let done = match args.command.as_str() {
        "exhaustive" => exhaustive(&mut tr, &args),
        "adaptive" => adaptive(&mut tr, &args),
        other => Err(format!("no traced flow for '{other}'")),
    };
    match done {
        Ok(()) => println!("{}", tr.to_json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
