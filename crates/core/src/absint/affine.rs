//! Affine-form (zonotope) abstract interpretation over the provenance
//! DDG — the tight second pass on top of the interval domain.
//!
//! The interval forward pass and the backward threshold sweep both fold
//! *magnitudes*: every reconverging path contributes `amp·|Δ|` and the
//! contributions add (triangle inequality). That is sound but blind to
//! **cancellation** — `x − x` is as wide as `x + x`. This module keeps
//! each deviation as an affine form over shared noise symbols,
//!
//! ```text
//!   dev_u = Σ_s c_{u,s}·ε_s ± k_{u,s}·|ε_s|   (+ rem_u · [condensed])
//! ```
//!
//! with one symbol `ε_s` per injection site (threshold mode) or per
//! source site (value-envelope mode). The signed linear coefficient
//! `c` rides through the [`ftb_trace::OpKind::signed_derivative`]
//! channel; everything the secant table certifies beyond the linear
//! part — curvature slack `amp − |∂|`, unknown-sign edges, rounding of
//! the coefficient arithmetic itself — is folded into the unsigned
//! slack `k`, rounded outward at every step. Reconverging paths then
//! add **signed** `c`s: opposite-sign derivatives cancel in `c` and
//! only their rounding residue lands in `k`.
//!
//! Graceful degradation: an edge with no recorded derivative sign moves
//! its whole mass `|c| + k` into `k` (exactly the interval transfer),
//! and the value-envelope sweep condenses the oldest noise symbols into
//! an interval remainder `rem` whenever a node holds more than
//! [`AffineConfig::budget`] of them. With every edge sign-unknown the
//! domain *is* the interval domain; with the budget at one it degrades
//! the same way. The final artifacts are additionally clamped against
//! their interval counterparts (`max` on thresholds, `min` on radii),
//! so the affine results are never looser by construction.
//!
//! Cost: the [`super::slice`] prepass certifies empty-cone sites
//! outright and confines the sweep to the live subgraph; threshold mode
//! processes injection sites in chunks of at most `budget` (≤ 64)
//! shared symbols per sweep, so it never needs condensation. Each
//! symbol travels its site's whole forward cone, so the total work is
//! the sum of the swept sites' cone sizes — quadratic in the trace when
//! every live site is swept and cones run to the end. The chunks are
//! spread round-robin over the rayon workers; no result depends on the
//! worker count or the chunk width.
//!
//! The modelling caveat is inherited unchanged from the backward pass:
//! per-edge secant bounds compose over paths, and cross terms of one
//! perturbation reaching both operands of a product are outside the
//! certificate (see DESIGN.md). The conformance harness checks both
//! domains against exhaustive ground truth at zero violations.

use super::forward::{forward_pass, AbsIntError, ForwardConfig, ForwardIntervals};
use super::interval::Interval;
use super::slice::{influence_slice, InfluenceSlice};
use crate::staticbound::{backward_pass, StaticBoundError};
use ftb_trace::{Ddg, GoldenRun};
use rayon::prelude::*;

/// Tuning knobs of the affine domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineConfig {
    /// Noise-symbol budget per node. Threshold sweeps chunk the
    /// injection sites to `min(budget, 64)` shared symbols; the
    /// value-envelope sweep condenses the oldest symbols into the
    /// interval remainder beyond this many. Larger is tighter and
    /// proportionally more expensive.
    pub budget: usize,
}

impl Default for AffineConfig {
    fn default() -> Self {
        AffineConfig { budget: 32 }
    }
}

/// The affine-tightened static boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineBound {
    /// Per-site thresholds: pointwise `max` of the affine per-sink
    /// certificates and the backward-pass thresholds, with empty-cone
    /// sites certified at `f64::MAX`.
    pub thresholds: Vec<f64>,
    /// Sites with at least one path to a sink (from the backward pass).
    pub n_constrained: usize,
    /// Empty-cone sites certified `Masked` outright by the slice.
    pub n_dead: usize,
    /// Swept sites whose threshold is strictly larger than the
    /// backward pass's.
    pub n_tightened: usize,
    /// Sites the affine sweep actually processed (the target list
    /// restricted to the live slice).
    pub n_swept: usize,
    /// Value-flow edges in the graph.
    pub n_edges: usize,
}

impl AffineBound {
    /// Number of dynamic instructions covered.
    pub fn n_sites(&self) -> usize {
        self.thresholds.len()
    }

    /// Convert to a [`crate::boundary::Boundary`] (same clamping rules
    /// as the backward pass's conversion).
    pub fn boundary(&self) -> crate::boundary::Boundary {
        crate::boundary::Boundary::from_static(&self.thresholds)
    }
}

/// Round up by one ulp; NaN conservatively becomes `+∞`.
#[inline]
fn up(x: f64) -> f64 {
    if x.is_nan() {
        f64::INFINITY
    } else {
        x.next_up()
    }
}

/// Outward compensation for one round-to-nearest operation that
/// produced `x`: half an ulp, over-approximated (with a subnormal
/// floor so `x = 0` still gets a positive pad).
#[inline]
fn comp(x: f64) -> f64 {
    up(x.abs() * f64::EPSILON) + f64::MIN_POSITIVE
}

/// One affine pair: `(symbol, signed linear coefficient, unsigned
/// slack)`. The certified deviation mass of the pair is `|c| + k` per
/// unit of its symbol's magnitude.
type Pair = (u32, f64, f64);

/// Certified per-unit deviation mass of a pair.
#[inline]
fn mass(c: f64, k: f64) -> f64 {
    up(c.abs() + k)
}

/// Push a pair through one edge. The edge certifies
/// `|Δuse − ∂·Δdef| ≤ (amp − |∂|)·|Δdef|` when the signed derivative
/// `∂` is recorded (finite), and `|Δuse| ≤ amp·|Δdef|` always, both
/// for `|Δdef| ≤ cap` (enforced separately by the per-node cap
/// constraints).
#[inline]
fn transfer(amp: f64, dcoef: f64, c: f64, k: f64) -> (f64, f64) {
    let m = mass(c, k);
    if dcoef.is_finite() {
        let slack = {
            let s = amp - dcoef.abs();
            if s.is_nan() {
                f64::INFINITY
            } else {
                s.max(0.0)
            }
        };
        let c2 = dcoef * c;
        let k2 = up(up(up(dcoef.abs() * k) + up(slack * m)) + comp(c2));
        (c2, k2)
    } else {
        // sign unknown: the whole mass is slack — the interval transfer
        (0.0, up(amp * m))
    }
}

/// Signed-coefficient accumulation `c += dc` with its rounding residue
/// compensated into `k` (plus the incoming slack `dk`).
#[inline]
fn accumulate(c: &mut f64, k: &mut f64, dc: f64, dk: f64) {
    let s = *c + dc;
    *k = up(up(*k + dk) + comp(s));
    *c = s;
}

/// The per-edge signed derivative, `NaN` (sign unknown) for graphs
/// recorded before the channel existed.
#[inline]
fn dcoef_at(ddg: &Ddg, e: usize) -> f64 {
    ddg.dcoefs.get(e).copied().unwrap_or(f64::NAN)
}

/// Per-node tightest curvature cap.
fn min_caps(ddg: &Ddg) -> Vec<f64> {
    let mut cap = vec![f64::INFINITY; ddg.n_sites];
    for &(s, c) in &ddg.caps {
        let slot = &mut cap[s as usize];
        if c < *slot {
            *slot = c;
        }
    }
    cap
}

/// Out-degree per def — the refcount that lets a sweep free a node's
/// pair list after its last out-edge folds.
fn out_degrees(ddg: &Ddg) -> Vec<u32> {
    let mut deg = vec![0u32; ddg.n_sites];
    for &d in &ddg.defs {
        deg[d as usize] += 1;
    }
    deg
}

/// A conservatively rounded-down quotient `num / den` clamped to
/// `[0, ∞)`: one `next_down` absorbs the half-ulp of correctly rounded
/// division.
#[inline]
fn quot_down(num: f64, den: f64) -> f64 {
    (num / den).next_down().max(0.0)
}

/// "No pair list" marker of [`ThresholdSweep::slot`].
const NO_LIST: u32 = u32::MAX;

/// Read-only tables of the threshold sweep, built once per
/// [`affine_bound`] call and shared by every worker. Constraints are
/// kept as site-sorted lists that a sweep walks with forward cursors,
/// so a node costs no lookup and a site without constraints costs no
/// memory.
struct SweepTables {
    /// Per node, the last node that reads its pairs: the largest use
    /// among its out-edges, or the node itself when nothing uses it (its
    /// own constraint check is then the last read).
    last_read: Vec<u32>,
    /// `(site, tightest curvature cap)` for every site with a finite
    /// cap, sorted by site.
    caps: Vec<(u32, f64)>,
    /// `(site, amp, limit)` for every positive-amplification sink,
    /// sorted by site: `limit` is the tolerance for an output sink and
    /// the margin for a branch sink (`0` when the margin is not
    /// positive: such a branch certifies no perturbation at all).
    sinks: Vec<(u32, f64, f64)>,
}

impl SweepTables {
    fn new(ddg: &Ddg, tolerance: f64) -> Self {
        let mut last_read: Vec<u32> = (0..ddg.n_sites as u32).collect();
        for (&d, &u) in ddg.defs.iter().zip(&ddg.uses) {
            let slot = &mut last_read[d as usize];
            *slot = (*slot).max(u);
        }
        let caps = min_caps(ddg)
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c.is_finite())
            .map(|(s, c)| (s as u32, c))
            .collect();
        let outs = ddg
            .out_sinks
            .iter()
            .filter(|&&(_, amp)| amp > 0.0)
            .map(|&(d, amp)| (d, amp, tolerance));
        let branches = ddg
            .branch_sinks
            .iter()
            .filter(|&&(_, amp, _)| amp > 0.0)
            .map(|&(d, amp, margin)| (d, amp, if margin > 0.0 { margin } else { 0.0 }));
        let mut sinks: Vec<(u32, f64, f64)> = outs.chain(branches).collect();
        sinks.sort_by_key(|&(d, _, _)| d);
        SweepTables {
            last_read,
            caps,
            sinks,
        }
    }
}

/// One worker's mutable state of the chunked threshold sweep: a pair
/// list per live node, drawn from a pool whose lists keep their
/// capacity from chunk to chunk.
struct ThresholdSweep {
    /// Per node, the index of its pair list in `lists`, or [`NO_LIST`].
    slot: Vec<u32>,
    lists: Vec<Vec<Pair>>,
    /// Indices of `lists` not in use.
    free: Vec<u32>,
}

impl ThresholdSweep {
    fn new(n_sites: usize) -> Self {
        ThresholdSweep {
            slot: vec![NO_LIST; n_sites],
            lists: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Hand node `u` an empty pair list.
    fn open(&mut self, u: usize) -> usize {
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.lists.push(Vec::new());
                (self.lists.len() - 1) as u32
            }
        };
        self.slot[u] = i;
        i as usize
    }

    /// Drop node `u`'s pair list, if it has one; returns whether it did.
    fn close(&mut self, u: usize) -> bool {
        let i = self.slot[u];
        if i == NO_LIST {
            return false;
        }
        self.lists[i as usize].clear();
        self.free.push(i);
        self.slot[u] = NO_LIST;
        true
    }

    /// One forward sweep for `seeds.len() ≤ 64` ascending injection
    /// sites sharing the symbol space `0..seeds.len()`. Returns the
    /// per-seed raw threshold (before the safety division), `+∞` when
    /// nothing in the cone constrains the site.
    ///
    /// Nothing before the first seed can carry a pair, so the sweep
    /// starts at that seed's first in-edge; it stops once every seed
    /// has been placed and no pair list is left.
    fn run(
        &mut self,
        ddg: &Ddg,
        slice: &InfluenceSlice,
        tables: &SweepTables,
        seeds: &[usize],
    ) -> Vec<f64> {
        debug_assert!(!seeds.is_empty() && seeds.len() <= 64);
        debug_assert!(seeds.windows(2).all(|w| w[0] < w[1]));
        let n = ddg.n_sites;
        let ne = ddg.defs.len();
        let first = seeds[0];
        let last = seeds[seeds.len() - 1];
        let mut t = vec![f64::INFINITY; seeds.len()];
        let mut next_seed = 0usize;
        let mut n_open = 0usize;
        let mut e = ddg.uses.partition_point(|&u| (u as usize) < first);
        let mut ci = tables.caps.partition_point(|&(s, _)| (s as usize) < first);
        let mut si = tables
            .sinks
            .partition_point(|&(s, _, _)| (s as usize) < first);

        // per-node scratch, keyed by symbol (≤ 64 ⇒ a bitmask index)
        let mut acc_c = [0.0f64; 64];
        let mut acc_k = [0.0f64; 64];

        for u in first..n {
            let live = slice.reach[u];
            let mut seen: u64 = 0;
            let e_in = e;
            while e < ne && ddg.uses[e] as usize == u {
                let d = ddg.defs[e] as usize;
                let amp = ddg.amps[e];
                let sd = self.slot[d];
                if live && amp > 0.0 && sd != NO_LIST {
                    let dc = dcoef_at(ddg, e);
                    for &(sym, c, k) in &self.lists[sd as usize] {
                        let (c2, k2) = transfer(amp, dc, c, k);
                        let i = sym as usize;
                        if seen >> i & 1 == 1 {
                            accumulate(&mut acc_c[i], &mut acc_k[i], c2, k2);
                        } else {
                            seen |= 1 << i;
                            acc_c[i] = c2;
                            acc_k[i] = k2;
                        }
                    }
                }
                e += 1;
            }
            let is_seed = next_seed < seeds.len() && seeds[next_seed] == u;
            if seen != 0 || is_seed {
                let li = self.open(u);
                n_open += 1;
                let pu = &mut self.lists[li];
                if is_seed {
                    pu.push((next_seed as u32, 1.0, 0.0));
                    next_seed += 1;
                }
                let mut bits = seen;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    pu.push((i as u32, acc_c[i], acc_k[i]));
                    bits &= bits - 1;
                }

                // constraints at u: curvature cap, then each sink reached
                while ci < tables.caps.len() && (tables.caps[ci].0 as usize) < u {
                    ci += 1;
                }
                while si < tables.sinks.len() && (tables.sinks[si].0 as usize) < u {
                    si += 1;
                }
                let cu = match tables.caps.get(ci) {
                    Some(&(s, c)) if s as usize == u => c,
                    _ => f64::INFINITY,
                };
                let s_end = si + tables.sinks[si..].partition_point(|&(s, _, _)| s as usize == u);
                let sinks = &tables.sinks[si..s_end];
                if cu.is_finite() || !sinks.is_empty() {
                    for &(sym, c, k) in pu.iter() {
                        let m = mass(c, k);
                        let tj = &mut t[sym as usize];
                        if cu.is_finite() {
                            *tj = tj.min(quot_down(cu, m));
                        }
                        for &(_, amp, limit) in sinks {
                            *tj = tj.min(quot_down(limit, up(amp * m)));
                        }
                    }
                }
            }

            // drop every list whose last reader was u
            for k in e_in..e {
                let d = ddg.defs[k] as usize;
                if tables.last_read[d] as usize == u && self.close(d) {
                    n_open -= 1;
                }
            }
            if tables.last_read[u] as usize == u && self.close(u) {
                n_open -= 1;
            }
            if u >= last && n_open == 0 {
                break;
            }
        }

        // every list is closed by its last reader, and the sweep stops
        // early only with none open
        debug_assert_eq!(n_open, 0);
        t
    }
}

/// Seed sites per threshold sweep: the noise-symbol budget, capped at
/// the 64 symbols a sweep's bitmask scratch holds.
fn chunk_width(cfg: &AffineConfig) -> usize {
    cfg.budget.clamp(1, 64)
}

/// Workers [`affine_bound`] runs `n_swept` target sites on: the rayon
/// worker count, capped by the number of seed chunks.
pub fn affine_workers(n_swept: usize, cfg: &AffineConfig) -> usize {
    let chunks = n_swept.div_ceil(chunk_width(cfg));
    rayon::current_num_threads().clamp(1, chunks.max(1))
}

/// The affine-tightened static boundary: backward-pass thresholds,
/// lifted per target site by the chunked affine threshold sweep and to
/// `f64::MAX` on empty-cone sites.
///
/// `targets` restricts the (per-site-cost) affine sweep to the given
/// injection sites — the shape campaign stride plans want; `None`
/// sweeps every live site. Untargeted sites keep their backward-pass
/// thresholds, so the result is sound and complete either way.
///
/// # Errors
/// Same contract as [`crate::static_bound`]: refuses uninstrumented
/// graphs and non-positive tolerances.
pub fn affine_bound(
    ddg: &Ddg,
    tolerance: f64,
    safety: f64,
    cfg: &AffineConfig,
    targets: Option<&[usize]>,
) -> Result<AffineBound, StaticBoundError> {
    if !(tolerance > 0.0 && tolerance.is_finite()) {
        return Err(StaticBoundError::BadTolerance(tolerance));
    }
    if !ddg.is_instrumented() {
        return Err(StaticBoundError::NotInstrumented);
    }
    let safety = safety.max(1.0);
    let n = ddg.n_sites;
    let bw = backward_pass(ddg, tolerance, safety);
    let slice = influence_slice(ddg);

    let mut thresholds = bw.thresholds;
    for (i, t) in thresholds.iter_mut().enumerate() {
        if !slice.reach[i] {
            *t = f64::MAX;
        }
    }

    // ascending and duplicate-free: a chunk's sweep starts at its first
    // seed, and a repeated site would take a second symbol slot
    let target_list: Vec<usize> = match targets {
        Some(list) => {
            let mut list: Vec<usize> = list
                .iter()
                .copied()
                .filter(|&s| s < n && slice.reach[s])
                .collect();
            list.sort_unstable();
            list.dedup();
            list
        }
        None => (0..n).filter(|&s| slice.reach[s]).collect(),
    };

    let chunks: Vec<&[usize]> = target_list.chunks(chunk_width(cfg)).collect();
    let mut n_tightened = 0usize;
    if !chunks.is_empty() {
        // A chunk's cost is the trace suffix after its first seed, so it
        // falls with the chunk index: worker `w` takes chunks `w, w+W, …`
        // rather than one contiguous block. No result depends on the
        // schedule — a symbol's arithmetic reads only its own pairs.
        let tables = SweepTables::new(ddg, tolerance);
        let workers = affine_workers(target_list.len(), cfg);
        let per_worker: Vec<Vec<Vec<f64>>> = (0..workers)
            .into_par_iter()
            .map(|w| {
                let mut sweep = ThresholdSweep::new(n);
                chunks
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .map(|seeds| sweep.run(ddg, &slice, &tables, seeds))
                    .collect()
            })
            .collect();
        for (i, seeds) in chunks.iter().enumerate() {
            let raw = &per_worker[i % workers][i / workers];
            for (&s, &r) in seeds.iter().zip(raw) {
                let ta = if r.is_finite() {
                    (r / safety).next_down().max(0.0)
                } else {
                    f64::MAX
                };
                if ta > thresholds[s] {
                    thresholds[s] = ta;
                    n_tightened += 1;
                }
            }
        }
    }

    Ok(AffineBound {
        thresholds,
        n_constrained: bw.n_constrained,
        n_dead: slice.n_dead,
        n_tightened,
        n_swept: target_list.len(),
        n_edges: ddg.n_edges(),
    })
}

/// The value-envelope affine sweep: one noise symbol per source site,
/// coefficients pre-scaled by the source radius `widen·|golden|`,
/// oldest-symbol condensation into the remainder beyond the budget.
/// Returns per-site deviation radii (`+∞` past a curvature cap).
fn value_sweep(ddg: &Ddg, golden: &GoldenRun, widen: f64, budget: usize) -> Vec<f64> {
    let n = ddg.n_sites;
    let ne = ddg.defs.len();
    let cap = min_caps(ddg);
    let mut outdeg = out_degrees(ddg);
    let mut has_inedge = vec![false; n];
    for &u in &ddg.uses {
        has_inedge[u as usize] = true;
    }

    let mut pairs: Vec<Vec<Pair>> = vec![Vec::new(); n];
    let mut rem = vec![0.0f64; n];
    let mut radius = vec![0.0f64; n];
    let mut next_sym = 0u32;
    let mut scratch: Vec<Pair> = Vec::new();

    let mut e = 0usize;
    for u in 0..n {
        scratch.clear();
        let mut r_in = 0.0f64;
        while e < ne && ddg.uses[e] as usize == u {
            let d = ddg.defs[e] as usize;
            let amp = ddg.amps[e];
            if amp > 0.0 && radius[d] > 0.0 {
                if radius[d] > cap[d] {
                    // outside the def's secant certificate: unbounded
                    r_in = f64::INFINITY;
                } else {
                    let dc = dcoef_at(ddg, e);
                    for &(sym, c, k) in &pairs[d] {
                        let (c2, k2) = transfer(amp, dc, c, k);
                        scratch.push((sym, c2, k2));
                    }
                    if rem[d] > 0.0 {
                        r_in = up(r_in + up(amp * rem[d]));
                    }
                }
            }
            outdeg[d] -= 1;
            if outdeg[d] == 0 {
                pairs[d] = Vec::new();
            }
            e += 1;
        }
        if !has_inedge[u] {
            // seed: coefficient pre-scaled by the source radius, so the
            // symbol ranges over [-1, 1]
            let r0 = up(widen * golden.value(u).abs());
            if r0 > 0.0 {
                scratch.push((next_sym, r0, 0.0));
                next_sym += 1;
            }
        }
        if scratch.is_empty() && r_in == 0.0 {
            continue;
        }
        // merge contributions sharing a symbol: signed coefficients add
        scratch.sort_unstable_by_key(|&(sym, _, _)| sym);
        let pu = &mut pairs[u];
        for &(sym, c, k) in scratch.iter() {
            match pu.last_mut() {
                Some(last) if last.0 == sym => accumulate(&mut last.1, &mut last.2, c, k),
                _ => pu.push((sym, c, k)),
            }
        }
        // condense the oldest symbols beyond the budget (keep-newest is
        // what makes a larger budget monotonically tighter)
        let mut r_u = r_in;
        if pu.len() > budget.max(1) {
            let drop = pu.len() - budget.max(1);
            for &(_, c, k) in pu.iter().take(drop) {
                r_u = up(r_u + mass(c, k));
            }
            pu.drain(..drop);
        }
        rem[u] = r_u;
        let mut total = r_u;
        for &(_, c, k) in pu.iter() {
            total = up(total + mass(c, k));
        }
        radius[u] = total;
    }
    radius
}

/// The affine value-envelope pass: interval forward pass, tightened
/// per site by the condensing affine sweep (pointwise `min` of radii,
/// so never looser than [`forward_pass`]).
///
/// # Errors
/// Same contract as [`forward_pass`].
pub fn affine_forward(
    ddg: &Ddg,
    golden: &GoldenRun,
    cfg: &ForwardConfig,
    acfg: &AffineConfig,
) -> Result<ForwardIntervals, AbsIntError> {
    let base = forward_pass(ddg, golden, cfg)?;
    if cfg.widen == 0.0 {
        // every radius is already zero: the domains coincide
        return Ok(base);
    }
    let affine = value_sweep(ddg, golden, cfg.widen, acfg.budget);
    let mut n_unbounded = 0usize;
    let mut radii = base.radii;
    let mut intervals = base.intervals;
    for i in 0..radii.len() {
        if affine[i] < radii[i] {
            radii[i] = affine[i];
            intervals[i] = Interval::centered(golden.value(i), affine[i]);
        }
        if !radii[i].is_finite() {
            n_unbounded += 1;
        }
    }
    Ok(ForwardIntervals {
        precision: base.precision,
        intervals,
        radii,
        n_sources: base.n_sources,
        n_unbounded,
    })
}

/// Affine inlet / per-site amplification bounds for one trace section
/// `[lo, hi)` — the compose sweep's tightened `static_amp` inputs.
///
/// Runs a *backward* chunked-symbol sweep from the section's frontier
/// slots: each frontier site is one shared noise symbol, and the signed
/// derivative channel accumulates reconverging paths with their signs,
/// so opposing paths cancel instead of adding. Every result is clamped
/// by the plain interval path-product bound computed in the same call,
/// so the affine bounds are never looser than the interval ones.
///
/// Returns `(site_amp, inlet_amp)`:
/// - `site_amp[li]` bounds `|Δfrontier| / |Δinjected|` for an error
///   injected at section site `lo + li` (a frontier slot itself is at
///   least `1`, its direct perturbation);
/// - `inlet_amp` bounds the same ratio for an error arriving at any
///   def *before* `lo` that the section reads — the affine analogue of
///   the compose module's interval path-product fold.
///
/// # Panics
/// Panics if `is_frontier.len() != hi - lo`.
pub fn affine_section_amp(
    ddg: &Ddg,
    lo: usize,
    hi: usize,
    is_frontier: &[bool],
) -> (Vec<f64>, f64) {
    assert_eq!(is_frontier.len(), hi - lo, "frontier flag length mismatch");
    // Edge window touching the section: uses are non-decreasing, so the
    // in-section uses form one contiguous index range.
    let e_lo = ddg.uses.partition_point(|&u| (u as usize) < lo);
    let e_hi = ddg.uses.partition_point(|&u| (u as usize) < hi);

    // Interval reference: one reverse max-path-product pass. Defs
    // strictly precede uses, so reverse edge order finalizes every
    // node's bound before it flows into its defs.
    let mut iamp = vec![0.0f64; hi];
    for (li, &f) in is_frontier.iter().enumerate() {
        if f {
            iamp[lo + li] = 1.0;
        }
    }
    for e in (e_lo..e_hi).rev() {
        let d = ddg.defs[e] as usize;
        let v = ddg.amps[e] * iamp[ddg.uses[e] as usize];
        if v > iamp[d] {
            iamp[d] = v;
        }
    }

    // Affine sweep: symbols are frontier slots, chunked to 64; signed
    // coefficients to the *same* slot cancel across reconverging paths.
    let slots: Vec<usize> = is_frontier
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .map(|(li, _)| lo + li)
        .collect();
    let mut best = vec![0.0f64; hi];
    for chunk in slots.chunks(64) {
        let mut pairs: Vec<Vec<Pair>> = vec![Vec::new(); hi];
        for (j, &s) in chunk.iter().enumerate() {
            pairs[s].push((j as u32, 1.0, 0.0));
        }
        for e in (e_lo..e_hi).rev() {
            let d = ddg.defs[e] as usize;
            let u = ddg.uses[e] as usize;
            if pairs[u].is_empty() {
                continue;
            }
            let amp = ddg.amps[e];
            let dc = dcoef_at(ddg, e);
            let (head, tail) = pairs.split_at_mut(u);
            let dst = &mut head[d];
            for &(s, c, k) in &tail[0] {
                let (c2, k2) = transfer(amp, dc, c, k);
                match dst.iter_mut().find(|p| p.0 == s) {
                    Some(p) => accumulate(&mut p.1, &mut p.2, c2, k2),
                    None => dst.push((s, c2, k2)),
                }
            }
        }
        for (u, list) in pairs.iter().enumerate() {
            for &(_, c, k) in list {
                let m = mass(c, k);
                if m > best[u] {
                    best[u] = m;
                }
            }
        }
    }

    let site_amp: Vec<f64> = (lo..hi).map(|u| best[u].min(iamp[u])).collect();
    let inlet_amp = (0..lo).map(|d| best[d].min(iamp[d])).fold(0.0f64, f64::max);
    (site_amp, inlet_amp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staticbound::backward_pass;
    use ftb_trace::{OpKind, Precision, StaticId, Tracer};

    const SID: StaticId = StaticId(0);
    const CFG: AffineConfig = AffineConfig { budget: 32 };

    /// `s0 → s1 = s0` and `s0 → s2 = −s0`, reconverging at
    /// `s3 = s1 + s2 ≡ 0`, which is the output.
    fn cancelling_diamond() -> (GoldenRun, Ddg) {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 2.0); // s0
        t.dep(0, OpKind::Add);
        t.value(SID, 2.0); // s1 = +s0
        t.dep(0, OpKind::Sub);
        t.value(SID, -2.0); // s2 = −s0
        t.dep(1, OpKind::Add);
        t.dep(2, OpKind::Add);
        t.value(SID, 0.0); // s3 = s1 + s2
        t.out_dep(3, 1.0);
        t.finish_golden_with_ddg(vec![0.0])
    }

    #[test]
    fn cancellation_tightens_the_reconverged_site() {
        let (_, ddg) = cancelling_diamond();
        let tol = 1e-3;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        // backward: two unit paths add ⇒ Δe(s0) = tol/2. Affine: the
        // signed coefficients cancel to ~0 mass at the sink, leaving
        // only rounding compensation ⇒ a vastly larger threshold.
        assert!((bw.thresholds[0] - tol / 2.0).abs() < 1e-18);
        assert!(
            af.thresholds[0] > 1e3 * bw.thresholds[0],
            "affine {} vs backward {}",
            af.thresholds[0],
            bw.thresholds[0]
        );
        assert_eq!(af.n_tightened, 1, "only s0 reconverges");
        assert_eq!(af.n_dead, 0);
    }

    #[test]
    fn never_looser_than_backward_and_max_on_dead_sites() {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0); // s0: dead
        t.value(SID, 3.0); // s1
        t.dep(1, OpKind::Square(3.0));
        t.value(SID, 9.0); // s2
        t.out_dep(2, 1.0);
        let (_, ddg) = t.finish_golden_with_ddg(vec![9.0]);
        let tol = 0.1;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        for (a, b) in af.thresholds.iter().zip(&bw.thresholds) {
            assert!(a >= b, "affine {a} looser than backward {b}");
        }
        assert_eq!(af.thresholds[0], f64::MAX, "dead site certified outright");
        assert_eq!(af.n_dead, 1);
    }

    #[test]
    fn per_sink_min_beats_backward_sum_on_multi_sink_sites() {
        // s0 feeds two distinct output elements through unit copies:
        // backward adds the reciprocals (T = tol/2), affine takes the
        // min over sinks (T = tol)
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0); // s0
        t.dep(0, OpKind::Add);
        t.value(SID, 1.0); // s1
        t.out_dep(1, 1.0);
        t.dep(0, OpKind::Add);
        t.value(SID, 1.0); // s2
        t.out_dep(2, 1.0);
        let (_, ddg) = t.finish_golden_with_ddg(vec![1.0, 1.0]);
        let tol = 1e-2;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        assert!((bw.thresholds[0] - tol / 2.0).abs() < 1e-17);
        assert!(af.thresholds[0] > 1.9 * bw.thresholds[0]);
        assert!(af.thresholds[0] <= tol, "still below the per-sink budget");
    }

    #[test]
    fn safety_and_targets_behave_like_backward() {
        let (_, ddg) = cancelling_diamond();
        let a1 = affine_bound(&ddg, 1e-3, 1.0, &CFG, None).unwrap();
        let a2 = affine_bound(&ddg, 1e-3, 2.0, &CFG, None).unwrap();
        for (x, y) in a1.thresholds.iter().zip(&a2.thresholds) {
            assert!(y <= x, "safety must not loosen: {y} > {x}");
        }
        // restricting the sweep leaves untargeted sites at backward
        let only_s1 = affine_bound(&ddg, 1e-3, 1.0, &CFG, Some(&[1])).unwrap();
        let bw = backward_pass(&ddg, 1e-3, 1.0);
        assert_eq!(only_s1.thresholds[0], bw.thresholds[0]);
        assert_eq!(only_s1.n_swept, 1);
    }

    #[test]
    fn duplicate_targets_are_swept_once() {
        // a unit-copy chain s0 → … → s6, with s6 the output
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0);
        for s in 0..6 {
            t.dep(s, OpKind::Add);
            t.value(SID, 1.0);
        }
        t.out_dep(6, 1.0);
        let (_, ddg) = t.finish_golden_with_ddg(vec![1.0]);
        let dup = affine_bound(&ddg, 1e-3, 1.0, &CFG, Some(&[5, 1, 5])).unwrap();
        let once = affine_bound(&ddg, 1e-3, 1.0, &CFG, Some(&[1, 5])).unwrap();
        assert_eq!(dup, once);
        assert_eq!(dup.n_swept, 2);
    }

    #[test]
    fn refusals_match_static_bound() {
        let (_, ddg) = cancelling_diamond();
        assert!(matches!(
            affine_bound(&ddg, -1.0, 1.0, &CFG, None),
            Err(StaticBoundError::BadTolerance(_))
        ));
        let bare = Ddg {
            n_sites: 3,
            ..Ddg::default()
        };
        assert!(matches!(
            affine_bound(&bare, 1e-3, 1.0, &CFG, None),
            Err(StaticBoundError::NotInstrumented)
        ));
    }

    #[test]
    fn value_envelope_cancellation_beats_interval() {
        // x0 source; x1 = x0 (copy); x2 = x0 − x1 ≡ 0: the interval
        // radii add (2·r0) while the affine form cancels
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 4.0); // x0 source
        t.dep(0, OpKind::Add);
        t.value(SID, 4.0); // x1
        t.dep(0, OpKind::Add);
        t.dep(1, OpKind::Sub);
        t.value(SID, 0.0); // x2
        t.out_dep(2, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![0.0]);
        let fcfg = ForwardConfig { widen: 1e-3 };
        let iv = forward_pass(&ddg, &golden, &fcfg).unwrap();
        let af = affine_forward(&ddg, &golden, &fcfg, &CFG).unwrap();
        assert!(af.contains_golden(&golden));
        let r0 = 1e-3 * 4.0;
        assert!(iv.radii[2] >= 2.0 * r0, "interval adds the paths");
        assert!(
            af.radii[2] < 1e-6 * r0,
            "affine cancels: {} vs interval {}",
            af.radii[2],
            iv.radii[2]
        );
        // and never looser anywhere
        for (a, b) in af.radii.iter().zip(&iv.radii) {
            assert!(a <= b);
        }
    }

    #[test]
    fn condensation_is_monotone_in_budget() {
        // many sources reconverging: sum of 8 inputs, alternating signs
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        for i in 0..8 {
            t.value(SID, 1.0 + i as f64);
        }
        for i in 0..8u32 {
            t.dep(
                i as usize,
                if i % 2 == 0 { OpKind::Add } else { OpKind::Sub },
            );
        }
        t.value(SID, -4.0);
        t.out_dep(8, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![-4.0]);
        let fcfg = ForwardConfig { widen: 1e-4 };
        let radii: Vec<f64> = [1, 2, 4, 8, 32]
            .iter()
            .map(|&b| {
                let af = affine_forward(&ddg, &golden, &fcfg, &AffineConfig { budget: b }).unwrap();
                assert!(af.contains_golden(&golden), "budget {b}");
                af.radii[8]
            })
            .collect();
        for w in radii.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-12),
                "larger budget must not widen: {radii:?}"
            );
        }
        // at budget 1 everything condenses: the result matches the
        // interval sum; at 32 the signed view is active (tighter or
        // equal — here strictly, since the slacks alone are tiny)
        assert!(radii[4] <= radii[0]);
    }

    #[test]
    fn value_envelope_cap_escape_stays_unbounded() {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 0.5);
        t.dep(0, OpKind::Square(0.5));
        t.value(SID, 0.25);
        t.out_dep(1, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![0.25]);
        let af = affine_forward(&ddg, &golden, &ForwardConfig { widen: 3.0 }, &CFG).unwrap();
        assert!(af.radii[1].is_infinite());
        assert_eq!(af.n_unbounded, 1);
        assert!(af.contains_golden(&golden));
    }

    #[test]
    fn unknown_sign_edges_degrade_to_the_interval_transfer() {
        // Linear has no recorded derivative sign: the affine radii must
        // equal the interval radii exactly on a Linear-only graph
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0);
        t.dep(0, OpKind::Linear);
        t.value(SID, 1.0);
        t.dep(0, OpKind::Linear);
        t.dep(1, OpKind::Linear);
        t.value(SID, 2.0);
        t.out_dep(2, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![2.0]);
        let fcfg = ForwardConfig { widen: 1e-3 };
        let iv = forward_pass(&ddg, &golden, &fcfg).unwrap();
        let af = affine_forward(&ddg, &golden, &fcfg, &CFG).unwrap();
        for (i, (a, b)) in af.radii.iter().zip(&iv.radii).enumerate() {
            assert!(a <= b, "site {i}");
            // within a few ulps: same mass, slightly different rounding
            assert!(*a >= b * (1.0 - 1e-12), "site {i}: {a} vs {b}");
        }
    }

    #[test]
    fn section_amp_cancels_reconverging_paths() {
        let (_, ddg) = cancelling_diamond();
        // whole trace as one section, s3 the only frontier slot
        let flags = [false, false, false, true];
        let (site, _) = affine_section_amp(&ddg, 0, 4, &flags);
        // s0's ±1 paths reconverge at s3 and cancel to rounding noise
        assert!(site[0] < 1e-6, "cancellation lost: {}", site[0]);
        // a frontier slot absorbs its own perturbation 1:1
        assert!((site[3] - 1.0).abs() < 1e-12);
        // the intermediates each carry one unit path
        assert!((site[1] - 1.0).abs() < 1e-9, "{}", site[1]);
        assert!((site[2] - 1.0).abs() < 1e-9, "{}", site[2]);
    }

    #[test]
    fn section_amp_inlet_bound_sees_the_cancellation() {
        let (_, ddg) = cancelling_diamond();
        // section [1,4): s0 is the inlet def feeding both branches
        let flags = [false, false, true];
        let (_, inlet) = affine_section_amp(&ddg, 1, 4, &flags);
        assert!(inlet < 1e-6, "inlet cancellation lost: {inlet}");
    }

    #[test]
    fn section_amp_never_exceeds_the_interval_path_bound() {
        // 0 -(x2)-> 1 -(x3)-> 2, section [1,3), frontier {1, 2}: the
        // max path product through the section is 2·3 = 6 for the inlet
        // and 3 for site 1.
        let ddg = Ddg {
            n_sites: 3,
            defs: vec![0, 1],
            uses: vec![1, 2],
            amps: vec![2.0, 3.0],
            dcoefs: vec![2.0, 3.0],
            out_sinks: vec![(2, 1.0)],
            ..Ddg::default()
        };
        let (site, inlet) = affine_section_amp(&ddg, 1, 3, &[true, true]);
        assert!(site[0] <= 3.0 * (1.0 + 1e-12), "{}", site[0]);
        assert!((site[1] - 1.0).abs() < 1e-12);
        assert!(inlet <= 6.0 * (1.0 + 1e-12), "{inlet}");
        assert!(inlet >= 6.0 * (1.0 - 1e-9), "{inlet}");
    }
}
