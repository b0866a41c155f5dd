//! Extraction-path selection for propagation extraction (Algorithm 1's
//! masked runs; outcome-only campaigns never extract).
//!
//! The paper's §5 identifies the cost of propagation extraction as the
//! limit on campaign scale: either `8 bytes × dynamic instructions` of
//! golden state per faulty trace (buffering), or a duplicated golden
//! computation per experiment. This workspace implements buffering and a
//! one-sided path that meets duplication's memory goal without running
//! the program a second time:
//!
//! * [`ExtractionMode::Buffered`] — the faulty run records its full value
//!   and branch streams ([`ftb_trace::RecordMode::Full`]); propagation is
//!   extracted afterwards by [`ftb_trace::propagation`]. Reference
//!   semantics; `O(dynamic instructions)` fresh heap per experiment.
//! * [`ExtractionMode::Streamed`] — the faulty run compares itself
//!   against the shared read-only [`ftb_trace::CompactGolden`] *while it
//!   executes* ([`ftb_trace::Tracer::comparing`]): no second execution,
//!   no per-experiment trace buffer — only a per-worker scratch of
//!   nonzero `(site, Δx)` pairs, reused across experiments. The default.
//!
//! Both produce bit-identical [`ftb_trace::Propagation`] folds, outcomes
//! and error magnitudes (proven by
//! `tests/tests/extraction_equivalence.rs`), so the mode is a pure
//! performance choice and is deliberately **not** part of the campaign
//! ledger binding: ledger campaigns never extract, so ledgers written
//! under different modes are byte-identical and freely resumable
//! across modes.

use std::fmt;

/// How propagation data is extracted from a faulty execution. See the
/// module docs for the trade-offs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtractionMode {
    /// Record the full faulty trace, compare afterwards (paper §2.2).
    Buffered,
    /// One-sided streaming comparison against the shared compact golden
    /// trace (the fast path, and the default).
    #[default]
    Streamed,
}

impl ExtractionMode {
    /// The CLI names, in display order.
    pub const NAMES: [&'static str; 2] = ["buffered", "streamed"];

    /// Parse a CLI name; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "buffered" => Some(ExtractionMode::Buffered),
            "streamed" => Some(ExtractionMode::Streamed),
            _ => None,
        }
    }

    /// The CLI name of this mode.
    pub fn name(&self) -> &'static str {
        match self {
            ExtractionMode::Buffered => "buffered",
            ExtractionMode::Streamed => "streamed",
        }
    }
}

impl fmt::Display for ExtractionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_streamed() {
        assert_eq!(ExtractionMode::default(), ExtractionMode::Streamed);
    }

    #[test]
    fn names_round_trip() {
        for name in ExtractionMode::NAMES {
            let mode = ExtractionMode::from_name(name).unwrap();
            assert_eq!(mode.name(), name);
            assert_eq!(mode.to_string(), name);
        }
    }

    #[test]
    fn unknown_rejected() {
        assert_eq!(ExtractionMode::from_name("fancy"), None);
        assert_eq!(ExtractionMode::from_name("lockstep"), None);
    }
}
