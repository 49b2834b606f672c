//! Diagnostics shared by both analyzer passes.

use std::fmt;

/// What kind of contract violation a [`Diagnostic`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// A kernel read a cell no declared offset of the stage resolves to.
    UndeclaredRead,
    /// A declared offset the kernel never reads (witnessed at a cell
    /// where boundary resolution is injective, so the miss is real).
    OverdeclaredOffset,
    /// A kernel wrote an array that is not an output of its stage.
    UndeclaredWrite,
    /// A kernel wrote an output cell outside the requested region.
    OutOfRegionWrite,
    /// A kernel failed to write a cell of the requested region.
    MissingWrite,
    /// Two ranks of one team touch overlapping regions of a field within
    /// one barrier-fenced epoch, at least one of them writing.
    IntraTeamOverlap,
    /// Two teams touch overlapping regions of a shared field within one
    /// time step (one epoch of a stage-synchronous schedule), at least
    /// one of them writing.
    CrossTeamOverlap,
    /// A schedule writes an external (read-only) field.
    ExternalWrite,
    /// A team reads an island-private cell no earlier epoch of the same
    /// team has written (a shared intermediate no earlier epoch of any
    /// team has written, in a stage-synchronous schedule).
    UncoveredRead,
    /// A domain cell of a shared output field no team ever writes: with
    /// reused (persistent-plan) output buffers it would leak the
    /// previous step's value.
    UncoveredOutput,
    /// An access to a windowed scratch buffer reaches at least a
    /// window's depth below the buffer's write frontier: the plane it
    /// wants has been overwritten by the plane one window above it.
    WindowAlias,
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticCode::UndeclaredRead => "undeclared-read",
            DiagnosticCode::OverdeclaredOffset => "overdeclared-offset",
            DiagnosticCode::UndeclaredWrite => "undeclared-write",
            DiagnosticCode::OutOfRegionWrite => "out-of-region-write",
            DiagnosticCode::MissingWrite => "missing-write",
            DiagnosticCode::IntraTeamOverlap => "intra-team-overlap",
            DiagnosticCode::CrossTeamOverlap => "cross-team-overlap",
            DiagnosticCode::ExternalWrite => "external-write",
            DiagnosticCode::UncoveredRead => "uncovered-read",
            DiagnosticCode::UncoveredOutput => "uncovered-output",
            DiagnosticCode::WindowAlias => "window-alias",
        };
        f.write_str(s)
    }
}

/// One analyzer finding, self-contained enough to print and act on.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// Violation kind.
    pub code: DiagnosticCode,
    /// Where it happened: stage name for conformance findings, a
    /// team/epoch label for disjointness findings.
    pub site: String,
    /// The field involved, by name.
    pub field: String,
    /// Specifics: offsets, cells or regions, human-readable.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} / field `{}`: {}",
            self.code, self.site, self.field, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_complete() {
        let d = Diagnostic {
            code: DiagnosticCode::UndeclaredRead,
            site: "flux-i".into(),
            field: "x".into(),
            detail: "offset (-2, 0, 0)".into(),
        };
        let s = d.to_string();
        assert!(s.contains("undeclared-read"));
        assert!(s.contains("flux-i"));
        assert!(s.contains("`x`"));
        assert!(s.contains("(-2, 0, 0)"));
    }
}
