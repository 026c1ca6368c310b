//! Error type for workflow construction, planning, and parsing.

use std::fmt;

/// A source position inside a parsed input file.
///
/// Lines and columns are one-based; `0` means "unknown".  The DAX
/// parser produces full line/col spans, line-oriented formats (fault
/// plans, event logs) produce line-only spans, and programmatically
/// built values carry [`Span::none`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// One-based line number (0 when unknown).
    pub line: usize,
    /// One-based column number (0 when unknown).
    pub col: usize,
}

impl Span {
    /// A span with both line and column.
    pub fn new(line: usize, col: usize) -> Self {
        Span { line, col }
    }

    /// A line-only span (column unknown).
    pub fn line(line: usize) -> Self {
        Span { line, col: 0 }
    }

    /// The unknown span, used for values not read from a file.
    pub fn none() -> Self {
        Span { line: 0, col: 0 }
    }

    /// True when the span carries no position at all.
    pub fn is_none(&self) -> bool {
        self.line == 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(f, "line {}, col {}", self.line, self.col)
        } else {
            write!(f, "line {}", self.line)
        }
    }
}

/// Errors raised across the WMS stack.
#[derive(Debug, Clone, PartialEq)]
pub enum WmsError {
    /// A job id was declared twice.
    DuplicateJob(String),
    /// An explicit dependency references an unknown job.
    UnknownJob(String),
    /// The dependency graph contains a cycle through this job.
    CycleDetected(String),
    /// Two different jobs declare the same output file.
    ConflictingProducer {
        /// The logical file with two producers.
        file: String,
        /// The first producer.
        first: String,
        /// The conflicting second producer.
        second: String,
    },
    /// A site name (or alias) did not resolve against the site
    /// catalog or registry.
    UnknownSite {
        /// The name that failed to resolve.
        site: String,
        /// Primary names of the sites that *are* registered, sorted;
        /// empty when the resolver had no listing to offer.
        known: Vec<String>,
    },
    /// The planner could not resolve a transformation at the target
    /// site or as a stageable/installable executable.
    UnresolvableTransformation {
        /// The transformation name.
        transformation: String,
        /// The target site.
        site: String,
    },
    /// DAX parsing failed.
    DaxParse {
        /// Position of the offending construct.
        span: Span,
        /// Description of the problem.
        reason: String,
    },
    /// A rescue file was malformed.
    RescueParse(String),
    /// A site-definition file was malformed.
    SiteDefParse {
        /// One-based line number (0 when unknown).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A fault-plan file was malformed.
    FaultPlanParse {
        /// One-based line number (0 when unknown).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// An event-log file was malformed.
    EventLogParse {
        /// One-based line number (0 when unknown).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A `pegasus serve` protocol or journal line was malformed.
    ProtocolParse {
        /// One-based line number (0 when unknown, e.g. single-line
        /// socket requests).
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A tenant hit its admission quota.
    QuotaExceeded {
        /// The tenant that was refused.
        tenant: String,
        /// The quota that was hit.
        limit: usize,
    },
    /// An internal runtime invariant was violated.  These were
    /// previously `debug_assert!`s that vanished in release builds;
    /// they now surface as typed errors so callers (and the event-stream
    /// check) can detect corrupted state instead of continuing on
    /// garbage.
    InvariantViolation {
        /// The invariant that was expected to hold.
        invariant: String,
        /// What was observed instead.
        detail: String,
    },
}

impl fmt::Display for WmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmsError::DuplicateJob(id) => write!(f, "duplicate job id {id:?}"),
            WmsError::UnknownJob(id) => write!(f, "dependency references unknown job {id:?}"),
            WmsError::CycleDetected(id) => {
                write!(f, "workflow is not a DAG: cycle through job {id:?}")
            }
            WmsError::ConflictingProducer {
                file,
                first,
                second,
            } => write!(
                f,
                "logical file {file:?} produced by both {first:?} and {second:?}"
            ),
            WmsError::UnknownSite { site, known } => {
                write!(f, "site {site:?} not in site catalog")?;
                if !known.is_empty() {
                    write!(f, " (known sites: {})", known.join(", "))?;
                }
                Ok(())
            }
            WmsError::UnresolvableTransformation {
                transformation,
                site,
            } => write!(
                f,
                "transformation {transformation:?} unavailable at site {site:?} and not installable"
            ),
            WmsError::DaxParse { span, reason } => {
                if span.is_none() {
                    write!(f, "DAX parse error: {reason}")
                } else {
                    write!(f, "DAX parse error at {span}: {reason}")
                }
            }
            WmsError::RescueParse(reason) => write!(f, "rescue DAG parse error: {reason}"),
            WmsError::SiteDefParse { line, reason } => {
                write!(f, "site definition parse error at line {line}: {reason}")
            }
            WmsError::FaultPlanParse { line, reason } => {
                write!(f, "fault plan parse error at line {line}: {reason}")
            }
            WmsError::EventLogParse { line, reason } => {
                write!(f, "event log parse error at line {line}: {reason}")
            }
            WmsError::ProtocolParse { line, reason } => {
                if *line == 0 {
                    write!(f, "protocol parse error: {reason}")
                } else {
                    write!(f, "protocol parse error at line {line}: {reason}")
                }
            }
            WmsError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant:?} exceeded its quota of {limit}")
            }
            WmsError::InvariantViolation { invariant, detail } => {
                write!(f, "internal invariant violated ({invariant}): {detail}")
            }
        }
    }
}

impl std::error::Error for WmsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        assert!(WmsError::DuplicateJob("split".into())
            .to_string()
            .contains("split"));
        let e = WmsError::UnknownSite {
            site: "mars".into(),
            known: vec![],
        };
        assert_eq!(e.to_string(), "site \"mars\" not in site catalog");
        let e = WmsError::UnknownSite {
            site: "mars".into(),
            known: vec!["osg".into(), "sandhills".into()],
        };
        assert_eq!(
            e.to_string(),
            "site \"mars\" not in site catalog (known sites: osg, sandhills)"
        );
        let e = WmsError::ConflictingProducer {
            file: "out.txt".into(),
            first: "a".into(),
            second: "b".into(),
        };
        let s = e.to_string();
        assert!(s.contains("out.txt") && s.contains('a') && s.contains('b'));
        assert!(WmsError::DaxParse {
            span: Span::new(12, 7),
            reason: "bad tag".into()
        }
        .to_string()
        .contains("line 12, col 7"));
    }

    #[test]
    fn spans_render_by_precision() {
        assert_eq!(Span::new(3, 9).to_string(), "line 3, col 9");
        assert_eq!(Span::line(3).to_string(), "line 3");
        assert!(Span::none().is_none());
        assert!(!Span::line(1).is_none());
    }

    #[test]
    fn quota_and_protocol_errors_render_their_context() {
        let q = WmsError::QuotaExceeded {
            tenant: "alice".into(),
            limit: 4,
        };
        let s = q.to_string();
        assert!(s.contains("alice") && s.contains('4'), "{s}");
        let p = WmsError::ProtocolParse {
            line: 0,
            reason: "unknown verb \"submti\"".into(),
        };
        assert_eq!(
            p.to_string(),
            "protocol parse error: unknown verb \"submti\""
        );
        let p = WmsError::ProtocolParse {
            line: 3,
            reason: "bad n".into(),
        };
        assert!(p.to_string().contains("line 3"), "{p}");
    }

    #[test]
    fn invariant_violations_name_both_sides() {
        let e = WmsError::InvariantViolation {
            invariant: "executable job ids are dense".into(),
            detail: "job 4 has id 9".into(),
        };
        let s = e.to_string();
        assert!(s.contains("dense") && s.contains("id 9"));
    }
}
