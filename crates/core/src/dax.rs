//! DAX: the "directed acyclic graph in XML" interchange format.
//!
//! Pegasus workflows are described by DAX files listing jobs, their
//! arguments, the files they use (`link="input"`/`link="output"`), and
//! explicit parent/child relations. This module writes an
//! [`AbstractWorkflow`] as a DAX 3-style document and parses such
//! documents back, using a small built-in XML scanner (no external
//! dependencies, and only the subset of XML that DAX needs).
//!
//! Round-trip caveat: arguments are serialized space-joined inside
//! `<argument>`, so individual arguments containing whitespace do not
//! survive a round trip — the same limitation the real DAX text layout
//! has.

use crate::error::{Span, WmsError};
use crate::symbols::{JobId, SymbolTable};
use crate::workflow::{AbstractWorkflow, Job, LogicalFile};
use std::borrow::Cow;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

pub(crate) fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// The five predefined XML entities and the characters they stand for.
const ENTITIES: [(&str, char); 5] = [
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&apos;", '\''),
    ("&amp;", '&'),
];

/// Undoes [`escape_xml`] in one left-to-right pass. Text without `&`
/// is borrowed as it is; an `&` that starts no known entity is kept.
fn unescape_xml(s: &str) -> Cow<'_, str> {
    let Some(first) = s.find('&') else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut rest = &s[first..];
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        match ENTITIES.iter().find(|(e, _)| rest.starts_with(e)) {
            Some(&(e, c)) => {
                out.push(c);
                rest = &rest[e.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Serializes a workflow as a DAX document.
pub fn to_dax(wf: &AbstractWorkflow) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(
        out,
        "<adag name=\"{}\" jobCount=\"{}\">",
        escape_xml(&wf.name),
        wf.jobs.len()
    );
    for job in &wf.jobs {
        let _ = writeln!(
            out,
            "  <job id=\"{}\" name=\"{}\" runtime=\"{}\">",
            escape_xml(&job.id),
            escape_xml(&job.transformation),
            job.runtime_hint
        );
        if !job.args.is_empty() {
            let _ = writeln!(
                out,
                "    <argument>{}</argument>",
                escape_xml(&job.args.join(" "))
            );
        }
        for f in &job.inputs {
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"input\" size=\"{}\"/>",
                escape_xml(&f.name),
                f.size_bytes
            );
        }
        for f in &job.outputs {
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"output\" size=\"{}\"/>",
                escape_xml(&f.name),
                f.size_bytes
            );
        }
        out.push_str("  </job>\n");
    }
    for &(p, c) in &wf.explicit_edges {
        let _ = writeln!(
            out,
            "  <child ref=\"{}\"><parent ref=\"{}\"/></child>",
            escape_xml(&wf.jobs[c.idx()].id),
            escape_xml(&wf.jobs[p.idx()].id)
        );
    }
    out.push_str("</adag>\n");
    out
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// One scanner event. Names and text borrow from the document; the
/// attributes of an `Open` tag are in [`XmlScanner::attrs`] until the
/// next event.
#[derive(Debug)]
enum XmlEvent<'a> {
    Open {
        name: &'a str,
        self_closing: bool,
    },
    Close(&'a str),
    /// Trimmed, unescaped character data.
    Text(Cow<'a, str>),
}

/// A zero-copy scanner over the XML subset DAX needs.
///
/// The scanner keeps only a byte offset. Line and column are computed
/// from an offset when an error is built, so the hot path pays nothing
/// for positions. Columns count bytes, not characters.
struct XmlScanner<'a> {
    src: &'a str,
    pos: usize,
    /// Offset of the `<` that opened the most recent tag; semantic
    /// errors about a tag point here rather than at the scan cursor.
    tag: usize,
    /// Attributes of the most recent `Open` tag, in document order.
    attrs: Vec<(&'a str, Cow<'a, str>)>,
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':' | b'.')
}

impl<'a> XmlScanner<'a> {
    fn new(src: &'a str) -> Self {
        XmlScanner {
            src,
            pos: 0,
            tag: 0,
            attrs: Vec::new(),
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    /// Offset of the next `b` at or after the cursor.
    fn find_byte(&self, b: u8) -> Option<usize> {
        self.bytes()[self.pos..]
            .iter()
            .position(|&x| x == b)
            .map(|i| self.pos + i)
    }

    /// One-based line and byte column of `offset`.
    fn span_at(&self, offset: usize) -> Span {
        let before = &self.bytes()[..offset];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        Span::new(line, offset - line_start + 1)
    }

    fn err_at(&self, offset: usize, reason: impl Into<String>) -> WmsError {
        WmsError::DaxParse {
            span: self.span_at(offset),
            reason: reason.into(),
        }
    }

    fn err(&self, reason: impl Into<String>) -> WmsError {
        self.err_at(self.pos, reason)
    }

    /// An error about the byte at the cursor, reported just past it:
    /// the offending byte counts as read.
    fn err_past(&self, reason: impl Into<String>) -> WmsError {
        self.err_at((self.pos + 1).min(self.src.len()), reason)
    }

    fn tag_err(&self, reason: impl Into<String>) -> WmsError {
        self.err_at(self.tag, reason)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Moves past the next `needle`. When there is none, the error
    /// points at the last offset where it could still have started.
    fn skip_past(&mut self, needle: &str) -> Result<(), WmsError> {
        match self.src[self.pos..].find(needle) {
            Some(i) => {
                self.pos += i + needle.len();
                Ok(())
            }
            None => {
                let last_start = (self.src.len() + 1).saturating_sub(needle.len());
                Err(self.err_at(
                    self.pos.max(last_start),
                    format!("unterminated construct, expected {needle:?}"),
                ))
            }
        }
    }

    fn read_name(&mut self) -> &'a str {
        let start = self.pos;
        let len = self.bytes()[start..]
            .iter()
            .position(|&b| !is_name_byte(b))
            .unwrap_or(self.src.len() - start);
        self.pos += len;
        &self.src[start..self.pos]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Reads a start tag's attributes into `self.attrs`; returns
    /// whether the tag is self-closing.
    fn read_attrs(&mut self) -> Result<bool, WmsError> {
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok(true);
                    }
                    return Err(self.err("stray '/' in tag"));
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(false);
                }
                Some(_) => {
                    let name = self.read_name();
                    if name.is_empty() {
                        return Err(self.err("expected attribute name"));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("attribute {name:?} missing '='")));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .filter(|&q| q == b'"' || q == b'\'')
                        .ok_or_else(|| self.err_past("attribute value must be quoted"))?;
                    self.pos += 1;
                    let end = self.find_byte(quote).ok_or_else(|| {
                        self.err_at(self.src.len(), "unterminated attribute value")
                    })?;
                    let value = unescape_xml(&self.src[self.pos..end]);
                    self.pos = end + 1;
                    if self.attrs.iter().any(|&(k, _)| k == name) {
                        return Err(self.tag_err(format!("duplicate attribute {name:?}")));
                    }
                    self.attrs.push((name, value));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Next event, or `None` at clean end of input.
    fn next_event(&mut self) -> Result<Option<XmlEvent<'a>>, WmsError> {
        loop {
            // Text before the next '<'.
            let start = self.pos;
            self.pos = self.find_byte(b'<').unwrap_or(self.src.len());
            let text = self.src[start..self.pos].trim();
            if !text.is_empty() {
                return Ok(Some(XmlEvent::Text(unescape_xml(text))));
            }
            if self.pos == self.src.len() {
                return Ok(None);
            }
            self.tag = self.pos;
            self.pos += 1; // consume '<'
            match self.peek() {
                Some(b'?') => self.skip_past("?>")?,
                Some(b'!') => self.skip_past("-->")?,
                Some(b'/') => {
                    self.pos += 1;
                    let name = self.read_name();
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err_past(format!("malformed closing tag </{name}")));
                    }
                    self.pos += 1;
                    return Ok(Some(XmlEvent::Close(name)));
                }
                Some(_) => {
                    let name = self.read_name();
                    if name.is_empty() {
                        return Err(self.err("expected tag name after '<'"));
                    }
                    let self_closing = self.read_attrs()?;
                    return Ok(Some(XmlEvent::Open { name, self_closing }));
                }
                None => return Err(self.err("dangling '<' at end of input")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing DAX
// ---------------------------------------------------------------------------

fn attr<'s>(attrs: &'s [(&str, Cow<'_, str>)], key: &str) -> Option<&'s str> {
    attrs
        .iter()
        .find(|&&(k, _)| k == key)
        .map(|(_, v)| v.as_ref())
}

/// Parses a DAX document back into an [`AbstractWorkflow`].
pub fn from_dax(text: &str) -> Result<AbstractWorkflow, WmsError> {
    let _prof = crate::prof::scope("dax.parse");
    let wf = from_dax_unvalidated(text)?;
    // A syntactically well-formed DAX can still describe a cyclic graph
    // or give one file two producers; surface those as their own typed
    // errors rather than letting downstream planning panic.
    wf.validate()?;
    Ok(wf)
}

/// Parses a DAX document without running [`AbstractWorkflow::validate`].
///
/// `pegasus lint` uses this so it can report cycles with the full path
/// and *every* conflicting producer, instead of stopping at the first
/// typed error the way [`from_dax`] does.  Anything that plans or runs
/// a workflow must go through [`from_dax`] instead.
pub fn from_dax_unvalidated(text: &str) -> Result<AbstractWorkflow, WmsError> {
    let mut scan = XmlScanner::new(text);
    let mut wf: Option<AbstractWorkflow> = None;
    // Job ids are interned as they are declared, so duplicate
    // detection and the `<child>`/`<parent>` ref resolution below are
    // hash lookups rather than linear scans over the job list —
    // without this a million-job DAX costs O(n²) to parse.
    let mut ids: SymbolTable<JobId> = SymbolTable::new();
    let mut adag_closed = false;
    // The job being read, with the offset of its `<job` tag.
    let mut cur_job: Option<(Job, usize)> = None;
    let mut in_argument = false;
    let mut cur_child: Option<String> = None;
    let mut pending_edges: Vec<(String, String)> = Vec::new(); // (parent, child)

    // Intern-then-push, erroring on redeclaration; replaces
    // `AbstractWorkflow::add_job`'s O(n) duplicate scan on this bulk
    // path.
    fn push_job(
        wf: &mut AbstractWorkflow,
        ids: &mut SymbolTable<JobId>,
        job: Job,
    ) -> Result<JobId, WmsError> {
        if ids.get(&job.id).is_some() {
            return Err(WmsError::DuplicateJob(job.id));
        }
        let id = ids.intern(&job.id);
        debug_assert_eq!(id.idx(), wf.jobs.len());
        wf.jobs.push(job);
        Ok(id)
    }

    while let Some(ev) = scan.next_event()? {
        match ev {
            XmlEvent::Open { name, self_closing } => match name {
                "adag" => {
                    let wname = attr(&scan.attrs, "name").unwrap_or("workflow").to_string();
                    wf = Some(AbstractWorkflow::new(wname));
                }
                "job" => {
                    if wf.is_none() {
                        return Err(scan.tag_err("<job> outside <adag>"));
                    }
                    let id = attr(&scan.attrs, "id")
                        .ok_or_else(|| scan.tag_err("<job> missing id attribute"))?;
                    let tname = attr(&scan.attrs, "name").unwrap_or(id);
                    let mut job = Job::new(id, tname);
                    if let Some(rt) = attr(&scan.attrs, "runtime") {
                        job.runtime_hint = rt
                            .parse()
                            .map_err(|_| scan.tag_err(format!("bad runtime {rt:?}")))?;
                    }
                    if self_closing {
                        let w = wf.as_mut().expect("checked above");
                        push_job(w, &mut ids, job).map_err(|e| scan.tag_err(e.to_string()))?;
                    } else {
                        cur_job = Some((job, scan.tag));
                    }
                }
                "argument" => {
                    if cur_job.is_none() {
                        return Err(scan.tag_err("<argument> outside <job>"));
                    }
                    in_argument = !self_closing;
                }
                "uses" => {
                    let (job, _) = cur_job
                        .as_mut()
                        .ok_or_else(|| scan.tag_err("<uses> outside <job>"))?;
                    let file = attr(&scan.attrs, "file")
                        .ok_or_else(|| scan.tag_err("<uses> missing file attribute"))?;
                    let size: u64 = attr(&scan.attrs, "size")
                        .unwrap_or("0")
                        .parse()
                        .map_err(|_| scan.tag_err("bad size attribute"))?;
                    let lf = LogicalFile::sized(file, size);
                    match attr(&scan.attrs, "link") {
                        Some("input") => job.inputs.push(lf),
                        Some("output") => job.outputs.push(lf),
                        other => {
                            return Err(scan.tag_err(format!(
                                "<uses> link must be input or output, got {other:?}"
                            )))
                        }
                    }
                }
                "child" => {
                    let r = attr(&scan.attrs, "ref")
                        .ok_or_else(|| scan.tag_err("<child> missing ref"))?;
                    cur_child = Some(r.to_string());
                }
                "parent" => {
                    let child = cur_child
                        .clone()
                        .ok_or_else(|| scan.tag_err("<parent> outside <child>"))?;
                    let r = attr(&scan.attrs, "ref")
                        .ok_or_else(|| scan.tag_err("<parent> missing ref"))?;
                    pending_edges.push((r.to_string(), child));
                }
                other => {
                    return Err(scan.tag_err(format!("unexpected element <{other}>")));
                }
            },
            XmlEvent::Close(name) => match name {
                "job" => {
                    let (job, open) = cur_job.take().ok_or_else(|| scan.tag_err("stray </job>"))?;
                    let w = wf
                        .as_mut()
                        .ok_or_else(|| scan.tag_err("</job> outside <adag>"))?;
                    // A duplicate id is reported at the `<job` that
                    // declares it, not at its `</job>`.
                    push_job(w, &mut ids, job).map_err(|e| scan.err_at(open, e.to_string()))?;
                }
                "argument" => in_argument = false,
                "child" => cur_child = None,
                "adag" => adag_closed = true,
                "parent" | "uses" => {}
                other => return Err(scan.tag_err(format!("unexpected closing </{other}>"))),
            },
            XmlEvent::Text(text) => {
                if in_argument {
                    let (job, _) = cur_job.as_mut().expect("in_argument implies job");
                    job.args.extend(text.split_whitespace().map(String::from));
                }
            }
        }
    }

    if let Some((job, _)) = &cur_job {
        return Err(scan.err(format!("unclosed <job id={:?}> at end of input", job.id)));
    }
    if cur_child.is_some() {
        return Err(scan.err("unclosed <child> at end of input"));
    }
    let mut wf = wf.ok_or_else(|| WmsError::DaxParse {
        span: Span::none(),
        reason: "no <adag> element found".into(),
    })?;
    if !adag_closed {
        return Err(scan.err("unclosed <adag> at end of input"));
    }
    for (p, c) in pending_edges {
        let pid = ids.get(&p).ok_or_else(|| WmsError::DaxParse {
            span: Span::none(),
            reason: format!("edge references unknown parent {p:?}"),
        })?;
        let cid = ids.get(&c).ok_or_else(|| WmsError::DaxParse {
            span: Span::none(),
            reason: format!("edge references unknown child {c:?}"),
        })?;
        wf.add_edge(pid, cid).map_err(|e| WmsError::DaxParse {
            span: Span::none(),
            reason: e.to_string(),
        })?;
    }
    Ok(wf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AbstractWorkflow {
        let mut wf = AbstractWorkflow::new("blast2cap3");
        wf.add_job(
            Job::new("list_tx", "make_list")
                .arg("--kind")
                .arg("transcripts")
                .input(LogicalFile::sized("transcripts.fasta", 404_000_000))
                .output(LogicalFile::named("transcripts_dict.txt"))
                .runtime(120.0),
        )
        .unwrap();
        wf.add_job(
            Job::new("split", "split")
                .arg("-n")
                .arg("300")
                .input(LogicalFile::sized("alignments.out", 155_000_000))
                .output(LogicalFile::named("protein_1.txt"))
                .output(LogicalFile::named("protein_2.txt")),
        )
        .unwrap();
        wf.add_job(
            Job::new("cap3_1", "run_cap3")
                .input(LogicalFile::named("transcripts_dict.txt"))
                .input(LogicalFile::named("protein_1.txt"))
                .output(LogicalFile::named("joined_1.fasta")),
        )
        .unwrap();
        let a = wf.job_by_name("list_tx").unwrap();
        let b = wf.job_by_name("split").unwrap();
        wf.add_edge(a, b).unwrap();
        wf
    }

    #[test]
    fn writer_emits_wellformed_skeleton() {
        let text = to_dax(&sample());
        assert!(text.starts_with("<?xml"));
        assert!(text.contains("<adag name=\"blast2cap3\" jobCount=\"3\">"));
        assert!(text.contains("<job id=\"split\" name=\"split\""));
        assert!(text.contains("link=\"input\""));
        assert!(text.contains("<child ref=\"split\"><parent ref=\"list_tx\"/></child>"));
        assert!(text.trim_end().ends_with("</adag>"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = sample();
        let parsed = from_dax(&to_dax(&original)).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.jobs.len(), original.jobs.len());
        for (a, b) in parsed.jobs.iter().zip(&original.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.transformation, b.transformation);
            assert_eq!(a.args, b.args);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.outputs, b.outputs);
            assert!((a.runtime_hint - b.runtime_hint).abs() < 1e-9);
        }
        assert_eq!(parsed.edges().unwrap(), original.edges().unwrap());
    }

    #[test]
    fn special_characters_survive_round_trip() {
        let mut wf = AbstractWorkflow::new("weird & <name>");
        wf.add_job(
            Job::new("j\"1\"", "tool")
                .arg("--expr")
                .arg("a<b&&c>d")
                .input(LogicalFile::named("in'put")),
        )
        .unwrap();
        let parsed = from_dax(&to_dax(&wf)).unwrap();
        assert_eq!(parsed.name, "weird & <name>");
        assert_eq!(parsed.jobs[0].id, "j\"1\"");
        assert_eq!(parsed.jobs[0].args, vec!["--expr", "a<b&&c>d"]);
        assert_eq!(parsed.jobs[0].inputs[0].name, "in'put");
    }

    #[test]
    fn comments_and_pi_are_skipped() {
        let text = "<?xml version=\"1.0\"?>\n<!-- generated -->\n<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n</adag>";
        let wf = from_dax(text).unwrap();
        assert_eq!(wf.jobs.len(), 1);
        assert_eq!(wf.jobs[0].id, "a");
    }

    #[test]
    fn missing_adag_is_an_error() {
        let err = from_dax("<job id=\"a\"/>").unwrap_err();
        assert!(matches!(err, WmsError::DaxParse { .. }));
    }

    #[test]
    fn bad_link_attribute_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"><uses file=\"f\" link=\"inout\"/></job></adag>";
        assert!(from_dax(text).is_err());
    }

    #[test]
    fn unknown_edge_reference_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"/><child ref=\"a\"><parent ref=\"ghost\"/></child></adag>";
        let err = from_dax(text).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_job_in_dax_is_an_error() {
        let text = "<adag name=\"w\"><job id=\"a\" name=\"t\"/><job id=\"a\" name=\"t\"/></adag>";
        assert!(from_dax(text).is_err());
    }

    #[test]
    fn line_numbers_in_errors() {
        let text = "<adag name=\"w\">\n\n<job name=\"missing-id\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::DaxParse { span, .. } => assert_eq!(span, Span::new(3, 1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn spans_point_at_the_offending_tag() {
        let text = "<adag name=\"w\">\n  <job name=\"missing-id\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::DaxParse { span, .. } => assert_eq!(span, Span::new(2, 3)),
            other => panic!("unexpected {other:?}"),
        }
        // Duplicate ids point at the second declaration.
        let text =
            "<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n<job id=\"a\" name=\"t\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::DaxParse { span, reason } => {
                assert_eq!(span, Span::new(3, 1));
                assert!(reason.contains("duplicate"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_job_span_points_at_the_open_tag_not_the_close() {
        let text = "<adag name=\"w\">\n<job id=\"a\" name=\"t\"/>\n  <job id=\"a\" name=\"t\">\n    <argument>x</argument>\n  </job>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::DaxParse { span, reason } => {
                assert_eq!(span, Span::new(3, 3));
                assert!(reason.contains("duplicate job"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn question_mark_inside_a_start_tag_is_an_error() {
        let text = "<adag name=\"w\">\n<job ? id=\"a\" name=\"t\"/>\n</adag>";
        match from_dax(text).unwrap_err() {
            WmsError::DaxParse { span, reason } => {
                assert_eq!(span, Span::new(2, 6));
                assert!(reason.contains("expected attribute name"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_is_an_error_at_its_tag() {
        let text = "<adag name=\"w\">\n  <job id=\"a\" id=\"b\" name=\"t\"/>\n</adag>";
        let err = from_dax(text).unwrap_err();
        match &err {
            WmsError::DaxParse { span, reason } => {
                assert_eq!(*span, Span::new(2, 3));
                assert!(reason.contains("duplicate attribute \"id\""), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            crate::lint::classify_parse_error(&err, "w.dax").code,
            "E0101"
        );
    }

    #[test]
    fn unescape_borrows_plain_text_and_keeps_unknown_entities() {
        assert!(matches!(unescape_xml("plain"), Cow::Borrowed("plain")));
        assert_eq!(unescape_xml("a&amp;lt;b"), "a&lt;b");
        assert_eq!(unescape_xml("&lt;&gt;&quot;&apos;&amp;"), "<>\"'&");
        assert_eq!(unescape_xml("&nbsp; & &am"), "&nbsp; & &am");
        assert_eq!(unescape_xml("é&amp;中"), "é&中");
    }

    /// Every scanner error keeps its reason and its span. Columns count
    /// bytes, not characters, and a CR is an ordinary column. An
    /// unterminated comment or PI points at the last offset where its
    /// terminator could still have started.
    #[test]
    fn malformed_dax_table_pins_reason_and_span() {
        let cases: &[(&str, Span, &str)] = &[
            (
                "<adag name=\"w\">\n<!-- never closed",
                Span::new(2, 16),
                "expected \"-->\"",
            ),
            ("<adag name=\"w\">\n<!", Span::new(2, 2), "expected \"-->\""),
            (
                "<?xml version=\"1.0\"\n<adag/>",
                Span::new(2, 7),
                "expected \"?>\"",
            ),
            (
                "<adag name=\"w>\n</adag>",
                Span::new(2, 8),
                "unterminated attribute value",
            ),
            (
                "<adag name=\"w\">\n  <job id \"a\"/>",
                Span::new(2, 11),
                "attribute \"id\" missing '='",
            ),
            (
                "<adag name=w>",
                Span::new(1, 13),
                "attribute value must be quoted",
            ),
            (
                "<adag name=\"w\">\n<job / id=\"a\"/>",
                Span::new(2, 7),
                "stray '/' in tag",
            ),
            (
                "<adag name=\"w\">\n<",
                Span::new(2, 2),
                "dangling '<' at end of input",
            ),
            (
                "<adag name=\"w\"",
                Span::new(1, 15),
                "unexpected end of input in tag",
            ),
            (
                "<adag name=\"w\">\r\n\r\n  <job id=\"a\" =\"t\"/>",
                Span::new(3, 15),
                "expected attribute name",
            ),
            (
                "<adag name=\"w\">\r\n<jobs/>\r\n</adag>",
                Span::new(2, 1),
                "unexpected element <jobs>",
            ),
            (
                "<adag name=\"w\">\n\t<job\tname=\"x\"/>",
                Span::new(2, 2),
                "<job> missing id attribute",
            ),
            (
                "\t\t<adag\tname=w>",
                Span::new(1, 15),
                "attribute value must be quoted",
            ),
            (
                "<adag name=\"é\">\n<job id=\"ü\" name=\"✓\" bad/>",
                Span::new(2, 28),
                "attribute \"bad\" missing '='",
            ),
            (
                "<!-- ĉu? -->\n<adag name=é>",
                Span::new(2, 13),
                "attribute value must be quoted",
            ),
            (
                "<adag name=\"w\">\n</adag x>",
                Span::new(2, 9),
                "malformed closing tag </adag",
            ),
            (
                "<adag name=\"w\">\n< job/>",
                Span::new(2, 2),
                "expected tag name after '<'",
            ),
            (
                "<adag name=\"w\">\n<job id=\"a\" name=\"t\">\n",
                Span::new(3, 1),
                "unclosed <job id=\"a\"> at end of input",
            ),
            (
                "<adag name=\"w\">\n  <job id=\"a\" runtime=\"x\"/>",
                Span::new(2, 3),
                "bad runtime \"x\"",
            ),
            (
                "<adag name=\"w\">\n  </foo>",
                Span::new(2, 3),
                "unexpected closing </foo>",
            ),
        ];
        let mut wrong = Vec::new();
        for (text, want_span, want_reason) in cases {
            match from_dax(text).unwrap_err() {
                WmsError::DaxParse { span, reason }
                    if span == *want_span && reason.contains(want_reason) => {}
                other => wrong.push(format!("{text:?}: got {other:?}")),
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn unvalidated_parse_accepts_cycles() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"/><job id=\"b\" name=\"t\"/>\
                    <child ref=\"b\"><parent ref=\"a\"/></child>\
                    <child ref=\"a\"><parent ref=\"b\"/></child>\
                    </adag>";
        let wf = from_dax_unvalidated(text).unwrap();
        assert_eq!(wf.jobs.len(), 2);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(from_dax("<!-- never closed").is_err());
    }

    #[test]
    fn unclosed_tags_are_errors_not_silent_drops() {
        // A <job> still open at end of input used to be dropped.
        let err = from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\">").unwrap_err();
        match err {
            WmsError::DaxParse { reason, .. } => assert!(reason.contains("unclosed <job")),
            other => panic!("unexpected {other:?}"),
        }
        let err = from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\"/>").unwrap_err();
        match err {
            WmsError::DaxParse { reason, .. } => assert!(reason.contains("unclosed <adag>")),
            other => panic!("unexpected {other:?}"),
        }
        let err =
            from_dax("<adag name=\"w\"><job id=\"a\" name=\"t\"/><child ref=\"a\">").unwrap_err();
        match err {
            WmsError::DaxParse { reason, .. } => assert!(reason.contains("unclosed <child>")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cyclic_explicit_edges_are_a_typed_error() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"/><job id=\"b\" name=\"t\"/>\
                    <child ref=\"b\"><parent ref=\"a\"/></child>\
                    <child ref=\"a\"><parent ref=\"b\"/></child>\
                    </adag>";
        assert!(matches!(
            from_dax(text).unwrap_err(),
            WmsError::CycleDetected(_)
        ));
    }

    #[test]
    fn conflicting_producers_are_a_typed_error() {
        let text = "<adag name=\"w\">\
                    <job id=\"a\" name=\"t\"><uses file=\"f\" link=\"output\"/></job>\
                    <job id=\"b\" name=\"t\"><uses file=\"f\" link=\"output\"/></job>\
                    </adag>";
        assert!(matches!(
            from_dax(text).unwrap_err(),
            WmsError::ConflictingProducer { .. }
        ));
    }

    #[test]
    fn parsed_workflow_validates() {
        let parsed = from_dax(&to_dax(&sample())).unwrap();
        assert!(parsed.validate().is_ok());
    }
}
