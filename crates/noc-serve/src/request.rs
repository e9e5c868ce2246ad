//! The serve request protocol: stdin command lines and request files.
//!
//! A request names a scenario/sweep text file (the same format `scn`
//! runs one-shot). Over stdin the protocol is one command per line:
//!
//! ```text
//! run <id> <path>    # execute the document at <path>, tag records <id>
//! shutdown           # drain queued requests, then exit
//! ```
//!
//! From a spool directory, every `*.scn` file is a request whose id is
//! the file stem. Either way, anything wrong with a request — an
//! unreadable file, a parse error, an inconsistent spec — is wrapped in
//! a [`RequestError`] carrying the file name (and, for parse errors,
//! the line), and surfaces as a typed error record on the output
//! stream. A bad request never takes the server down.

use noc_scenario::{parse_document, Backend, Document, ParseError, ScenarioError, Sweep};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};

/// One line of the stdin protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `run <id> <path>`: execute the document at `path`, tagging every
    /// result record with `id`.
    Run {
        /// Tag echoed on every record this request produces.
        id: String,
        /// The scenario/sweep file to execute.
        path: PathBuf,
    },
    /// `shutdown`: drain queued requests, then exit cleanly.
    Shutdown,
}

impl Command {
    /// Parses one protocol line. Blank lines and `#` comments yield
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] (file `<stdin>`) for unknown verbs or
    /// a `run` missing its id or path operand.
    pub fn parse(line: &str) -> Result<Option<Command>, RequestError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut words = line.split_whitespace();
        let verb = words.next().expect("non-empty line has a first word");
        match verb {
            "shutdown" => {
                if words.next().is_some() {
                    return Err(RequestError::protocol(format!(
                        "shutdown takes no operands: {line:?}"
                    )));
                }
                Ok(Some(Command::Shutdown))
            }
            "run" => {
                let id = words.next().ok_or_else(|| {
                    RequestError::protocol(format!("run needs an id and a path: {line:?}"))
                })?;
                let path = words.next().ok_or_else(|| {
                    RequestError::protocol(format!("run needs a path after the id: {line:?}"))
                })?;
                if words.next().is_some() {
                    return Err(RequestError::protocol(format!(
                        "run takes exactly two operands: {line:?}"
                    )));
                }
                Ok(Some(Command::Run {
                    id: id.to_owned(),
                    path: PathBuf::from(path),
                }))
            }
            other => Err(RequestError::protocol(format!(
                "unknown command {other:?} (expected `run` or `shutdown`)"
            ))),
        }
    }
}

/// A loaded, parsed request: an id, its source file, and the document.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tag echoed on every record this request produces.
    pub id: String,
    /// Display name of the source file (for error records).
    pub file: String,
    /// The parsed scenario or sweep.
    pub doc: Document,
}

impl Request {
    /// Reads and parses the request file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] naming the file if it cannot be read
    /// or does not parse.
    pub fn load(id: &str, path: &Path) -> Result<Request, RequestError> {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| RequestError {
            file: file.clone(),
            kind: RequestErrorKind::Io(e.to_string()),
        })?;
        let mut req = Request::from_text(id, &file, &text)?;
        // Relative trace paths in a spooled or stdin-named file resolve
        // against the file itself (absolutized), as they do for
        // `scn FILE` — one shared rule across every entry point — and
        // each trace is read here, once, for every point of the request.
        req.doc.resolve_trace_paths_from(path);
        Ok(req)
    }

    /// Parses a request from already-loaded text (`file` is only used
    /// to label errors and records).
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] if the text does not parse as a
    /// scenario or sweep document.
    pub fn from_text(id: &str, file: &str, text: &str) -> Result<Request, RequestError> {
        let doc = parse_document(text).map_err(|e| RequestError {
            file: file.to_owned(),
            kind: RequestErrorKind::Parse(e),
        })?;
        Ok(Request {
            id: id.to_owned(),
            file: file.to_owned(),
            doc,
        })
    }

    /// Expands the request into the sweep the executor runs.
    ///
    /// Sweep documents run as declared, their points borrowed. A plain
    /// scenario document becomes one point per backend (`noc`,
    /// `bridged`, `bus`) under the server's default budget and step
    /// mode, so a single spool file reports the paper's full
    /// cross-backend comparison; points a backend cannot compile come
    /// back as typed per-point error records, not a failed request.
    pub fn expand(&self, max_cycles: u64, step: noc_scenario::StepMode) -> Cow<'_, Sweep> {
        match &self.doc {
            Document::Sweep(sweep) => Cow::Borrowed(sweep),
            Document::Scenario(spec) => {
                let mut sweep = Sweep::new()
                    .with_max_cycles(max_cycles)
                    .with_step_mode(step);
                for (label, make) in Backend::NAMES {
                    sweep = sweep.point(label, spec.clone(), make());
                }
                Cow::Owned(sweep)
            }
        }
    }
}

/// Why a request could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestErrorKind {
    /// A stdin line did not follow the protocol.
    Protocol(String),
    /// The request file could not be read.
    Io(String),
    /// The request file did not parse (carries line and column).
    Parse(ParseError),
    /// The document is internally inconsistent.
    Scenario(ScenarioError),
}

/// A typed request failure, tagged with the file it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request file the error is about (`<stdin>` for protocol
    /// errors).
    pub file: String,
    /// What went wrong.
    pub kind: RequestErrorKind,
}

impl RequestError {
    fn protocol(message: String) -> RequestError {
        RequestError {
            file: "<stdin>".to_owned(),
            kind: RequestErrorKind::Protocol(message),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            RequestErrorKind::Protocol(msg) => write!(f, "{}: {}", self.file, msg),
            RequestErrorKind::Io(msg) => write!(f, "{}: {}", self.file, msg),
            // ParseError's Display already carries "line L, column C".
            RequestErrorKind::Parse(e) => write!(f, "{}: {}", self.file, e),
            RequestErrorKind::Scenario(e) => write!(f, "{}: {}", self.file, e),
        }
    }
}

impl std::error::Error for RequestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_and_shutdown() {
        assert_eq!(
            Command::parse("run q1 sweeps/a.scn").unwrap(),
            Some(Command::Run {
                id: "q1".to_owned(),
                path: PathBuf::from("sweeps/a.scn"),
            })
        );
        assert_eq!(
            Command::parse("  shutdown  ").unwrap(),
            Some(Command::Shutdown)
        );
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        assert_eq!(Command::parse("").unwrap(), None);
        assert_eq!(Command::parse("   ").unwrap(), None);
        assert_eq!(Command::parse("# a comment").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        // Satellite: negative parses for the request envelope. Every
        // malformed shape must come back as a typed error naming the
        // source, never a panic.
        for bad in [
            "walk q1 a.scn",      // unknown verb
            "run",                // missing id and path
            "run q1",             // missing path
            "run q1 a.scn extra", // trailing operand
            "shutdown now",       // shutdown takes no operands
        ] {
            let err = Command::parse(bad).unwrap_err();
            assert_eq!(err.file, "<stdin>", "line {bad:?}");
            assert!(
                matches!(err.kind, RequestErrorKind::Protocol(_)),
                "line {bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn load_resolves_trace_paths_to_absolute() {
        // CWD-independence at the unit level: after `load`, a relative
        // trace path has been rebased onto the request file's directory
        // and absolutized, so later working-directory changes cannot
        // redirect it.
        let dir = std::env::temp_dir().join(format!("noc-req-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("cpu.trace"), "0 read 0x100 1 4\n").unwrap();
        let file = dir.join("traced.scn");
        std::fs::write(
            &file,
            "[[initiator]]\nname = \"cpu\"\nsocket = \"axi\"\nkind = \"trace\"\ntrace_file = \"cpu.trace\"\n\n\
             [[memory]]\nname = \"ram\"\nbase = 0x0\nend = 0x10000\nlatency = 2\nqueue = 4\n",
        )
        .unwrap();
        let req = Request::load("q1", &file).unwrap();
        let noc_scenario::Document::Scenario(spec) = &req.doc else {
            panic!("expected a scenario document");
        };
        let noc_scenario::ProgramSpec::Trace(t) = &spec.initiators[0].program else {
            panic!("expected a trace program");
        };
        assert!(
            Path::new(t.path()).is_absolute(),
            "trace path {:?} should be absolute after load",
            t.path()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_wraps_io_errors_with_the_file_name() {
        let err = Request::load("q1", Path::new("/no/such/request.scn")).unwrap_err();
        assert!(matches!(err.kind, RequestErrorKind::Io(_)));
        assert!(err.to_string().contains("/no/such/request.scn"));
    }

    #[test]
    fn from_text_wraps_parse_errors_with_file_and_line() {
        let err = Request::from_text("q1", "bad.scn", "[topology]\nkind = ???\n").unwrap_err();
        let RequestErrorKind::Parse(parse) = &err.kind else {
            panic!("expected a parse error, got {err:?}");
        };
        assert_eq!(parse.line, 2);
        let shown = err.to_string();
        assert!(shown.contains("bad.scn"), "{shown}");
        assert!(shown.contains("line 2"), "{shown}");
    }

    #[test]
    fn scenario_requests_expand_to_all_three_backends() {
        let text = "\
[[initiator]]
name = \"cpu\"
socket = \"axi\"
cmd = \"read 0x1000 1x4\"

[[memory]]
name = \"ram\"
base = 0x0
end = 0x10000
latency = 2
queue = 4
";
        let req = Request::from_text("q1", "one.scn", text).unwrap();
        let sweep = req.expand(1_000, noc_scenario::StepMode::Horizon);
        let labels: Vec<&str> = sweep.points().iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["noc", "bridged", "bus"]);
        assert_eq!(sweep.max_cycles(), 1_000);
    }
}
