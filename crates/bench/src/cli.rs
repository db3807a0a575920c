//! Shared command-line handling for the experiment binaries.
//!
//! Every bin accepts the same surface: positional arguments (whatever the
//! binary documents — measure seconds, repetitions) plus common flags,
//! each anywhere on the line. `--quick` asks for the bin's shortened run,
//! where it has one. `--obs <path>` streams the run's observability
//! events to a JSONL artifact; `DCL_OBS=1` without `--obs` enables
//! instrumentation with only the end-of-run summary table (no artifact).
//! Either also turns on the `dcl_metrics` registry, which aggregates the
//! span timings and counters for the end-of-run table on stderr.
//! `--metrics <path>` enables the registry and dumps its final snapshot
//! as JSON; `DCL_METRICS=1` without `--metrics` enables the registry with
//! only the end-of-run table. A Chrome trace of the run's causal span
//! tree and verdict-provenance instants is rendered from the `--obs`
//! artifact afterwards: `explain <obs.jsonl> --chrome <out.json>`. The
//! `streaming` bin additionally accepts `--checkpoint <path>` (write an
//! end-of-run engine checkpoint as JSON) and `--restore <path>` (resume
//! from one), and `recovery` writes its fleet checkpoint to
//! `--checkpoint`; bins without checkpointable state ignore both. `--seeds
//! <n>` asks the streaming bin for its multi-seed row, and `--out <path>`
//! names the perf bin's report; other bins ignore them. Any other
//! argument that starts with `--` is a usage error.
//!
//! ```text
//! DCL_OBS=1 cargo run --release -p dcl-bench --bin table2 -- 60 \
//!     --obs run.jsonl --metrics run-metrics.json
//! ```
//!
//! [`init`] parses the arguments and installs the recorder; the returned
//! [`Cli`] hands out positionals and the run's [`ExperimentLog`] and, on
//! drop at the end of `main`, finishes the recorder and prints the
//! summary. An artifact or experiment log that could not be written in
//! full is reported, and the process exits with status 1.

use crate::report::ExperimentLog;
use dcl_metrics::obs::{self, JsonlSink};
use std::fmt::Display;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Parsed command line plus the observability-run guard.
#[derive(Debug)]
pub struct Cli {
    positionals: Vec<String>,
    obs_path: Option<PathBuf>,
    obs_active: bool,
    metrics_path: Option<PathBuf>,
    metrics_active: bool,
    checkpoint_path: Option<PathBuf>,
    restore_path: Option<PathBuf>,
    out_path: Option<PathBuf>,
    seeds: Option<usize>,
    quick: bool,
    log: OnceLock<ExperimentLog>,
}

/// The flags that take a path, as `--flag <path>` or `--flag=<path>`, in
/// the order [`Cli::parse`] destructures them.
const PATH_FLAGS: [&str; 5] = ["--obs", "--metrics", "--checkpoint", "--restore", "--out"];

/// Parse the process arguments and set up observability and metrics.
///
/// The arguments are read by [`Cli::parse`]; a malformed or unknown flag
/// exits with status 2. With `--obs` a [`JsonlSink`] is installed and
/// instrumentation enabled; with only `DCL_OBS` set, instrumentation is
/// enabled summary-only. Either also enables the metrics registry, where
/// span timings and counters are aggregated. `--metrics` enables the
/// registry alone; `DCL_METRICS` mirrors `DCL_OBS`.
pub fn init() -> Cli {
    let mut cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(e));

    // Nothing is installed yet, so there is no earlier recorder whose
    // finish could fail.
    cli.obs_active = if let Some(path) = &cli.obs_path {
        match JsonlSink::create(path) {
            Ok(sink) => {
                obs::install(Box::new(sink)).expect("no earlier recorder");
                true
            }
            Err(e) => usage_error(format_args!(
                "cannot create obs artifact {}: {e}",
                path.display()
            )),
        }
    } else {
        obs::init_from_env()
    };

    cli.metrics_active = if cli.metrics_path.is_some() || cli.obs_active {
        dcl_metrics::set_enabled(true);
        true
    } else {
        dcl_metrics::init_from_env()
    };
    cli
}

/// Report `msg` on stderr and exit with status 2, the status of a
/// malformed command line or an unusable path.
fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl Cli {
    /// Parse `args` (the arguments after the program name) without
    /// installing anything.
    ///
    /// Recognises `--obs`, `--metrics`, `--checkpoint`, `--restore` and
    /// `--out`, each as `--flag <path>` or `--flag=<path>`, `--seeds <n>` or
    /// `--seeds=<n>`, and `--quick`, anywhere on the line; every other
    /// argument is collected as a positional, in order. A path flag
    /// without its path, `--seeds` without a positive count, or any other
    /// argument starting with `--` is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut positionals = Vec::new();
        let mut paths: [Option<PathBuf>; 5] = Default::default();
        let mut seeds = None;
        let mut quick = false;
        let mut args = args.into_iter();
        'args: while let Some(arg) = args.next() {
            if arg == "--quick" {
                quick = true;
                continue;
            }
            let count = if arg == "--seeds" {
                Some(args.next())
            } else {
                arg.strip_prefix("--seeds=").map(|v| Some(v.to_owned()))
            };
            if let Some(count) = count {
                match count.and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => seeds = Some(n),
                    _ => return Err("--seeds requires a positive count".to_owned()),
                }
                continue;
            }
            for (flag, slot) in PATH_FLAGS.iter().zip(paths.iter_mut()) {
                if let Some(path) = arg.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
                    *slot = Some(PathBuf::from(path));
                    continue 'args;
                }
                if arg == *flag {
                    let path = args
                        .next()
                        .ok_or(format!("{flag} requires a path argument"))?;
                    *slot = Some(PathBuf::from(path));
                    continue 'args;
                }
            }
            if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            }
            positionals.push(arg);
        }
        let [obs_path, metrics_path, checkpoint_path, restore_path, out_path] = paths;
        Ok(Cli {
            positionals,
            obs_path,
            obs_active: false,
            metrics_path,
            metrics_active: false,
            checkpoint_path,
            restore_path,
            out_path,
            seeds,
            quick,
            log: OnceLock::new(),
        })
    }

    /// The `idx`-th positional argument, if present.
    pub fn pos(&self, idx: usize) -> Option<&str> {
        self.positionals.get(idx).map(String::as_str)
    }

    /// The `idx`-th positional parsed as `f64` (unparseable counts as
    /// absent, matching the binaries' historical lenient parsing).
    pub fn pos_f64(&self, idx: usize) -> Option<f64> {
        self.pos(idx).and_then(|s| s.parse().ok())
    }

    /// The `idx`-th positional parsed as `usize`.
    pub fn pos_usize(&self, idx: usize) -> Option<usize> {
        self.pos(idx).and_then(|s| s.parse().ok())
    }

    /// Where the metrics snapshot will be written, if `--metrics` was
    /// given.
    pub fn metrics_path(&self) -> Option<&std::path::Path> {
        self.metrics_path.as_deref()
    }

    /// Where the checkpointing bins should write an end-of-run checkpoint,
    /// if `--checkpoint` was given. Bins without checkpointable state
    /// ignore the flag.
    pub fn checkpoint_path(&self) -> Option<&std::path::Path> {
        self.checkpoint_path.as_deref()
    }

    /// A checkpoint artifact to resume from, if `--restore` was given.
    pub fn restore_path(&self) -> Option<&std::path::Path> {
        self.restore_path.as_deref()
    }

    /// Where the perf bin writes its report, if `--out` was given. Other
    /// bins ignore the flag.
    pub fn out_path(&self) -> Option<&std::path::Path> {
        self.out_path.as_deref()
    }

    /// The count of `--seeds`, if given.
    pub fn seeds(&self) -> Option<usize> {
        self.seeds
    }

    /// Was `--quick` given?
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Create the run's experiment log, `target/experiments/<name>.jsonl`.
    /// A run has one; its write failures fail the run when `self` drops.
    pub fn log(&self, name: &str) -> &ExperimentLog {
        assert!(self.log.get().is_none(), "one experiment log per run");
        self.log.get_or_init(|| ExperimentLog::new(name))
    }

    /// Resume from the checkpoint `--restore` names, if given: read it,
    /// parse it and hand it to `restore`. Any failure exits with status 2.
    pub fn restore<C: serde::Deserialize, T, E: Display>(
        &self,
        restore: impl FnOnce(C) -> Result<T, E>,
    ) -> Option<T> {
        let path = self.restore_path.as_deref()?;
        let msg = |what: &str, e: &dyn Display| {
            format!("cannot {what} checkpoint {}: {e}", path.display())
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| usage_error(msg("read", &e)));
        let checkpoint =
            serde_json::from_str(&text).unwrap_or_else(|e| usage_error(msg("parse", &e)));
        Some(restore(checkpoint).unwrap_or_else(|e| usage_error(msg("restore", &e))))
    }

    /// Write `checkpoint()` as pretty JSON to the `--checkpoint` path, if
    /// given. A failed write exits with status 2.
    pub fn write_checkpoint<T: serde::Serialize>(&self, checkpoint: impl FnOnce() -> T) {
        if let Some(path) = &self.checkpoint_path {
            let json = serde_json::to_string_pretty(&checkpoint()).expect("checkpoint serialises");
            if let Err(e) = std::fs::write(path, json + "\n") {
                usage_error(format_args!(
                    "cannot write checkpoint {}: {e}",
                    path.display()
                ));
            }
            eprintln!("checkpoint artifact: {}", path.display());
        }
    }

    /// Was any artifact or checkpoint path flag given?
    pub fn has_path_flag(&self) -> bool {
        self.obs_path.is_some()
            || self.metrics_path.is_some()
            || self.checkpoint_path.is_some()
            || self.restore_path.is_some()
    }
}

impl Drop for Cli {
    fn drop(&mut self) {
        let mut written = true;
        if self.metrics_active {
            if let Some(snapshot) = dcl_metrics::finish() {
                if let Some(path) = &self.metrics_path {
                    match serde_json::to_string_pretty(&snapshot) {
                        Ok(json) => {
                            if let Err(e) = std::fs::write(path, json + "\n") {
                                eprintln!("cannot write metrics snapshot {}: {e}", path.display());
                                written = false;
                            } else {
                                eprintln!("metrics snapshot: {}", path.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("cannot serialise metrics snapshot: {e}");
                            written = false;
                        }
                    }
                } else if !snapshot.is_empty() {
                    eprint!("{}", snapshot.render());
                }
            }
        }
        if self.obs_active {
            if let Some((summary, finished)) = obs::finish() {
                eprint!("{}", summary.render());
                match finished {
                    Ok(()) => {
                        if let Some(path) = &self.obs_path {
                            eprintln!("obs artifact: {}", path.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("cannot write obs artifact: {e}");
                        written = false;
                    }
                }
            }
        }
        if self.log.get().is_some_and(ExperimentLog::failed) {
            written = false;
        }
        if !written {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn positional_accessors_parse_leniently() {
        let cli = parse(&["60", "abc"]).unwrap();
        assert_eq!(cli.pos_f64(0), Some(60.0));
        assert_eq!(cli.pos_f64(1), None);
        assert_eq!(cli.pos_usize(0), Some(60));
        assert_eq!(cli.pos(2), None);
        assert!(!cli.quick());
        assert!(cli.obs_path.is_none());
        assert!(cli.metrics_path().is_none());
        assert!(cli.checkpoint_path().is_none());
        assert!(cli.restore_path().is_none());
    }

    #[test]
    fn quick_is_a_flag_not_a_positional() {
        for args in [["--quick", "60"], ["60", "--quick"]] {
            let cli = parse(&args).unwrap();
            assert!(cli.quick(), "{args:?}");
            assert_eq!(cli.pos_f64(0), Some(60.0), "{args:?}");
            assert_eq!(cli.pos(1), None, "{args:?}");
        }
    }

    #[test]
    fn flags_take_their_values() {
        let cli = parse(&["--obs", "a.jsonl", "--seeds=3", "7", "--metrics=m.json"]).unwrap();
        assert_eq!(
            cli.obs_path.as_deref(),
            Some(std::path::Path::new("a.jsonl"))
        );
        assert_eq!(cli.metrics_path(), Some(std::path::Path::new("m.json")));
        assert_eq!(cli.seeds(), Some(3));
        assert_eq!(cli.pos_usize(0), Some(7));
        assert!(parse(&["--metrics"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        // An unknown flag is refused, not taken as a positional: a typo
        // or a removed flag must not silently run the default.
        for args in [&["--trace", "x"][..], &["--metric", "x"], &["--bogus"]] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }
}
