//! Explain the verdicts of an instrumented run, or render its trace.
//!
//! Reads an observability JSONL artifact (from any bench bin's `--obs`
//! flag) and renders its `verdict-provenance` records as a
//! human-readable timeline: one entry per identification with the fitted
//! model, warm/cold start, EM effort, numerical-guard trips,
//! log-likelihood, bin width, and each test's `d*` and signed SDCL/WDCL
//! margin that decided the verdict — grouped by fleet path and ordered by
//! streaming window where that context exists. The EM line counts the
//! `em-restart` trajectories and their E-steps inside the
//! identification's `identify` span. The warm/cold start is the
//! provenance's flag: warm only when the verdict's fit is the warm
//! trajectory, so a seed that tripped a guard or was refused reads cold.
//!
//! With `--chrome <out.json>` it instead writes the run's Chrome trace
//! (open with `chrome://tracing` or Perfetto): the causal span tree and
//! the verdict instants, rendered from the artifact's events by
//! [`dcl_metrics::obs::write_chrome_trace`]. The trace is a view of the
//! event stream, so it needs no flag at run time.
//!
//! ```text
//! cargo run -p dcl-bench --bin streaming -- --quick --obs run.jsonl
//! cargo run -p dcl-bench --bin explain -- run.jsonl
//! cargo run -p dcl-bench --bin explain -- run.jsonl --chrome run-trace.json
//! ```
//!
//! Optional second argument: a path index to restrict the report to
//! (`explain run.jsonl 3`). Lines that do not parse as events are skipped
//! and counted on stderr.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dcl_metrics::obs::{parse_jsonl, write_chrome_trace, Event};

const USAGE: &str =
    "usage: explain <obs.jsonl> [path_index] | explain <obs.jsonl> --chrome <out.json>";

fn main() -> ExitCode {
    let mut positionals = Vec::new();
    let mut chrome = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(out) = arg.strip_prefix("--chrome=") {
            chrome = Some(out.to_owned());
        } else if arg == "--chrome" {
            let Some(out) = args.next() else {
                return usage();
            };
            chrome = Some(out);
        } else if arg.starts_with("--") {
            return usage();
        } else {
            positionals.push(arg);
        }
    }
    let (path, only_path) = match (&positionals[..], &chrome) {
        ([path], _) => (path, None),
        ([path, index], None) => match index.parse::<u64>() {
            Ok(p) => (path, Some(p)),
            Err(_) => return usage(),
        },
        _ => return usage(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("explain: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Tolerate lines that are not (or are no longer) parseable events;
    // explain renders what it understands and says how much it skipped.
    let (events, skipped) = parse_jsonl(&text);
    eprintln!(
        "explain: {path}: {} events, {skipped} line(s) skipped",
        events.len()
    );

    match chrome {
        Some(out) => write_chrome(&out, events),
        None => render(path, only_path, &events),
    }
}

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Write the Chrome trace of `events` to `out`.
fn write_chrome(out: &str, events: Vec<(usize, Event)>) -> ExitCode {
    let events: Vec<Event> = events.into_iter().map(|(_, ev)| ev).collect();
    match write_chrome_trace(out.as_ref(), &events) {
        Ok(()) => {
            eprintln!("trace artifact: {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("explain: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The EM work of one identification: the events between its `identify`
/// span opening and its `verdict-provenance` record.
#[derive(Debug, Default, Clone, Copy)]
struct Effort {
    /// `em-restart` events: finished EM trajectories, warm ones included.
    trajectories: usize,
    /// Their E-steps.
    e_steps: usize,
}

/// Print the `verdict-provenance` timeline, restricted to fleet path
/// `only_path` when given.
fn render(path: &str, only_path: Option<u64>, events: &[(usize, Event)]) -> ExitCode {
    // Group by fleet path (None = standalone run), keep artifact order
    // within a group.
    let mut by_path: BTreeMap<Option<u64>, Vec<(usize, &Event, Effort)>> = BTreeMap::new();
    let mut records = 0usize;
    let mut effort = Effort::default();
    for (line, ev) in events {
        match ev {
            Event::SpanOpen { name } if name == "identify" => effort = Effort::default(),
            Event::EmRestart { iterations, .. } => {
                effort.trajectories += 1;
                effort.e_steps += iterations;
            }
            Event::VerdictProvenance { path, .. } if only_path.is_none_or(|p| *path == Some(p)) => {
                by_path.entry(*path).or_default().push((*line, ev, effort));
                records += 1;
            }
            _ => {}
        }
    }
    if records == 0 {
        eprintln!(
            "explain: {path}: no verdict-provenance records{} — was the run instrumented?",
            only_path.map_or(String::new(), |p| format!(" for path {p}"))
        );
        return ExitCode::FAILURE;
    }

    println!(
        "explain: {path}: {records} verdict-provenance record(s), {} path group(s)",
        by_path.len()
    );
    let mut verdict_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (group, rows) in &by_path {
        match group {
            Some(p) => println!("\npath {p}:"),
            None => println!("\nstandalone:"),
        }
        for (line, ev, effort) in rows {
            let Event::VerdictProvenance {
                verdict,
                model,
                warm,
                restarts,
                iterations,
                converged,
                guard_trips,
                log_likelihood,
                degraded,
                sdcl_accepted,
                sdcl_margin,
                sdcl_d_star,
                wdcl_accepted,
                wdcl_margin,
                wdcl_d_star,
                num_probes,
                loss_rate,
                bin_width_us,
                window,
                first_seq,
                last_seq,
                ..
            } = ev
            else {
                unreachable!("grouped provenance records only");
            };
            *verdict_counts.entry(verdict.as_str()).or_default() += 1;
            let ctx = match (window, first_seq, last_seq) {
                (Some(w), Some(a), Some(b)) => format!("window {w} [seq {a}..{b}]"),
                (Some(w), _, _) => format!("window {w}"),
                _ => format!("line {line}"),
            };
            println!(
                "  {ctx:<28} {verdict:<18} {model} {} start, {iterations} it{}, {restarts} restarts, {guard_trips} guards, ll {log_likelihood:.3}{}",
                if *warm { "warm" } else { "cold" },
                if *converged { "" } else { " (no conv)" },
                if *degraded { " [degraded]" } else { "" },
            );
            let test = |accepted: bool, d_star: &Option<usize>, margin: f64| {
                format!(
                    "{} (d* {}, margin {margin:+.4})",
                    if accepted { "accept" } else { "reject" },
                    d_star.map_or("-".to_string(), |d| d.to_string()),
                )
            };
            println!(
                "  {:<28} SDCL {}  WDCL {}  {num_probes} probes, {:.2}% lost, {bin_width_us} us bins",
                "",
                test(*sdcl_accepted, sdcl_d_star, *sdcl_margin),
                test(*wdcl_accepted, wdcl_d_star, *wdcl_margin),
                loss_rate * 100.0,
            );
            println!(
                "  {:<28} EM: trajectories {}, E-steps {}",
                "", effort.trajectories, effort.e_steps,
            );
        }
    }
    println!();
    for (verdict, n) in &verdict_counts {
        println!("{n:>4} x {verdict}");
    }
    ExitCode::SUCCESS
}
