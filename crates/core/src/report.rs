//! Human-readable rendering of identification results.
//!
//! [`Identification`] implements [`fmt::Display`] through this module: a
//! compact multi-line summary suitable for CLI tools and logs, including a
//! text sparkline of the virtual queuing delay PMF.

use crate::identify::Identification;
use std::fmt;

/// Eight-level unicode bar for a probability in `[0, 1]`.
fn bar(p: f64, max: f64) -> char {
    const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if max <= 0.0 {
        return BARS[0];
    }
    let idx = ((p / max) * 8.0).round().clamp(0.0, 8.0) as usize;
    BARS[idx]
}

/// Render the PMF as a one-line sparkline.
pub fn pmf_sparkline(pmf: &dcl_probnum::Pmf) -> String {
    let max = pmf.mass().iter().copied().fold(0.0f64, f64::max);
    pmf.mass().iter().map(|&p| bar(p, max)).collect()
}

impl fmt::Display for Identification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verdict: {}", self.verdict)?;
        writeln!(
            f,
            "probes: {} ({:.2}% lost), bin width {}",
            self.num_probes,
            self.loss_rate * 100.0,
            self.bin_width
        )?;
        writeln!(
            f,
            "virtual queuing delay PMF [{}] {}",
            (1..=self.pmf.num_symbols())
                .map(|i| format!("{:.2}", self.pmf.prob(i)))
                .collect::<Vec<_>>()
                .join(" "),
            pmf_sparkline(&self.pmf)
        )?;
        writeln!(
            f,
            "SDCL-Test: d* = {} F(2d*) = {:.3} -> {}",
            self.sdcl.d_star.map_or("-".into(), |d| d.to_string()),
            self.sdcl.f_at_2d_star,
            if self.sdcl.accepted {
                "accept"
            } else {
                "reject"
            }
        )?;
        writeln!(
            f,
            "WDCL-Test: d* = {} F(2d*) = {:.3} (threshold {:.3}) -> {}",
            self.wdcl.d_star.map_or("-".into(), |d| d.to_string()),
            self.wdcl.f_at_2d_star,
            self.wdcl.threshold,
            if self.wdcl.accepted {
                "accept"
            } else {
                "reject"
            }
        )?;
        writeln!(
            f,
            "fit: {} ({} start), {} iterations{}, {} guard trips, log-likelihood {:.3}",
            self.provenance.model,
            if self.provenance.warm { "warm" } else { "cold" },
            self.provenance.iterations,
            if self.provenance.converged {
                ""
            } else {
                " (not converged)"
            },
            self.provenance.guard_trips,
            self.provenance.log_likelihood,
        )?;
        match (self.bound_heuristic, self.bound_basic) {
            (Some(h), _) => write!(f, "max queuing delay bound: {h} (heuristic)")?,
            (None, Some(b)) => write!(f, "max queuing delay bound: {b}")?,
            (None, None) => write!(f, "max queuing delay bound: n/a")?,
        }
        let san = &self.sanitation;
        for (count, repair) in [
            (san.out_of_order, "out-of-order records re-sorted"),
            (san.duplicates, "duplicate sequence numbers dropped"),
            (san.corrupt, "corrupt records dropped"),
        ] {
            if count > 0 {
                write!(f, "\nwarning: {count} {repair}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyptest::TestOutcome;
    use crate::identify::{Provenance, Verdict};
    use dcl_netsim::time::Dur;
    use dcl_netsim::trace::TraceSanitation;
    use dcl_probnum::Pmf;

    fn sample() -> Identification {
        Identification {
            verdict: Verdict::StronglyDominant,
            pmf: Pmf::from_mass(vec![0.0, 0.0, 0.1, 0.3, 0.6]),
            sdcl: TestOutcome {
                accepted: true,
                d_star: Some(3),
                f_at_2d_star: 1.0,
                threshold: 0.99,
            },
            wdcl: TestOutcome {
                accepted: true,
                d_star: Some(3),
                f_at_2d_star: 1.0,
                threshold: 0.93,
            },
            num_probes: 15000,
            loss_rate: 0.021,
            bin_width: Dur::from_millis(32.0),
            bound_basic: Some(Dur::from_millis(96.0)),
            bound_heuristic: Some(Dur::from_millis(118.0)),
            sanitation: TraceSanitation::default(),
            provenance: Provenance {
                model: "mmhd",
                warm: false,
                restarts: 6,
                iterations: 42,
                converged: true,
                guard_trips: 0,
                log_likelihood: -1234.5,
                sdcl_margin: 0.01,
                wdcl_margin: 0.07,
                degraded: false,
            },
        }
    }

    #[test]
    fn display_contains_the_essentials() {
        let text = sample().to_string();
        assert!(text.contains("strongly dominant congested link"));
        assert!(text.contains("15000"));
        assert!(text.contains("2.10% lost"));
        assert!(text.contains("SDCL-Test: d* = 3"));
        assert!(text.contains("fit: mmhd (cold start), 42 iterations, 0 guard trips"));
        assert!(text.contains("118.000ms (heuristic)"));
    }

    #[test]
    fn display_handles_missing_bounds() {
        let mut id = sample();
        id.bound_basic = None;
        id.bound_heuristic = None;
        assert!(id.to_string().contains("bound: n/a"));
    }

    #[test]
    fn display_lists_warnings() {
        let mut id = sample();
        assert!(!id.to_string().contains("warning"));
        id.sanitation.out_of_order = 7;
        id.sanitation.corrupt = 2;
        assert!(id.to_string().ends_with(
            "\nwarning: 7 out-of-order records re-sorted\nwarning: 2 corrupt records dropped"
        ));
    }

    #[test]
    fn sparkline_scales_to_the_peak() {
        let s = pmf_sparkline(&Pmf::from_mass(vec![0.0, 0.5, 1.0]));
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[2], '█');
    }
}
