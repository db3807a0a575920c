//! The observation alphabet shared by the HMM and MMHD estimators.
//!
//! Each periodic probe yields either a discretised delay symbol in `1..=M`
//! or a loss — which the paper's key insight interprets as *a delay with a
//! missing value* (§V).

use serde::{Deserialize, Serialize};
use std::fmt;

/// One probe observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Obs {
    /// Discretised delay symbol, `1..=M`.
    Sym(u16),
    /// The probe was lost: its delay symbol is unobserved.
    Loss,
}

impl Obs {
    /// Is this a loss?
    pub fn is_loss(self) -> bool {
        matches!(self, Obs::Loss)
    }

    /// The delay symbol, if observed.
    pub fn symbol(self) -> Option<usize> {
        match self {
            Obs::Sym(s) => Some(s as usize),
            Obs::Loss => None,
        }
    }
}

/// Why an observation sequence is unusable as model input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObsError {
    /// The sequence contains no observations at all.
    Empty,
    /// An observed symbol lies outside the alphabet `1..=alphabet`.
    SymbolOutOfRange {
        /// Index of the first offending observation.
        index: usize,
        /// The offending symbol.
        symbol: u16,
        /// The alphabet size `M` it was validated against.
        alphabet: usize,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Empty => write!(f, "observation sequence is empty"),
            ObsError::SymbolOutOfRange {
                index,
                symbol,
                alphabet,
            } => write!(
                f,
                "observation {index} has symbol {symbol} outside 1..={alphabet}"
            ),
        }
    }
}

impl std::error::Error for ObsError {}

/// Why an EM fit could not produce a trustworthy model. Shared by the
/// HMM and MMHD fitters so downstream consumers (`dcl-core`'s estimators
/// and `identify`) handle both uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitError {
    /// The observation sequence was rejected before EM started.
    InvalidSequence(ObsError),
    /// Every restart (including its guarded retries) tripped a numerical
    /// guard — non-finite likelihood, likelihood decrease, or degenerate
    /// parameters — so no fit can be trusted.
    AllRestartsTripped {
        /// Restarts attempted.
        restarts: usize,
        /// Total guard trips across all restarts and retries, and a
        /// tripped warm seed's.
        guard_trips: usize,
    },
    /// The fitted model's loss-delay posterior is degenerate (non-finite
    /// or empty mass), so no distribution can be reported.
    DegeneratePosterior,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::InvalidSequence(e) => write!(f, "invalid observation sequence: {e}"),
            FitError::AllRestartsTripped {
                restarts,
                guard_trips,
            } => write!(
                f,
                "all {restarts} EM restarts tripped numerical guards ({guard_trips} trips)"
            ),
            FitError::DegeneratePosterior => {
                write!(f, "fitted model has a degenerate loss-delay posterior")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Validate an observation sequence against an alphabet of `m` symbols:
/// every observed symbol must lie in `1..=m`. Returns the number of losses.
///
/// # Errors
///
/// Returns a typed [`ObsError`] identifying the first offending element
/// (or [`ObsError::Empty`] for an empty sequence).
pub fn validate_sequence(obs: &[Obs], m: usize) -> Result<usize, ObsError> {
    if obs.is_empty() {
        return Err(ObsError::Empty);
    }
    let mut losses = 0;
    for (i, &o) in obs.iter().enumerate() {
        match o {
            Obs::Loss => losses += 1,
            Obs::Sym(s) => {
                if s == 0 || s as usize > m {
                    return Err(ObsError::SymbolOutOfRange {
                        index: i,
                        symbol: s,
                        alphabet: m,
                    });
                }
            }
        }
    }
    Ok(losses)
}

/// Zero the loss probability of symbols never observed delivered, so loss
/// mass cannot drift into "phantom" symbols that no delivered observation
/// constrains (a degenerate optimum on bimodal traces). Under the paper's
/// droptail model a lost probe's delay always coincides with delays of
/// (nearly-dropped) delivered probes, so the restriction is faithful.
///
/// `c` is a per-state loss vector whose entry `x` belongs to symbol
/// `x % num_symbols + 1`: one entry per symbol for the HMM, `N*M` for the
/// MMHD, where every hidden component of an unobserved symbol is zeroed.
/// Every EM trajectory starts from a model restricted this way, and EM
/// preserves exact zeros in `c`. No-op when nothing was observed (all-loss
/// sequences are rejected upstream anyway).
pub fn apply_loss_restriction(c: &mut [f64], num_symbols: usize, obs: &[Obs]) {
    let mut observed = vec![false; num_symbols];
    for o in obs {
        if let Some(s) = o.symbol() {
            observed[s - 1] = true;
        }
    }
    if observed.iter().any(|&b| b) {
        for (x, cm) in c.iter_mut().enumerate() {
            if !observed[x % num_symbols] {
                *cm = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_accessors() {
        assert!(Obs::Loss.is_loss());
        assert!(!Obs::Sym(3).is_loss());
        assert_eq!(Obs::Sym(3).symbol(), Some(3));
        assert_eq!(Obs::Loss.symbol(), None);
    }

    #[test]
    fn validate_counts_losses() {
        let seq = [Obs::Sym(1), Obs::Loss, Obs::Sym(5), Obs::Loss];
        assert_eq!(validate_sequence(&seq, 5), Ok(2));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert!(validate_sequence(&[Obs::Sym(0)], 5).is_err());
        assert!(validate_sequence(&[Obs::Sym(6)], 5).is_err());
        assert!(validate_sequence(&[Obs::Sym(5)], 5).is_ok());
    }
}
