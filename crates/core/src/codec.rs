//! Bitwise-exact text serialization of optimization results.
//!
//! The campaign layer's content-addressed result cache stores completed
//! unit results on disk and restores them in later processes; restored
//! results must be *indistinguishable* from freshly computed ones, down
//! to the last float bit, or cached campaigns would stop being
//! byte-identical to uncached ones. This module provides that round trip
//! for the optimizer's result types ([`OptimizationOutcome`],
//! [`DesignPoint`], [`MappingEvaluation`]) with zero dependencies:
//!
//! * floats are encoded as 16-hex-digit IEEE-754 bit patterns (exact by
//!   construction — no shortest-representation or locale concerns),
//! * integers in decimal, coefficient/assignment vectors as comma lists,
//! * everything whitespace-separated, so encoded values compose freely
//!   into larger records (the campaign cache embeds these streams).
//!
//! Decoding rebuilds real [`Mapping`]/`ScalingVector` values against the
//! caller's [`Architecture`], so shape errors (a cache entry written for
//! a different core count) surface as [`CodecError`]s, never as panics.

use std::fmt;
use std::fmt::Write as _;

use sea_arch::{Architecture, CoreId, ScalingVector};
use sea_sched::metrics::{CoreEval, MappingEvaluation};
use sea_sched::Mapping;
use sea_taskgraph::units::Bits;

use crate::driver::{DesignPoint, OptimizationOutcome, ScalingOutcome};

/// A malformed or shape-incompatible encoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Cursor over a whitespace-separated token stream.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    iter: std::str::SplitWhitespace<'a>,
}

impl<'a> Tokens<'a> {
    /// Wraps a token stream.
    #[must_use]
    pub fn new(source: &'a str) -> Self {
        Tokens {
            iter: source.split_whitespace(),
        }
    }

    /// The next raw token.
    ///
    /// # Errors
    ///
    /// Fails at end of input.
    pub fn next_tok(&mut self) -> Result<&'a str, CodecError> {
        self.iter
            .next()
            .ok_or_else(|| err("unexpected end of input"))
    }

    /// Consumes one token and requires it to equal `tag`.
    ///
    /// # Errors
    ///
    /// Fails on mismatch or end of input.
    pub fn expect(&mut self, tag: &str) -> Result<(), CodecError> {
        let t = self.next_tok()?;
        if t == tag {
            Ok(())
        } else {
            Err(err(format!("expected `{tag}`, got `{t}`")))
        }
    }

    /// Parses the next token as a decimal integer.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_u64(&mut self) -> Result<u64, CodecError> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| err(format!("bad integer `{t}`")))
    }

    /// Parses the next token as a `usize`.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_usize(&mut self) -> Result<usize, CodecError> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| err(format!("bad integer `{t}`")))
    }

    /// Parses the next token as a `u32`.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_u32(&mut self) -> Result<u32, CodecError> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| err(format!("bad integer `{t}`")))
    }

    /// Parses the next token as a `u8`.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_u8(&mut self) -> Result<u8, CodecError> {
        let t = self.next_tok()?;
        t.parse().map_err(|_| err(format!("bad integer `{t}`")))
    }

    /// Parses the next token as a `0`/`1` boolean.
    ///
    /// # Errors
    ///
    /// Fails on anything else.
    pub fn next_bool(&mut self) -> Result<bool, CodecError> {
        match self.next_tok()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(err(format!("bad bool `{t}`"))),
        }
    }

    /// Parses the next token as a 16-hex-digit IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_f64(&mut self) -> Result<f64, CodecError> {
        let t = self.next_tok()?;
        if t.len() != 16 {
            return Err(err(format!("bad float bits `{t}`")));
        }
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| err(format!("bad float bits `{t}`")))
    }

    /// Parses the next token as a comma-separated `u8` list.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_csv_u8(&mut self) -> Result<Vec<u8>, CodecError> {
        let t = self.next_tok()?;
        t.split(',')
            .map(|x| x.parse().map_err(|_| err(format!("bad list `{t}`"))))
            .collect()
    }

    /// Parses the next token as a comma-separated `usize` list.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn next_csv_usize(&mut self) -> Result<Vec<usize>, CodecError> {
        let t = self.next_tok()?;
        t.split(',')
            .map(|x| x.parse().map_err(|_| err(format!("bad list `{t}`"))))
            .collect()
    }

    /// Requires the stream to be exhausted.
    ///
    /// # Errors
    ///
    /// Fails if tokens remain.
    pub fn finish(mut self) -> Result<(), CodecError> {
        match self.iter.next() {
            None => Ok(()),
            Some(t) => Err(err(format!("trailing token `{t}`"))),
        }
    }
}

fn sep(out: &mut String) {
    if !out.is_empty() && !out.ends_with([' ', '\n']) {
        out.push(' ');
    }
}

/// Appends one raw token (must contain no whitespace).
pub fn push_tok(out: &mut String, tok: &str) {
    debug_assert!(!tok.contains(char::is_whitespace), "token `{tok}`");
    sep(out);
    out.push_str(tok);
}

/// Appends a decimal integer token.
pub fn push_u64(out: &mut String, v: u64) {
    sep(out);
    let _ = write!(out, "{v}");
}

/// Appends an exact float token (IEEE-754 bits as 16 hex digits).
pub fn push_f64(out: &mut String, v: f64) {
    sep(out);
    let _ = write!(out, "{:016x}", v.to_bits());
}

/// Appends a `0`/`1` boolean token.
pub fn push_bool(out: &mut String, v: bool) {
    push_u64(out, u64::from(v));
}

/// Appends a comma-list token from integer-like items.
pub fn push_csv<I: IntoIterator<Item = u64>>(out: &mut String, items: I) {
    sep(out);
    let mut first = true;
    for v in items {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{v}");
    }
}

/// Encodes a mapping as the per-task core-index comma list.
pub fn push_mapping(out: &mut String, mapping: &Mapping) {
    push_csv(
        out,
        (0..mapping.n_tasks())
            .map(|t| mapping.core_of(sea_taskgraph::TaskId::new(t)).index() as u64),
    );
}

/// Decodes a mapping against `n_cores`.
///
/// # Errors
///
/// Fails on malformed lists or assignments outside `0..n_cores`.
pub fn decode_mapping(t: &mut Tokens<'_>, n_cores: usize) -> Result<Mapping, CodecError> {
    let assign = t.next_csv_usize()?;
    Mapping::try_new(assign.into_iter().map(CoreId::new).collect(), n_cores)
        .map_err(|e| err(format!("bad mapping: {e}")))
}

/// Decodes a scaling vector against `arch`.
///
/// # Errors
///
/// Fails on malformed lists or coefficients outside the level set.
pub fn decode_scaling(
    t: &mut Tokens<'_>,
    arch: &Architecture,
) -> Result<ScalingVector, CodecError> {
    let coeffs = t.next_csv_u8()?;
    ScalingVector::try_new(coeffs, arch).map_err(|e| err(format!("bad scaling: {e}")))
}

/// Encodes a full [`MappingEvaluation`] including the per-core breakdown.
pub fn encode_evaluation(out: &mut String, e: &MappingEvaluation) {
    push_f64(out, e.tm_seconds);
    push_f64(out, e.tm_nominal_cycles);
    push_bool(out, e.meets_deadline);
    push_f64(out, e.power_mw);
    push_f64(out, e.gamma);
    push_u64(out, e.r_total.as_u64());
    push_u64(out, e.per_core.len() as u64);
    for c in &e.per_core {
        push_u64(out, c.core.index() as u64);
        push_u64(out, u64::from(c.coefficient));
        push_f64(out, c.f_hz);
        push_f64(out, c.vdd);
        push_f64(out, c.busy_s);
        push_f64(out, c.alpha);
        push_u64(out, c.r_bits.as_u64());
        push_f64(out, c.exposure_cycles);
        push_f64(out, c.lambda);
        push_f64(out, c.gamma);
    }
}

/// Decodes a [`MappingEvaluation`].
///
/// # Errors
///
/// Fails on malformed input.
pub fn decode_evaluation(t: &mut Tokens<'_>) -> Result<MappingEvaluation, CodecError> {
    let tm_seconds = t.next_f64()?;
    let tm_nominal_cycles = t.next_f64()?;
    let meets_deadline = t.next_bool()?;
    let power_mw = t.next_f64()?;
    let gamma = t.next_f64()?;
    let r_total = Bits::new(t.next_u64()?);
    // Counts are input, not a size to reserve: vectors grow as items
    // decode, so a forged count ends at the input's end, not in `alloc`.
    let n = t.next_usize()?;
    let per_core = (0..n)
        .map(|_| {
            Ok(CoreEval {
                core: CoreId::new(t.next_usize()?),
                coefficient: t.next_u8()?,
                f_hz: t.next_f64()?,
                vdd: t.next_f64()?,
                busy_s: t.next_f64()?,
                alpha: t.next_f64()?,
                r_bits: Bits::new(t.next_u64()?),
                exposure_cycles: t.next_f64()?,
                lambda: t.next_f64()?,
                gamma: t.next_f64()?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(MappingEvaluation {
        tm_seconds,
        tm_nominal_cycles,
        meets_deadline,
        power_mw,
        gamma,
        r_total,
        per_core,
    })
}

/// Encodes a [`DesignPoint`] (scaling, mapping, evaluation).
pub fn encode_design(out: &mut String, d: &DesignPoint) {
    push_csv(out, d.scaling.coefficients().iter().map(|&c| u64::from(c)));
    push_mapping(out, &d.mapping);
    encode_evaluation(out, &d.evaluation);
}

/// Decodes a [`DesignPoint`] against `arch`.
///
/// # Errors
///
/// Fails on malformed input or shape mismatches with `arch`.
pub fn decode_design(t: &mut Tokens<'_>, arch: &Architecture) -> Result<DesignPoint, CodecError> {
    let scaling = decode_scaling(t, arch)?;
    let mapping = decode_mapping(t, arch.n_cores())?;
    let evaluation = decode_evaluation(t)?;
    Ok(DesignPoint {
        scaling,
        mapping,
        evaluation,
    })
}

/// Encodes a full [`OptimizationOutcome`] — winning design, the complete
/// explored-scalings record (Figs. 9/10 consume `at_scaling`), and the
/// evaluation totals.
#[must_use]
pub fn encode_outcome(out: &OptimizationOutcome) -> String {
    let mut s = String::with_capacity(1024);
    push_tok(&mut s, "outcome");
    push_u64(&mut s, out.total_evaluations as u64);
    push_u64(&mut s, out.explored.len() as u64);
    encode_design(&mut s, &out.best);
    for x in &out.explored {
        s.push('\n');
        push_csv(
            &mut s,
            x.scaling.coefficients().iter().map(|&c| u64::from(c)),
        );
        push_bool(&mut s, x.feasible);
        push_u64(&mut s, x.evaluations as u64);
        match &x.best {
            Some(d) => {
                push_tok(&mut s, "D");
                encode_design(&mut s, d);
            }
            None => push_tok(&mut s, "-"),
        }
    }
    s
}

/// Decodes an [`OptimizationOutcome`] against `arch`.
///
/// # Errors
///
/// Fails on malformed input or shape mismatches with `arch`.
pub fn decode_outcome(
    source: &str,
    arch: &Architecture,
) -> Result<OptimizationOutcome, CodecError> {
    let mut t = Tokens::new(source);
    t.expect("outcome")?;
    let total_evaluations = t.next_usize()?;
    let n_explored = t.next_usize()?;
    let best = decode_design(&mut t, arch)?;
    let explored = (0..n_explored)
        .map(|_| {
            let scaling = decode_scaling(&mut t, arch)?;
            let feasible = t.next_bool()?;
            let evaluations = t.next_usize()?;
            let best = match t.next_tok()? {
                "D" => Some(decode_design(&mut t, arch)?),
                "-" => None,
                other => return Err(err(format!("expected `D` or `-`, got `{other}`"))),
            };
            Ok(ScalingOutcome {
                scaling,
                best,
                feasible,
                evaluations,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    t.finish()?;
    Ok(OptimizationOutcome {
        best,
        explored,
        total_evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DesignOptimizer, OptimizerConfig};
    use sea_taskgraph::fig8;

    fn assert_designs_equal(a: &DesignPoint, b: &DesignPoint, what: &str) {
        assert_eq!(a.scaling, b.scaling, "{what}: scaling");
        assert_eq!(a.mapping, b.mapping, "{what}: mapping");
        assert_eq!(a.evaluation, b.evaluation, "{what}: evaluation");
    }

    #[test]
    fn outcome_round_trips_bitwise() {
        let config = OptimizerConfig::fast(3);
        let arch = config.arch.clone();
        let out = DesignOptimizer::new(config)
            .optimize(&fig8::application())
            .expect("fig8 is feasible");
        let encoded = encode_outcome(&out);
        let back = decode_outcome(&encoded, &arch).expect("round trip");
        assert_designs_equal(&out.best, &back.best, "best");
        assert_eq!(out.total_evaluations, back.total_evaluations);
        assert_eq!(out.explored.len(), back.explored.len());
        for (i, (x, y)) in out.explored.iter().zip(&back.explored).enumerate() {
            assert_eq!(x.scaling, y.scaling, "explored[{i}]");
            assert_eq!(x.feasible, y.feasible, "explored[{i}]");
            assert_eq!(x.evaluations, y.evaluations, "explored[{i}]");
            match (&x.best, &y.best) {
                (Some(a), Some(b)) => assert_designs_equal(a, b, &format!("explored[{i}]")),
                (None, None) => {}
                _ => panic!("explored[{i}]: best presence differs"),
            }
        }
        // And the re-encoding is byte-identical (stable golden form).
        assert_eq!(encoded, encode_outcome(&back));
    }

    #[test]
    fn floats_survive_exactly_including_edge_values() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            6.626e-34,
            -1.25e300,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let got = Tokens::new(&s).next_f64().unwrap();
            assert_eq!(v.to_bits(), got.to_bits(), "{v}");
        }
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let arch = OptimizerConfig::fast(3).arch;
        for bad in [
            "",
            "outcome",
            "outcome 5",
            "outcome 5 0 9,9,9 0,0 deadbeef",
            "wrong 1 0",
        ] {
            assert!(decode_outcome(bad, &arch).is_err(), "`{bad}`");
        }
        // Trailing garbage is rejected.
        let out = DesignOptimizer::new(OptimizerConfig::fast(3))
            .optimize(&fig8::application())
            .unwrap();
        let mut enc = encode_outcome(&out);
        enc.push_str(" extra");
        assert!(decode_outcome(&enc, &arch).is_err());

        // Forged counts end at the input's end instead of sizing an
        // allocation: `usize::MAX` used to panic with a capacity
        // overflow, 4·10¹² to abort the process.
        let enc = encode_outcome(&out);
        let forge = |source: &str, token: usize, count: &str| -> String {
            let mut tokens: Vec<&str> = source.split(' ').collect();
            tokens[token] = count;
            tokens.join(" ")
        };
        let mut evaluation = String::new();
        encode_evaluation(&mut evaluation, &out.best.evaluation);
        let per_core = out.best.evaluation.per_core.len().to_string();
        assert_eq!(forge(&enc, 2, &out.explored.len().to_string()), enc);
        assert_eq!(forge(&enc, 11, &per_core), enc);
        assert_eq!(forge(&evaluation, 6, &per_core), evaluation);
        for count in ["18446744073709551615", "4000000000000"] {
            // `outcome <evaluations> <explored> ...`: the explored count.
            let explored = forge(&enc, 2, count);
            assert!(
                decode_outcome(&explored, &arch).is_err(),
                "explored {count}"
            );
            // The best design's evaluation: scaling, mapping, then five
            // values and the register total before its per-core count.
            let per_core = forge(&enc, 11, count);
            assert!(
                decode_outcome(&per_core, &arch).is_err(),
                "per-core {count}"
            );
            let alone = forge(&evaluation, 6, count);
            assert!(
                decode_evaluation(&mut Tokens::new(&alone)).is_err(),
                "evaluation {count}"
            );
        }
    }

    #[test]
    fn mapping_and_scaling_decode_validate_shape() {
        let arch = OptimizerConfig::fast(3).arch;
        // 9 is not a coefficient of the 3-level set.
        let mut t = Tokens::new("9,1,1");
        assert!(decode_scaling(&mut t, &arch).is_err());
        // Core index 7 does not exist on a 3-core architecture.
        let mut t = Tokens::new("0,1,7");
        assert!(decode_mapping(&mut t, 3).is_err());
    }
}
