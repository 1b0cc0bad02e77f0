//! Textual application specifications shared by every front end.
//!
//! An [`AppSpec`] names a workload without materializing it:
//!
//! * `mpeg2` — the MPEG-2 decoder of Fig. 2,
//! * `fig8` — the Fig. 8 tutorial graph,
//! * `random:<tasks>[:<seed>]` — a §V random workload of 1 to
//!   [`MAX_RANDOM_TASKS`] tasks (seed defaults to [`DEFAULT_RANDOM_SEED`]).
//!
//! The grammar lives here — not in any one binary — so the `sea-dse` CLI
//! and the `sea-campaign` spec parser accept exactly the same strings.
//! [`FromStr`] and [`std::fmt::Display`] round-trip: parsing a displayed
//! spec yields the original value.

use std::fmt;
use std::str::FromStr;

use crate::generator::RandomGraphConfig;
use crate::{fig8, mpeg2, Application};

/// Generator seed used when a `random:<tasks>` spec omits one.
pub const DEFAULT_RANDOM_SEED: u64 = 7;

/// The largest task count a random workload may ask for: 100 times the
/// largest graph any builtin, example or experiment uses. The generator's
/// time grows with the square of the task count, and a daemon builds a
/// submitted campaign's applications on its event loop, so a much larger
/// count would stall every campaign.
pub const MAX_RANDOM_TASKS: usize = 10_000;

/// Checks a random workload's task count against `1..=`[`MAX_RANDOM_TASKS`].
///
/// # Errors
///
/// Returns [`SpecError`] naming the count when it is out of range.
pub fn check_random_tasks(tasks: usize) -> Result<usize, SpecError> {
    if (1..=MAX_RANDOM_TASKS).contains(&tasks) {
        Ok(tasks)
    } else {
        Err(SpecError(format!(
            "a random workload needs 1 to {MAX_RANDOM_TASKS} tasks, got {tasks}"
        )))
    }
}

/// A parsed application selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppSpec {
    /// The MPEG-2 decoder of Fig. 2.
    Mpeg2,
    /// The Fig. 8 tutorial graph.
    Fig8,
    /// A §V random workload.
    Random {
        /// Task count.
        tasks: usize,
        /// Generator seed.
        seed: u64,
    },
}

/// A malformed or unsatisfiable application spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl AppSpec {
    /// Materializes the application.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the random generator rejects the
    /// parameters.
    pub fn build(self) -> Result<Application, SpecError> {
        match self {
            AppSpec::Mpeg2 => Ok(mpeg2::application()),
            AppSpec::Fig8 => Ok(fig8::application()),
            AppSpec::Random { tasks, seed } => RandomGraphConfig::paper(tasks)
                .generate(seed)
                .map_err(|e| SpecError(format!("cannot generate workload: {e}"))),
        }
    }
}

impl fmt::Display for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppSpec::Mpeg2 => write!(f, "mpeg2"),
            AppSpec::Fig8 => write!(f, "fig8"),
            AppSpec::Random { tasks, seed } => write!(f, "random:{tasks}:{seed}"),
        }
    }
}

impl FromStr for AppSpec {
    type Err = SpecError;

    fn from_str(spec: &str) -> Result<Self, SpecError> {
        match spec {
            "mpeg2" => Ok(AppSpec::Mpeg2),
            "fig8" => Ok(AppSpec::Fig8),
            other => {
                let mut parts = other.split(':');
                if parts.next() != Some("random") {
                    return Err(SpecError(format!(
                        "unknown app spec `{other}` (mpeg2 | fig8 | random:<tasks>[:<seed>])"
                    )));
                }
                let tasks = parts
                    .next()
                    .ok_or_else(|| SpecError("random spec needs a task count".into()))?;
                let tasks: usize = tasks
                    .parse()
                    .map_err(|_| SpecError(format!("cannot parse task count from `{tasks}`")))?;
                let tasks = check_random_tasks(tasks)?;
                let seed = match parts.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| SpecError(format!("cannot parse seed from `{s}`")))?,
                    None => DEFAULT_RANDOM_SEED,
                };
                if parts.next().is_some() {
                    return Err(SpecError("too many `:` fields in random spec".into()));
                }
                Ok(AppSpec::Random { tasks, seed })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_presets_and_random_forms() {
        assert_eq!("mpeg2".parse(), Ok(AppSpec::Mpeg2));
        assert_eq!("fig8".parse(), Ok(AppSpec::Fig8));
        assert_eq!(
            "random:40".parse(),
            Ok(AppSpec::Random {
                tasks: 40,
                seed: DEFAULT_RANDOM_SEED
            })
        );
        assert_eq!(
            "random:60:11".parse(),
            Ok(AppSpec::Random {
                tasks: 60,
                seed: 11
            })
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!("random".parse::<AppSpec>().is_err());
        assert!("random:x".parse::<AppSpec>().is_err());
        assert!("random:10:1:2".parse::<AppSpec>().is_err());
        assert!("random:0".parse::<AppSpec>().is_err());
        assert!("random:10001".parse::<AppSpec>().is_err());
        assert!("random:1000000:3".parse::<AppSpec>().is_err());
        assert!("random:1".parse::<AppSpec>().is_ok());
        assert!("random:10000".parse::<AppSpec>().is_ok());
        assert!("h264".parse::<AppSpec>().is_err());
        assert!("".parse::<AppSpec>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for spec in [
            AppSpec::Mpeg2,
            AppSpec::Fig8,
            AppSpec::Random { tasks: 40, seed: 7 },
            AppSpec::Random {
                tasks: 100,
                seed: 0,
            },
        ] {
            let shown = spec.to_string();
            assert_eq!(shown.parse::<AppSpec>(), Ok(spec), "round trip `{shown}`");
        }
        // Parsing normalizes the implicit seed, then round-trips stably.
        let implicit: AppSpec = "random:40".parse().unwrap();
        assert_eq!(implicit.to_string(), "random:40:7");
    }

    #[test]
    fn specs_build_the_right_applications() {
        assert_eq!(AppSpec::Mpeg2.build().unwrap().graph().len(), 11);
        assert_eq!(AppSpec::Fig8.build().unwrap().graph().len(), 6);
        assert_eq!(
            AppSpec::Random { tasks: 15, seed: 3 }
                .build()
                .unwrap()
                .graph()
                .len(),
            15
        );
    }
}
