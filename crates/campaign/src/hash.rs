//! Stable 128-bit content identity for campaigns and units.
//!
//! The resumable-journal and result-cache layers both need one primitive:
//! a hash of *what a unit computes* that is stable across processes,
//! compiler versions and struct layouts. Rust's `#[derive(Hash)]` +
//! `DefaultHasher` guarantees none of that, so [`unit_hash`] is a
//! hand-rolled 128-bit FNV-1a over the unit's canonical encoding
//! ([`crate::encode_unit`], the text a coordinator dispatches): its
//! version token and every field that influences the unit's result
//! (job kind, application content, core count, DVS levels, budget,
//! selection policy, seed). One field walk produces both the dispatched
//! text and the hashed bytes, so a worker that decodes a unit recomputes
//! the hash its coordinator sent.
//!
//! Two deliberate exclusions define the identity:
//!
//! * `Unit::index` and `Unit::scenario` are *presentation* — two units
//!   differing only in enumeration position or scenario label compute the
//!   same numbers, so they share a hash (which is exactly what lets
//!   overlapping campaigns share cache entries).
//! * The worker count never enters (results are job-count invariant).
//!
//! [`units_hash`] folds the per-unit hashes in enumeration order into the
//! campaign-level *spec hash* a journal header records: resuming is legal
//! exactly when the stored and recomputed spec hashes agree.

use std::fmt;

use crate::unit::{write_unit, Unit};

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit stable content hash, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// The 32-digit lowercase hex form (what journals and cache file
    /// names store).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-digit hex form.
    ///
    /// # Errors
    ///
    /// Returns `None` for anything that is not exactly 32 hex digits.
    #[must_use]
    pub fn parse_hex(s: &str) -> Option<Self> {
        // Strictly 32 hex digits: from_str_radix alone would also accept
        // a leading `+`.
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental FNV-1a-128 over a canonical byte stream.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Finishes the stream.
    #[must_use]
    pub fn finish(&self) -> ContentHash {
        ContentHash(self.state)
    }
}

/// The stable content hash of one unit: FNV-1a-128 over the version and
/// content tokens of [`crate::encode_unit`], that is everything the unit's
/// result depends on (kind, application, cores, levels, budget,
/// selection, seed) and nothing it doesn't (index, scenario label, worker
/// counts). The hasher absorbs the tokens as the walk formats them; no
/// text is built.
#[must_use]
pub fn unit_hash(unit: &Unit) -> ContentHash {
    let mut h = ContentHasher::new();
    write_unit(&mut h, unit, false);
    h.finish()
}

/// The campaign-level *spec hash*: the fold of every unit's content hash
/// in enumeration order. Two unit lists share a spec hash exactly when
/// they are the same work in the same order — the compatibility rule for
/// resuming a journal.
#[must_use]
pub fn units_hash(units: &[Unit]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write(&(units.len() as u64).to_le_bytes());
    for unit in units {
        h.write(&unit_hash(unit).0.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_campaign;
    use crate::unit::{AppRef, BudgetSpec, UnitKind};
    use sea_opt::SelectionPolicy;
    use sea_taskgraph::{AppSpec, Application, ExecutionMode};
    use std::sync::Arc;

    fn base_unit() -> Unit {
        Unit {
            index: 0,
            scenario: "s".into(),
            kind: UnitKind::Optimize,
            app: AppRef::Spec(AppSpec::Mpeg2),
            cores: 4,
            levels: 3,
            budget: BudgetSpec::Fast,
            selection: SelectionPolicy::default(),
            seed: 0x5EA,
        }
    }

    #[test]
    fn fnv_vector_is_correct() {
        // FNV-1a 128 of the empty string is the offset basis.
        assert_eq!(ContentHasher::new().finish().0, FNV_OFFSET);
        // Known vector: fnv1a-128("a") (offset ^ 'a', then * prime).
        let mut h = ContentHasher::new();
        h.write(b"a");
        assert_eq!(
            h.finish().to_hex(),
            format!(
                "{:032x}",
                (FNV_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV_PRIME)
            )
        );
    }

    #[test]
    fn hex_round_trips() {
        let h = unit_hash(&base_unit());
        assert_eq!(ContentHash::parse_hex(&h.to_hex()), Some(h));
        assert_eq!(h.to_hex().len(), 32);
        assert!(ContentHash::parse_hex("xyz").is_none());
        assert!(ContentHash::parse_hex(&"0".repeat(31)).is_none());
        // 32 chars but not 32 hex digits.
        assert!(ContentHash::parse_hex("+0000000000000000000000000000001f").is_none());
    }

    #[test]
    fn index_and_scenario_do_not_change_the_hash() {
        let a = base_unit();
        let mut b = base_unit();
        b.index = 99;
        b.scenario = "other".into();
        assert_eq!(unit_hash(&a), unit_hash(&b));
    }

    #[test]
    fn every_content_field_changes_the_hash() {
        let base = unit_hash(&base_unit());
        let mutations: Vec<Unit> = vec![
            {
                let mut u = base_unit();
                u.cores = 5;
                u
            },
            {
                let mut u = base_unit();
                u.levels = 2;
                u
            },
            {
                let mut u = base_unit();
                u.budget = BudgetSpec::Smoke;
                u
            },
            {
                let mut u = base_unit();
                u.seed = 0x5EB;
                u
            },
            {
                let mut u = base_unit();
                u.selection = SelectionPolicy::GammaFirst;
                u
            },
            {
                let mut u = base_unit();
                u.app = AppRef::Spec(AppSpec::Fig8);
                u
            },
            {
                let mut u = base_unit();
                u.kind = UnitKind::Sweep {
                    count: 120,
                    scale: 1,
                };
                u
            },
            {
                let mut u = base_unit();
                u.app = AppRef::Scaled {
                    spec: AppSpec::Mpeg2,
                    deadline_scale: 0.4,
                };
                u
            },
            {
                let mut u = base_unit();
                u.app = AppRef::Scaled {
                    spec: AppSpec::Mpeg2,
                    deadline_scale: 0.5,
                };
                u
            },
        ];
        let mut seen = vec![base];
        for m in &mutations {
            let h = unit_hash(m);
            assert!(!seen.contains(&h), "collision for {m:?}");
            seen.push(h);
        }
    }

    #[test]
    fn inline_apps_hash_by_content_not_identity() {
        let a = Arc::new(AppSpec::Mpeg2.build().unwrap());
        let b = Arc::new(AppSpec::Mpeg2.build().unwrap());
        let mut ua = base_unit();
        ua.app = AppRef::Inline(a);
        let mut ub = base_unit();
        ub.app = AppRef::Inline(b);
        assert_eq!(unit_hash(&ua), unit_hash(&ub));
        let c = Arc::new(AppSpec::Fig8.build().unwrap());
        let mut uc = base_unit();
        uc.app = AppRef::Inline(c);
        assert_ne!(unit_hash(&ua), unit_hash(&uc));
        // A batch graph and a one-iteration pipeline of it compute
        // different designs (the initial mapping checks them differently).
        let random = AppSpec::Random { tasks: 40, seed: 7 }.build().unwrap();
        let with_mode = |mode| {
            let app = Application::new(
                random.name(),
                random.graph().clone(),
                random.registers().clone(),
                mode,
                random.deadline_s(),
            )
            .unwrap();
            let mut u = base_unit();
            u.app = AppRef::Inline(Arc::new(app));
            unit_hash(&u)
        };
        assert_ne!(
            with_mode(ExecutionMode::Batch),
            with_mode(ExecutionMode::Pipelined { iterations: 1 })
        );
    }

    #[test]
    fn spec_hash_depends_on_order_and_count() {
        let campaign = parse_campaign(
            "name = \"h\"\n[scenario]\nkind = \"optimize\"\napps = \"mpeg2, fig8\"\ncores = \"4\"\n",
        )
        .unwrap();
        let units = campaign.expand();
        assert_eq!(units.len(), 2);
        let forward = units_hash(&units);
        let mut reversed = units.clone();
        reversed.swap(0, 1);
        // Same content set, different enumeration order: different runs.
        assert_ne!(forward, units_hash(&reversed));
        assert_ne!(forward, units_hash(&units[..1]));
        assert_eq!(forward, units_hash(&campaign.expand()));
    }
}
