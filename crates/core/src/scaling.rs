//! Voltage-scaling enumeration — the paper's `nextScaling` algorithm
//! (Fig. 5(a)) and the combination table of Fig. 5(b).
//!
//! The enumeration walks all *non-increasing* coefficient vectors
//! `(s_1 ≥ s_2 ≥ … ≥ s_C)` from the all-lowest-voltage combination
//! `(L, …, L)` down to nominal `(1, …, 1)`. Since the cores are identical,
//! permutations of a vector are equivalent designs; restricting to sorted
//! vectors is what makes the combinations "non-repetitive" — for C = 4
//! cores and L = 3 levels this yields the 15 rows of Fig. 5(b) instead of
//! 3⁴ = 81 raw combinations (multiset count `C(L+C−1, C)`).
//!
//! The successor rule (derived from the Fig. 5(b) table; the printed
//! pseudocode's reset uses `prevS[k]+1`, which only coincides with the
//! table when decrementing from the level directly above — the table is
//! authoritative): find the *rightmost* coefficient greater than 1; all
//! entries to its right are 1 by construction; decrement it and reset every
//! entry to its right to the decremented value.

use sea_arch::Architecture;

/// Iterator over the paper's non-repetitive voltage-scaling combinations.
///
/// ```
/// use sea_opt::scaling::ScalingIter;
///
/// // C = 2 cores, L = 2 levels: (2,2), (2,1), (1,1).
/// let combos: Vec<Vec<u8>> = ScalingIter::new(2, 2).collect();
/// assert_eq!(combos, vec![vec![2, 2], vec![2, 1], vec![1, 1]]);
/// ```
#[derive(Debug, Clone)]
pub struct ScalingIter {
    current: Option<Vec<u8>>,
}

impl ScalingIter {
    /// Starts the enumeration for `cores` cores and `levels` scaling levels.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `levels` is zero, or `levels > u8::MAX`.
    #[must_use]
    pub fn new(cores: usize, levels: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(levels > 0, "need at least one level");
        let l = u8::try_from(levels).expect("level counts are tiny");
        ScalingIter {
            current: Some(vec![l; cores]),
        }
    }

    /// Starts the enumeration matching an architecture's shape.
    #[must_use]
    pub fn for_architecture(arch: &Architecture) -> Self {
        ScalingIter::new(arch.n_cores(), arch.levels().len())
    }

    /// Total number of combinations the enumeration will yield:
    /// `C(levels + cores − 1, cores)`.
    #[must_use]
    pub fn count_combinations(cores: usize, levels: usize) -> u64 {
        // Multisets of size `cores` from `levels` symbols.
        let n = (levels + cores - 1) as u64;
        let k = cores as u64;
        let mut num = 1u64;
        let mut den = 1u64;
        for i in 0..k {
            num *= n - i;
            den *= i + 1;
        }
        num / den
    }
}

impl Iterator for ScalingIter {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        let out = self.current.clone()?;
        // Successor: rightmost coefficient > 1 decrements; everything to
        // its right resets to the decremented value.
        let next = {
            let mut v = out.clone();
            match v.iter().rposition(|&s| s > 1) {
                None => None, // (1, …, 1) was the last combination
                Some(p) => {
                    let nv = v[p] - 1;
                    for slot in v.iter_mut().skip(p) {
                        *slot = nv;
                    }
                    Some(v)
                }
            }
        };
        self.current = next;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::LevelSet;

    /// The 15 rows of Fig. 5(b), verbatim (columns s1..s4).
    const FIG5B: [[u8; 4]; 15] = [
        [3, 3, 3, 3],
        [3, 3, 3, 2],
        [3, 3, 3, 1],
        [3, 3, 2, 2],
        [3, 3, 2, 1],
        [3, 3, 1, 1],
        [3, 2, 2, 2],
        [3, 2, 2, 1],
        [3, 2, 1, 1],
        [3, 1, 1, 1],
        [2, 2, 2, 2],
        [2, 2, 2, 1],
        [2, 2, 1, 1],
        [2, 1, 1, 1],
        [1, 1, 1, 1],
    ];

    #[test]
    fn fig5b_table_reproduced_exactly() {
        let combos: Vec<Vec<u8>> = ScalingIter::new(4, 3).collect();
        assert_eq!(combos.len(), 15);
        for (got, want) in combos.iter().zip(FIG5B.iter()) {
            assert_eq!(got.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn combination_count_formula() {
        assert_eq!(ScalingIter::count_combinations(4, 3), 15);
        assert_eq!(ScalingIter::count_combinations(2, 2), 3);
        assert_eq!(ScalingIter::count_combinations(6, 3), 28);
        assert_eq!(ScalingIter::count_combinations(1, 5), 5);
        for (c, l) in [(2, 2), (3, 3), (5, 2), (6, 4)] {
            let n = ScalingIter::new(c, l).count() as u64;
            assert_eq!(n, ScalingIter::count_combinations(c, l), "C={c} L={l}");
        }
    }

    #[test]
    fn all_vectors_non_increasing_and_unique() {
        let combos: Vec<Vec<u8>> = ScalingIter::new(5, 4).collect();
        for v in &combos {
            for w in v.windows(2) {
                assert!(w[0] >= w[1], "non-increasing: {v:?}");
            }
        }
        let mut dedup = combos.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), combos.len(), "no repeats");
    }

    #[test]
    fn starts_lowest_voltage_ends_nominal() {
        let combos: Vec<Vec<u8>> = ScalingIter::new(3, 3).collect();
        assert_eq!(combos.first().unwrap(), &vec![3, 3, 3]);
        assert_eq!(combos.last().unwrap(), &vec![1, 1, 1]);
    }

    #[test]
    fn single_level_yields_single_combination() {
        let combos: Vec<Vec<u8>> = ScalingIter::new(4, 1).collect();
        assert_eq!(combos, vec![vec![1, 1, 1, 1]]);
    }

    #[test]
    fn for_architecture_matches_shape() {
        let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
        let combos: Vec<Vec<u8>> = ScalingIter::for_architecture(&arch).collect();
        assert_eq!(combos.len(), 15);
    }
}
