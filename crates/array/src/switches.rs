//! The switch fabric between adjacent modules (Fig. 4 of the paper).
//!
//! Between every pair of adjacent modules sit three switches: a series switch
//! `S_S,i` and two parallel switches `S_PT,i` (top) and `S_PB,i` (bottom).
//! Exactly one *link type* is active per pair: closing the series switch puts
//! the modules in different series-connected groups; closing both parallel
//! switches merges them into the same parallel group.

use crate::configuration::Configuration;

/// The electrical link realised between one pair of adjacent modules.
///
/// # Examples
///
/// ```
/// use teg_array::PairLink;
///
/// assert_eq!(PairLink::Series.closed_switches(), 1);
/// assert_eq!(PairLink::Parallel.closed_switches(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairLink {
    /// The series switch is closed; the pair straddles a group boundary.
    Series,
    /// Both parallel switches are closed; the pair shares a group.
    Parallel,
}

impl PairLink {
    /// Number of physical switches held closed for this link type (1 series
    /// switch, or 2 parallel switches).
    #[must_use]
    pub const fn closed_switches(self) -> usize {
        match self {
            Self::Series => 1,
            Self::Parallel => 2,
        }
    }

    /// Number of switch actuations needed to change this link into `other`
    /// (opening the currently closed switches and closing the new ones).
    #[must_use]
    pub const fn toggles_to(self, other: Self) -> usize {
        match (self, other) {
            (Self::Series, Self::Series) | (Self::Parallel, Self::Parallel) => 0,
            // Series → parallel: open S_S (1) and close S_PT + S_PB (2).
            (Self::Series, Self::Parallel) => 3,
            // Parallel → series: open S_PT + S_PB (2) and close S_S (1).
            (Self::Parallel, Self::Series) => 3,
        }
    }
}

/// The complete switch state of an `N`-module array: one [`PairLink`] per
/// adjacent pair (`N − 1` entries).
///
/// # Examples
///
/// ```
/// use teg_array::{Configuration, SwitchBank, PairLink};
///
/// # fn main() -> Result<(), teg_array::ArrayError> {
/// let config = Configuration::new(vec![0, 2], 4)?;
/// let bank = config.switch_bank();
/// assert_eq!(bank.links(), &[PairLink::Parallel, PairLink::Series, PairLink::Parallel]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwitchBank {
    links: Vec<PairLink>,
}

impl SwitchBank {
    /// Derives the switch states realising a configuration: adjacent modules
    /// inside the same group are linked in parallel, adjacent modules in
    /// different groups are linked in series.
    #[must_use]
    pub fn from_configuration(config: &Configuration) -> Self {
        let n = config.module_count();
        let links = (0..n.saturating_sub(1))
            .map(|i| {
                if config.group_of(i) == config.group_of(i + 1) {
                    PairLink::Parallel
                } else {
                    PairLink::Series
                }
            })
            .collect();
        Self { links }
    }

    /// The per-pair link states, entrance side first.
    #[must_use]
    pub fn links(&self) -> &[PairLink] {
        &self.links
    }

    /// Number of adjacent pairs (always `module_count − 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` for a single-module array (no switches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Total number of physical switches currently held closed.
    #[must_use]
    pub fn closed_switch_count(&self) -> usize {
        self.links.iter().map(|l| l.closed_switches()).sum()
    }

    /// Number of switch actuations (opens plus closes) required to move to
    /// another bank.  Banks of different length are incomparable and cost
    /// `usize::MAX` (callers validate sizes before asking).
    #[must_use]
    pub fn toggles_to(&self, other: &Self) -> usize {
        if self.links.len() != other.links.len() {
            return usize::MAX;
        }
        self.links
            .iter()
            .zip(other.links.iter())
            .map(|(a, b)| a.toggles_to(*b))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configuration::Configuration;
    use proptest::prelude::*;

    #[test]
    fn link_toggle_costs() {
        assert_eq!(PairLink::Series.toggles_to(PairLink::Series), 0);
        assert_eq!(PairLink::Parallel.toggles_to(PairLink::Parallel), 0);
        assert_eq!(PairLink::Series.toggles_to(PairLink::Parallel), 3);
        assert_eq!(PairLink::Parallel.toggles_to(PairLink::Series), 3);
    }

    #[test]
    fn bank_from_uniform_configuration() {
        let config = Configuration::uniform(6, 3).unwrap();
        let bank = config.switch_bank();
        assert_eq!(
            bank.links(),
            &[
                PairLink::Parallel,
                PairLink::Series,
                PairLink::Parallel,
                PairLink::Series,
                PairLink::Parallel,
            ]
        );
        assert_eq!(bank.len(), 5);
        assert!(!bank.is_empty());
    }

    #[test]
    fn series_chain_has_all_series_links() {
        let config = Configuration::all_series(5).unwrap();
        let bank = config.switch_bank();
        assert!(bank.links().iter().all(|&l| l == PairLink::Series));
        assert_eq!(bank.closed_switch_count(), 4);
    }

    #[test]
    fn parallel_bank_has_all_parallel_links() {
        let config = Configuration::all_parallel(5).unwrap();
        let bank = config.switch_bank();
        assert!(bank.links().iter().all(|&l| l == PairLink::Parallel));
        assert_eq!(bank.closed_switch_count(), 8);
    }

    #[test]
    fn single_module_has_no_switches() {
        let config = Configuration::all_parallel(1).unwrap();
        let bank = config.switch_bank();
        assert!(bank.is_empty());
        assert_eq!(bank.closed_switch_count(), 0);
    }

    #[test]
    fn single_module_arrays_never_toggle() {
        let a = Configuration::all_series(1).unwrap();
        let b = Configuration::all_parallel(1).unwrap();
        assert_eq!(a.switch_toggles_to(&b).unwrap(), 0);
        assert_eq!(a.switch_bank().toggles_to(&b.switch_bank()), 0);
    }

    #[test]
    fn identical_configurations_need_no_toggles() {
        let a = Configuration::uniform(20, 4).unwrap();
        assert_eq!(a.switch_toggles_to(&a).unwrap(), 0);
    }

    #[test]
    fn toggles_count_changed_boundaries() {
        // 6 modules: 3+3 vs 2+4 differ at pairs (1,2) and (2,3): two link
        // flips of 3 actuations each.
        let a = Configuration::new(vec![0, 3], 6).unwrap();
        let b = Configuration::new(vec![0, 2], 6).unwrap();
        assert_eq!(a.switch_toggles_to(&b).unwrap(), 6);
    }

    #[test]
    fn mismatched_banks_are_incomparable() {
        let a = Configuration::uniform(5, 2).unwrap().switch_bank();
        let b = Configuration::uniform(6, 2).unwrap().switch_bank();
        assert_eq!(a.toggles_to(&b), usize::MAX);
    }

    proptest! {
        /// Toggle counting is symmetric and zero exactly on identical banks.
        #[test]
        fn prop_toggles_symmetric(modules in 2usize..60, ga in 1usize..20, gb in 1usize..20) {
            prop_assume!(ga <= modules && gb <= modules);
            let a = Configuration::uniform(modules, ga).unwrap();
            let b = Configuration::uniform(modules, gb).unwrap();
            let ab = a.switch_toggles_to(&b).unwrap();
            let ba = b.switch_toggles_to(&a).unwrap();
            prop_assert_eq!(ab, ba);
            if ga == gb {
                prop_assert_eq!(ab, 0);
            }
        }

        /// The `O(groups)` merge count of `Configuration::switch_toggles_to`
        /// equals the reference comparison of the two full switch banks, for
        /// arbitrary partitions (every pair boundary drawn from a mask),
        /// single-module arrays included, and identical configurations cost
        /// nothing.
        #[test]
        fn prop_merge_toggle_count_matches_switch_banks(
            modules in 1usize..80,
            mask_a in proptest::collection::vec(0usize..2, 79),
            mask_b in proptest::collection::vec(0usize..2, 79),
        ) {
            let partition = |mask: &[usize]| {
                let starts = std::iter::once(0)
                    .chain((1..modules).filter(|&i| mask[i - 1] == 1))
                    .collect();
                Configuration::new(starts, modules).unwrap()
            };
            let a = partition(&mask_a);
            let b = partition(&mask_b);
            prop_assert_eq!(
                a.switch_toggles_to(&b).unwrap(),
                a.switch_bank().toggles_to(&b.switch_bank())
            );
            prop_assert_eq!(a.switch_toggles_to(&a).unwrap(), 0);
            prop_assert_eq!(b.switch_toggles_to(&b).unwrap(), 0);
        }

        /// The number of series links equals the number of group boundaries.
        #[test]
        fn prop_series_links_equal_boundaries(modules in 1usize..80, groups in 1usize..20) {
            prop_assume!(groups <= modules);
            let config = Configuration::uniform(modules, groups).unwrap();
            let bank = config.switch_bank();
            let series = bank.links().iter().filter(|&&l| l == PairLink::Series).count();
            prop_assert_eq!(series, groups - 1);
        }
    }
}
