//! The three workloads and the seeded generator that turns a workload seed
//! into the `GridSpec` lines the program receives.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I field (DNOR, INOR, EHTR, baseline) over 40–80
    /// modules and three fault severities, swept in-process.
    PaperLineup,
    /// 200- and 400-module arrays under DNOR and the baseline, many seeds
    /// each fanned out over four fault profiles sharing one thermal key,
    /// swept in-process.
    FleetScale,
    /// Small grids submitted back to back by closed-loop clients of a
    /// loopback `SweepServer` with checkpoint journalling on.
    ServedStream,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Self; 3] = [Self::PaperLineup, Self::FleetScale, Self::ServedStream];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Self::PaperLineup => "paper-lineup",
            Self::FleetScale => "fleet-scale",
            Self::ServedStream => "served-stream",
        }
    }

    /// Whether the timed requests go through the sweep service.
    pub const fn served(self) -> bool {
        matches!(self, Self::ServedStream)
    }

    /// The pool of grid lines one run cycles through, derived from `seed`
    /// alone.  Only scenario seeds vary with `seed`; module counts, drive
    /// lengths, fault profiles and lineups are fixed per workload, so the
    /// cost of a request barely depends on the seed.
    pub fn grid_lines(self, seed: u64) -> Vec<String> {
        let mut rng = SplitMix64(seed ^ 0x7465_672d_6861_7276);
        let (pool, seeds_per_grid) = match self {
            Self::PaperLineup => (8, 1),
            Self::FleetScale => (8, 1),
            Self::ServedStream => (8, 2),
        };
        (0..pool)
            .map(|_| {
                let seeds: Vec<String> = (0..seeds_per_grid)
                    .map(|_| (rng.next() % 1_000_000).to_string())
                    .collect();
                self.grid_line(&seeds.join(","))
            })
            .collect()
    }

    fn grid_line(self, seeds: &str) -> String {
        match self {
            Self::PaperLineup => format!(
                "modules=40,60,80|seeds={seeds}|drive=commute:60|var=none\
                 |fault=healthy,random:moderate:moderate,random:severe:severe\
                 |lineup=paper-fixed:0.002"
            ),
            Self::FleetScale => format!(
                "modules=200,400|seeds={seeds}|drive=highway:400|var=none\
                 |fault=healthy,random:light:light,random:moderate:moderate,random:severe:severe\
                 |lineup=fixed:fleet:dnor-det:0.002+baseline"
            ),
            Self::ServedStream => format!(
                "modules=12,16|seeds={seeds}|drive=city:60|var=none\
                 |fault=healthy,random:light:light\
                 |lineup=fixed:served:dnor-det:0.002+baseline"
            ),
        }
    }
}

/// Fixed per-decision computation charge of every lineup above, which
/// makes every report a pure function of its grid line.
pub const FIXED_COMPUTATION_S: f64 = 0.002;

/// Steele, Lea and Flood's SplitMix64: a tiny, well-mixed seed expander.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            assert_eq!(workload.grid_lines(7), workload.grid_lines(7));
            assert_ne!(workload.grid_lines(7), workload.grid_lines(8));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }

    #[test]
    fn lines_parse_into_the_documented_grid_sizes() {
        for (workload, cells) in [
            (Workload::PaperLineup, 9),
            (Workload::FleetScale, 8),
            (Workload::ServedStream, 8),
        ] {
            for line in workload.grid_lines(1) {
                let spec = teg_sim::GridSpec::parse(&line).expect("generated lines parse");
                assert_eq!(spec.cell_count(), cells, "{line}");
                // The canonical form is the generated line itself.
                assert_eq!(spec.spec().unwrap(), line);
            }
        }
    }
}
