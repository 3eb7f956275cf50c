//! Deterministic fault injection for the ROLP reproduction.
//!
//! The paper's robustness story (§5–§7) is about what the profiler does
//! when profiling stops paying for itself: allocation-site ids saturate
//! past the 16-bit space, adversarial call patterns collapse thread stack
//! states onto one table row, the OLD table floods, allocation bursts
//! starve the safepoint merge, and worker-table merges arrive late or not
//! at all. This crate describes those pressure scenarios as data — a
//! seedable [`FaultPlan`] — so the degradation governor can be driven
//! through its whole state machine *reproducibly*: the same plan and seed
//! produce the same injected events on every run.
//!
//! The crate is dependency-free by design (its own SplitMix64 generator,
//! no clocks): a plan is pure data, and the profiler asks the
//! [`FaultInjector`] what to inject at each GC cycle.

use std::fmt;

/// One pressure scenario within a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// From `at_cycle` on, the 16-bit allocation-site id space behaves as
    /// exhausted: new hot sites are refused a profile id (§7.5 saturation
    /// path) without allocating 65 535 real sites first.
    SiteIdExhaustion {
        /// GC cycle at which the space saturates.
        at_cycle: u64,
    },
    /// From `from_cycle` on, every profiled allocation's thread stack
    /// state is forced to `tss` — the adversarial collision where all
    /// call paths hash onto one stack-state row.
    TssCollision {
        /// GC cycle at which the collisions start.
        from_cycle: u64,
        /// The colliding stack-state value.
        tss: u16,
    },
    /// From `from_cycle` on, `rows_per_cycle` synthetic allocation records
    /// on pseudo-random contexts are poured into the OLD table each cycle
    /// (row flood: touched-row growth and record-path pressure).
    RowFlood {
        /// GC cycle at which the flood starts.
        from_cycle: u64,
        /// Synthetic records injected per cycle.
        rows_per_cycle: u32,
    },
    /// For cycles in `from_cycle..until_cycle`, `events_per_cycle`
    /// synthetic record-path events hit the profiler — an allocation burst
    /// that starves the safepoint merge budget.
    AllocBurst {
        /// First burst cycle (inclusive).
        from_cycle: u64,
        /// End of the burst (exclusive).
        until_cycle: u64,
        /// Record-path events injected per burst cycle.
        events_per_cycle: u64,
    },
    /// Every `every`-th GC cycle, the per-worker survival tables are
    /// *discarded* instead of merged (records lost).
    MergeDrop {
        /// Drop period in cycles (`cycle % every == 0` drops).
        every: u64,
    },
    /// Every `every`-th GC cycle, the safepoint merge is *skipped*; the
    /// worker tables carry their records to a later safepoint.
    MergeDelay {
        /// Delay period in cycles (`cycle % every == 0` skips the merge).
        every: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SiteIdExhaustion { at_cycle } => write!(f, "exhaust-ids@{at_cycle}"),
            FaultKind::TssCollision { from_cycle, tss } => {
                write!(f, "collide-tss@{from_cycle}={tss}")
            }
            FaultKind::RowFlood { from_cycle, rows_per_cycle } => {
                write!(f, "flood-rows@{from_cycle}x{rows_per_cycle}")
            }
            FaultKind::AllocBurst { from_cycle, until_cycle, events_per_cycle } => {
                write!(f, "burst@{from_cycle}..{until_cycle}x{events_per_cycle}")
            }
            FaultKind::MergeDrop { every } => write!(f, "drop-merge%{every}"),
            FaultKind::MergeDelay { every } => write!(f, "delay-merge%{every}"),
        }
    }
}

/// A named, seedable set of pressure scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan name (canned name or `"custom"` for parsed specs).
    pub name: String,
    /// Seed for the injector's pseudo-random context generation.
    pub seed: u64,
    /// The scenarios to run.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan injecting nothing (the identity element; useful as a
    /// baseline arm in tests).
    pub fn quiet() -> Self {
        FaultPlan { name: "quiet".into(), seed: 0, faults: Vec::new() }
    }

    /// The canned plans CI smokes: each exercises a different governor
    /// path and every one must complete without panic.
    pub fn canned_names() -> &'static [&'static str] {
        &["pressure-spike", "id-exhaustion", "merge-chaos"]
    }

    /// Looks up a canned plan by name.
    pub fn named(name: &str) -> Option<Self> {
        let (seed, faults): (u64, Vec<FaultKind>) = match name {
            // Record-path + table pressure that subsides: drives
            // Full -> degraded -> (hysteresis) -> recovery.
            "pressure-spike" => (
                11,
                vec![
                    FaultKind::AllocBurst {
                        from_cycle: 16,
                        until_cycle: 64,
                        events_per_cycle: 200_000,
                    },
                    FaultKind::RowFlood { from_cycle: 16, rows_per_cycle: 256 },
                ],
            ),
            // Saturate the id space, then collapse stack states.
            "id-exhaustion" => (
                22,
                vec![
                    FaultKind::SiteIdExhaustion { at_cycle: 24 },
                    FaultKind::TssCollision { from_cycle: 40, tss: 0x00AA },
                ],
            ),
            // Late and lost merges under a burst.
            "merge-chaos" => (
                33,
                vec![
                    FaultKind::MergeDrop { every: 3 },
                    FaultKind::MergeDelay { every: 5 },
                    FaultKind::AllocBurst {
                        from_cycle: 32,
                        until_cycle: 48,
                        events_per_cycle: 100_000,
                    },
                ],
            ),
            _ => return None,
        };
        Some(FaultPlan { name: name.into(), seed, faults })
    }

    /// Parses a plan: either a canned name or a `;`-separated spec of
    /// `seed=N` plus fault atoms in the [`fmt::Display`] syntax, e.g.
    /// `seed=7;burst@16..64x50000;drop-merge%5`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if let Some(plan) = Self::named(spec.trim()) {
            return Ok(plan);
        }
        let mut plan = FaultPlan { name: "custom".into(), seed: 0, faults: Vec::new() };
        for atom in spec.split(';') {
            let atom = atom.trim();
            if atom.is_empty() {
                continue;
            }
            if let Some(seed) = atom.strip_prefix("seed=") {
                plan.seed = parse_u64(seed, atom)?;
            } else if let Some(rest) = atom.strip_prefix("exhaust-ids@") {
                plan.faults.push(FaultKind::SiteIdExhaustion { at_cycle: parse_u64(rest, atom)? });
            } else if let Some(rest) = atom.strip_prefix("collide-tss@") {
                let (cycle, tss) = match rest.split_once('=') {
                    Some((c, v)) => (parse_u64(c, atom)?, parse_u64(v, atom)? as u16),
                    None => (parse_u64(rest, atom)?, 0x00AA),
                };
                plan.faults.push(FaultKind::TssCollision { from_cycle: cycle, tss });
            } else if let Some(rest) = atom.strip_prefix("flood-rows@") {
                let (cycle, rows) = rest
                    .split_once('x')
                    .ok_or_else(|| bad_atom(atom, "expected <cycle>x<rows>"))?;
                let rows_per_cycle = u32::try_from(parse_u64(rows, atom)?)
                    .map_err(|_| bad_atom(atom, "rows per cycle exceed u32::MAX"))?;
                plan.faults.push(FaultKind::RowFlood {
                    from_cycle: parse_u64(cycle, atom)?,
                    rows_per_cycle,
                });
            } else if let Some(rest) = atom.strip_prefix("burst@") {
                let (range, events) = rest
                    .split_once('x')
                    .ok_or_else(|| bad_atom(atom, "expected <from>..<until>x<events>"))?;
                let (from, until) = range
                    .split_once("..")
                    .ok_or_else(|| bad_atom(atom, "expected <from>..<until>x<events>"))?;
                let (from_cycle, until_cycle) = (parse_u64(from, atom)?, parse_u64(until, atom)?);
                if from_cycle > until_cycle {
                    return Err(bad_atom(atom, "range end precedes its start"));
                }
                plan.faults.push(FaultKind::AllocBurst {
                    from_cycle,
                    until_cycle,
                    events_per_cycle: parse_u64(events, atom)?,
                });
            } else if let Some(rest) = atom.strip_prefix("drop-merge%") {
                plan.faults.push(FaultKind::MergeDrop { every: parse_period(rest, atom)? });
            } else if let Some(rest) = atom.strip_prefix("delay-merge%") {
                plan.faults.push(FaultKind::MergeDelay { every: parse_period(rest, atom)? });
            } else {
                return Err(format!(
                    "unknown fault atom '{atom}' (canned plans: {})",
                    Self::canned_names().join(", ")
                ));
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (seed={}", self.name, self.seed)?;
        for fault in &self.faults {
            write!(f, ";{fault}")?;
        }
        write!(f, ")")
    }
}

fn parse_u64(s: &str, atom: &str) -> Result<u64, String> {
    s.trim().parse::<u64>().map_err(|_| bad_atom(atom, "not a number"))
}

fn parse_period(s: &str, atom: &str) -> Result<u64, String> {
    let n = parse_u64(s, atom)?;
    if n == 0 {
        return Err(bad_atom(atom, "period must be nonzero"));
    }
    Ok(n)
}

fn bad_atom(atom: &str, why: &str) -> String {
    format!("bad fault atom '{atom}': {why}")
}

/// SplitMix64 — the standard 64-bit mixer, small enough to own outright
/// so the crate stays dependency-free and the stream is stable forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What to inject at one GC cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleFaults {
    /// Force the profile-id space exhausted before this cycle's work.
    pub exhaust_site_ids: bool,
    /// Force every profiled allocation's stack state to this value.
    pub forced_tss: Option<u16>,
    /// Synthetic allocation contexts to record into the OLD table.
    pub flood_contexts: Vec<u32>,
    /// Synthetic record-path events to charge against the epoch budget.
    pub burst_events: u64,
    /// Discard the per-worker tables instead of merging them.
    pub drop_merge: bool,
    /// Skip the safepoint merge (records carry over to a later cycle).
    pub delay_merge: bool,
}

impl CycleFaults {
    /// True when nothing is injected this cycle.
    pub fn is_quiet(&self) -> bool {
        self == &CycleFaults::default()
    }
}

/// The per-run injector: resolves a [`FaultPlan`] cycle by cycle.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    exhaust_fired: bool,
    injected_events: u64,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultInjector { plan, rng, exhaust_fired: false, injected_events: 0 }
    }

    /// The plan being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total synthetic record-path events injected so far (floods +
    /// bursts), for run reports.
    pub fn injected_events(&self) -> u64 {
        self.injected_events
    }

    /// Resolves the plan for GC cycle `cycle`. Deterministic: for a fixed
    /// plan, calling this for the same ascending cycle sequence yields
    /// the same injections.
    pub fn on_cycle(&mut self, cycle: u64) -> CycleFaults {
        let mut out = CycleFaults::default();
        for fault in &self.plan.faults {
            match *fault {
                FaultKind::SiteIdExhaustion { at_cycle } => {
                    if cycle >= at_cycle && !self.exhaust_fired {
                        out.exhaust_site_ids = true;
                        self.exhaust_fired = true;
                    }
                }
                FaultKind::TssCollision { from_cycle, tss } => {
                    if cycle >= from_cycle {
                        out.forced_tss = Some(tss);
                    }
                }
                FaultKind::RowFlood { from_cycle, rows_per_cycle } => {
                    if cycle >= from_cycle {
                        for _ in 0..rows_per_cycle {
                            // Site 0 is reserved; keep the flood off it so
                            // injected rows look like real profiled sites.
                            let raw = self.rng.next_u64() as u32;
                            let site = (((raw >> 16) as u16) | 1) as u32;
                            out.flood_contexts.push((site << 16) | (raw & 0xFFFF));
                        }
                        self.injected_events += rows_per_cycle as u64;
                    }
                }
                FaultKind::AllocBurst { from_cycle, until_cycle, events_per_cycle } => {
                    if (from_cycle..until_cycle).contains(&cycle) {
                        out.burst_events += events_per_cycle;
                        self.injected_events += events_per_cycle;
                    }
                }
                FaultKind::MergeDrop { every } => {
                    if cycle > 0 && cycle.is_multiple_of(every) {
                        out.drop_merge = true;
                    }
                }
                FaultKind::MergeDelay { every } => {
                    if cycle > 0 && cycle.is_multiple_of(every) {
                        out.delay_merge = true;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_all_resolve() {
        for name in FaultPlan::canned_names() {
            let plan = FaultPlan::named(name).expect("canned plan exists");
            assert_eq!(&plan.name, name);
            assert!(!plan.faults.is_empty());
            // parse() accepts the canned name directly.
            assert_eq!(FaultPlan::parse(name).unwrap(), plan);
        }
        assert!(FaultPlan::named("no-such-plan").is_none());
    }

    #[test]
    fn spec_round_trips_through_parse() {
        let plan =
            FaultPlan::parse("seed=7;exhaust-ids@32;collide-tss@16=170;flood-rows@8x64;burst@16..64x50000;drop-merge%5;delay-merge%3")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults,
            vec![
                FaultKind::SiteIdExhaustion { at_cycle: 32 },
                FaultKind::TssCollision { from_cycle: 16, tss: 170 },
                FaultKind::RowFlood { from_cycle: 8, rows_per_cycle: 64 },
                FaultKind::AllocBurst { from_cycle: 16, until_cycle: 64, events_per_cycle: 50000 },
                FaultKind::MergeDrop { every: 5 },
                FaultKind::MergeDelay { every: 3 },
            ]
        );
    }

    #[test]
    fn parse_rejects_garbage_readably() {
        let err = FaultPlan::parse("seed=7;warp-core@9").unwrap_err();
        assert!(err.contains("warp-core"), "{err}");
        assert!(err.contains("pressure-spike"), "suggests canned plans: {err}");
        assert!(FaultPlan::parse("drop-merge%0").is_err(), "zero period");
        assert!(FaultPlan::parse("burst@16x5").is_err(), "missing range");
    }

    #[test]
    fn parse_rejects_an_inverted_burst_range() {
        let err = FaultPlan::parse("seed=1;burst@5..1x10").unwrap_err();
        assert_eq!(err, "bad fault atom 'burst@5..1x10': range end precedes its start");
        assert!(FaultPlan::parse("burst@5..5x10").is_ok(), "an empty range is not inverted");
    }

    #[test]
    fn parse_rejects_flood_rows_above_u32() {
        let atom = format!("flood-rows@3x{}", u32::MAX as u64 + 1);
        let err = FaultPlan::parse(&atom).unwrap_err();
        assert_eq!(err, format!("bad fault atom '{atom}': rows per cycle exceed u32::MAX"));
        let max = FaultPlan::parse(&format!("flood-rows@3x{}", u32::MAX)).unwrap();
        assert_eq!(
            max.faults,
            vec![FaultKind::RowFlood { from_cycle: 3, rows_per_cycle: u32::MAX }]
        );
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let plan = FaultPlan::parse("seed=99;flood-rows@0x8").unwrap();
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for cycle in 0..20 {
            assert_eq!(a.on_cycle(cycle), b.on_cycle(cycle));
        }
        assert_eq!(a.injected_events(), 20 * 8);
        // A different seed yields different flood contexts.
        let mut c = FaultInjector::new(FaultPlan::parse("seed=100;flood-rows@0x8").unwrap());
        assert_ne!(a.on_cycle(20).flood_contexts, c.on_cycle(20).flood_contexts);
    }

    #[test]
    fn exhaustion_fires_exactly_once() {
        let mut inj = FaultInjector::new(FaultPlan::parse("exhaust-ids@4").unwrap());
        assert!(!inj.on_cycle(3).exhaust_site_ids);
        assert!(inj.on_cycle(4).exhaust_site_ids);
        assert!(!inj.on_cycle(5).exhaust_site_ids, "one-shot: already applied");
    }

    #[test]
    fn burst_and_merge_windows_respect_bounds() {
        let mut inj = FaultInjector::new(
            FaultPlan::parse("burst@10..12x5;drop-merge%4;delay-merge%6").unwrap(),
        );
        assert_eq!(inj.on_cycle(9).burst_events, 0);
        assert_eq!(inj.on_cycle(10).burst_events, 5);
        assert_eq!(inj.on_cycle(11).burst_events, 5);
        assert_eq!(inj.on_cycle(12).burst_events, 0, "until is exclusive");
        assert!(inj.on_cycle(16).drop_merge);
        assert!(!inj.on_cycle(17).drop_merge);
        assert!(inj.on_cycle(18).delay_merge);
        let quiet = inj.on_cycle(13);
        assert!(quiet.is_quiet());
    }

    #[test]
    fn flood_contexts_never_use_reserved_site_zero() {
        let mut inj = FaultInjector::new(FaultPlan::parse("seed=5;flood-rows@0x512").unwrap());
        for cycle in 0..4 {
            for ctx in inj.on_cycle(cycle).flood_contexts {
                assert_ne!(ctx >> 16, 0, "site id 0 is reserved for unprofiled");
            }
        }
    }
}
