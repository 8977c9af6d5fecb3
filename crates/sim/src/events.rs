//! Hardware event sources the simulated PMUs can count.

/// A microarchitectural event source. Vendors expose these through
/// implementation-specific `mhpmevent` codes (see
/// [`crate::platform::PlatformSpec::event_code`] for the per-platform
/// encodings); this enum is the simulator-internal identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwEvent {
    /// Processor clock cycles (the `mcycle` source).
    CpuCycles,
    /// Instructions retired (the `minstret` source).
    Instructions,
    /// L1 data-cache accesses.
    L1dAccess,
    /// L1 data-cache misses.
    L1dMiss,
    /// L2 (last-level) cache misses.
    L2Miss,
    /// Retired branch instructions.
    Branches,
    /// Mispredicted branches.
    BranchMisses,
    /// Scalar + vector floating-point operations (per lane; FMA = 2).
    /// This is the event an Advisor-style PMU methodology would use.
    FpOps,
    /// Retired vector instructions.
    VecInstructions,
    /// Bytes transferred from/to DRAM.
    DramBytes,
    /// Cycles spent in User mode (SpacemiT X60 non-standard counter
    /// `u_mode_cycle`; supports overflow sampling on that core).
    UModeCycles,
    /// Cycles spent in Supervisor mode (`s_mode_cycle`).
    SModeCycles,
    /// Cycles spent in Machine mode (`m_mode_cycle`).
    MModeCycles,
}

impl HwEvent {
    /// All event sources (useful for tables and property tests).
    pub const ALL: [HwEvent; 13] = [
        HwEvent::CpuCycles,
        HwEvent::Instructions,
        HwEvent::L1dAccess,
        HwEvent::L1dMiss,
        HwEvent::L2Miss,
        HwEvent::Branches,
        HwEvent::BranchMisses,
        HwEvent::FpOps,
        HwEvent::VecInstructions,
        HwEvent::DramBytes,
        HwEvent::UModeCycles,
        HwEvent::SModeCycles,
        HwEvent::MModeCycles,
    ];

    /// Whether this is one of the SpacemiT X60's non-standard mode-cycle
    /// events (the sampling-capable counters behind the paper's
    /// workaround).
    pub fn is_mode_cycle(self) -> bool {
        matches!(
            self,
            HwEvent::UModeCycles | HwEvent::SModeCycles | HwEvent::MModeCycles
        )
    }

    /// Whether this event advances with the core clock while the core is
    /// in `mode` (`CpuCycles` always; a mode-cycle event only in its own
    /// mode). The PMU turns the distance-to-wrap of such counters into a
    /// cycle deadline for superblock retire.
    pub fn counts_cycles_in(self, mode: crate::core::PrivMode) -> bool {
        use crate::core::PrivMode;
        match self {
            HwEvent::CpuCycles => true,
            HwEvent::UModeCycles => mode == PrivMode::User,
            HwEvent::SModeCycles => mode == PrivMode::Supervisor,
            HwEvent::MModeCycles => mode == PrivMode::Machine,
            _ => false,
        }
    }

    /// Short stable name (used in reports and CSV output).
    pub fn name(self) -> &'static str {
        match self {
            HwEvent::CpuCycles => "cycles",
            HwEvent::Instructions => "instructions",
            HwEvent::L1dAccess => "l1d-access",
            HwEvent::L1dMiss => "l1d-miss",
            HwEvent::L2Miss => "l2-miss",
            HwEvent::Branches => "branches",
            HwEvent::BranchMisses => "branch-misses",
            HwEvent::FpOps => "fp-ops",
            HwEvent::VecInstructions => "vec-instructions",
            HwEvent::DramBytes => "dram-bytes",
            HwEvent::UModeCycles => "u-mode-cycles",
            HwEvent::SModeCycles => "s-mode-cycles",
            HwEvent::MModeCycles => "m-mode-cycles",
        }
    }
}

impl std::fmt::Display for HwEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A bundle of per-retire event deltas, accumulated by the core and fed to
/// the PMU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventDeltas {
    pub cycles: u64,
    pub instructions: u64,
    pub l1d_access: u64,
    pub l1d_miss: u64,
    pub l2_miss: u64,
    pub branches: u64,
    pub branch_misses: u64,
    pub fp_ops: u64,
    pub vec_instructions: u64,
    pub dram_bytes: u64,
}

impl EventDeltas {
    /// Sum of every delta field. This upper-bounds the advance of *any*
    /// single counter for this step (each counter observes exactly one
    /// event source), which is what the PMU bounds its *far* counters
    /// with — see [`crate::pmu::Pmu`].
    #[inline]
    pub fn total(&self) -> u64 {
        self.cycles
            + self.instructions
            + self.l1d_access
            + self.l1d_miss
            + self.l2_miss
            + self.branches
            + self.branch_misses
            + self.fp_ops
            + self.vec_instructions
            + self.dram_bytes
    }

    /// Component-wise accumulate (the PMU's pending-delta batch).
    #[inline]
    pub fn accumulate(&mut self, other: &EventDeltas) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.l1d_access += other.l1d_access;
        self.l1d_miss += other.l1d_miss;
        self.l2_miss += other.l2_miss;
        self.branches += other.branches;
        self.branch_misses += other.branch_misses;
        self.fp_ops += other.fp_ops;
        self.vec_instructions += other.vec_instructions;
        self.dram_bytes += other.dram_bytes;
    }

    /// The delta for one event source, given the current privilege mode's
    /// share of cycles (mode-cycle events count `cycles` when the core is
    /// in the matching mode and 0 otherwise).
    pub fn get(&self, ev: HwEvent, mode: crate::core::PrivMode) -> u64 {
        use crate::core::PrivMode;
        match ev {
            HwEvent::CpuCycles => self.cycles,
            HwEvent::Instructions => self.instructions,
            HwEvent::L1dAccess => self.l1d_access,
            HwEvent::L1dMiss => self.l1d_miss,
            HwEvent::L2Miss => self.l2_miss,
            HwEvent::Branches => self.branches,
            HwEvent::BranchMisses => self.branch_misses,
            HwEvent::FpOps => self.fp_ops,
            HwEvent::VecInstructions => self.vec_instructions,
            HwEvent::DramBytes => self.dram_bytes,
            HwEvent::UModeCycles => {
                if mode == PrivMode::User {
                    self.cycles
                } else {
                    0
                }
            }
            HwEvent::SModeCycles => {
                if mode == PrivMode::Supervisor {
                    self.cycles
                } else {
                    0
                }
            }
            HwEvent::MModeCycles => {
                if mode == PrivMode::Machine {
                    self.cycles
                } else {
                    0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::PrivMode;

    #[test]
    fn mode_cycle_classification() {
        assert!(HwEvent::UModeCycles.is_mode_cycle());
        assert!(!HwEvent::CpuCycles.is_mode_cycle());
    }

    #[test]
    fn deltas_respect_privilege_mode() {
        let d = EventDeltas {
            cycles: 10,
            ..EventDeltas::default()
        };
        assert_eq!(d.get(HwEvent::UModeCycles, PrivMode::User), 10);
        assert_eq!(d.get(HwEvent::UModeCycles, PrivMode::Machine), 0);
        assert_eq!(d.get(HwEvent::MModeCycles, PrivMode::Machine), 10);
        assert_eq!(d.get(HwEvent::CpuCycles, PrivMode::Machine), 10);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = HwEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HwEvent::ALL.len());
    }
}
