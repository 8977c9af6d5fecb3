//! Machine characterization: derive roofs for a platform.
//!
//! Memory bandwidth is *measured* by a streaming microbenchmark (a memset
//! kernel compiled with the platform's vector capabilities and run on the
//! simulator), exactly how the paper takes the X60's bandwidth roof from a
//! memset benchmark. Compute peaks are *theoretical*, derived
//! from the platform model exactly the way the paper derives 25.6 GFLOP/s
//! for the X60 (vector width × FMA throughput × frequency), since neither
//! the paper nor this reproduction trusts un-tuned loop kernels to reach
//! machine peak.

use crate::model::{Roof, RooflineModel};
use mperf_ir::transform::vectorize::{TargetVecCaps, VectorizePass};
use mperf_ir::transform::PassManager;
use mperf_sim::machine_op::OpClass;
use mperf_sim::{Core, Platform, PlatformSpec};
use mperf_sweep::{queue, SharedModule};
use mperf_vm::Value;

/// Characterization results for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCharacterization {
    pub platform: Platform,
    /// Theoretical vector FMA peak, GFLOP/s (single precision).
    pub peak_vector_gflops: f64,
    /// Theoretical scalar FMA peak, GFLOP/s.
    pub peak_scalar_gflops: f64,
    /// Measured streaming-store bandwidth, GB/s (memset kernel).
    pub memset_gbps: f64,
    /// Measured memset bytes per cycle (the figure the paper quotes).
    pub memset_bytes_per_cycle: f64,
}

impl MachineCharacterization {
    /// Build a roofline model from the characterization.
    pub fn to_model(&self) -> RooflineModel {
        let spec = self.platform.spec();
        let mut m = RooflineModel::new(spec.name);
        if self.peak_vector_gflops > self.peak_scalar_gflops {
            m.roofs.push(Roof::compute(
                format!("vector FMA peak ({})", vector_label(&spec)),
                self.peak_vector_gflops,
            ));
        }
        m.roofs
            .push(Roof::compute("scalar FMA peak", self.peak_scalar_gflops));
        m.roofs
            .push(Roof::memory("DRAM (memset)", self.memset_gbps));
        m
    }
}

fn vector_label(spec: &PlatformSpec) -> String {
    spec.vector
        .map(|v| format!("{} {}b", v.version, v.vlen_bits))
        .unwrap_or_else(|| "none".into())
}

/// The vectorizer capabilities the "compiler" has for a platform. The X60
/// model deliberately lacks strided vector codegen (DESIGN.md §5), which
/// is what leaves the paper's matmul kernel scalar on that core.
pub fn vec_caps_for(platform: Platform) -> TargetVecCaps {
    match platform {
        Platform::IntelI5_1135G7 => TargetVecCaps::avx2(),
        Platform::SpacemitX60 => TargetVecCaps::rvv_256_unit_stride(),
        Platform::TheadC910 => TargetVecCaps {
            vf_f32: 4,
            vf_f64: 2,
            vf_i64: 2,
            allow_strided: false,
        },
        Platform::SifiveU74 => TargetVecCaps::scalar_only(),
    }
}

/// Theoretical single-precision vector FMA peak.
pub fn theoretical_vector_peak_gflops(spec: &PlatformSpec) -> f64 {
    let Some(v) = spec.vector else {
        return theoretical_scalar_peak_gflops(spec);
    };
    let lanes = (v.vlen_bits / 32) as f64;
    let fma_per_cycle = 100.0 / spec.timing.inv_tp(OpClass::VecFma) as f64;
    fma_per_cycle * lanes * 2.0 * spec.freq_hz as f64 / 1e9
}

/// Theoretical scalar FMA peak.
pub fn theoretical_scalar_peak_gflops(spec: &PlatformSpec) -> f64 {
    let fma_per_cycle = 100.0 / spec.timing.inv_tp(OpClass::FpFma) as f64;
    fma_per_cycle * 2.0 * spec.freq_hz as f64 / 1e9
}

const MEMSET_SRC: &str = r#"
    fn memset64(p: *i64, n: i64, v: i64) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            p[i] = v;
        }
    }
"#;

/// Run the memset kernel on a fresh VM sharing `shared`'s decode;
/// returns `(bytes_streamed, cycles)` for the measured steady-state pass.
fn memset_bandwidth(shared: &SharedModule, spec: &PlatformSpec, working_set: u64) -> (u64, u64) {
    let mem_bytes = (working_set as usize) * 4 + (16 << 20);
    let mut vm = shared.vm_with_memory(Core::new(spec.clone()), mem_bytes);
    let n = (working_set / 8).max(1024);
    let p = vm.mem.alloc(n * 8, 64).expect("fits");
    // Warm-up pass: the simulator has no paging, but the first pass
    // fills the caches, loads the DRAM queue and trains the branch
    // predictor, so the second pass measures steady state.
    vm.call(
        "memset64",
        &[Value::I64(p as i64), Value::I64(n as i64), Value::I64(1)],
    )
    .expect("memset runs");
    let c0 = vm.core.cycles();
    vm.call(
        "memset64",
        &[Value::I64(p as i64), Value::I64(n as i64), Value::I64(2)],
    )
    .expect("memset runs");
    (n * 8, vm.core.cycles() - c0)
}

/// Compile the memset kernel for `platform` and bundle it with its one
/// shared decode.
fn stream_module(platform: Platform) -> SharedModule {
    let mut module = mperf_ir::compile("roofline-bench", MEMSET_SRC).expect("kernels compile");
    PassManager::standard().run(&mut module);
    VectorizePass::new(vec_caps_for(platform)).run_with_report(&mut module);
    SharedModule::new(module)
}

/// Characterize a platform by running the memset microbenchmark on a
/// fresh core as a sweep job under at most `jobs` worker threads
/// (`jobs = 1` runs it on the calling thread; the measured bandwidth is
/// identical at any worker count — simulated cycles never observe host
/// threads). `working_set` is the streamed footprint in
/// bytes (must exceed L2 to observe DRAM bandwidth; default 8 MiB via
/// [`characterize`]).
///
/// # Panics
/// Panics if the microbenchmark sources fail to compile or run — these
/// are fixed internal kernels, so failure is a bug.
pub fn characterize_with_jobs(
    platform: Platform,
    working_set: u64,
    jobs: usize,
) -> MachineCharacterization {
    characterize_many(&[platform], working_set, jobs)
        .pop()
        .expect("one platform in, one characterization out")
}

/// [`characterize_with_jobs`] at `jobs = 1` (the serial path).
pub fn characterize_with(platform: Platform, working_set: u64) -> MachineCharacterization {
    characterize_with_jobs(platform, working_set, 1)
}

/// Characterize several platforms at once: each platform's memset run is
/// one job in a single worker pool, and results come back in
/// `platforms` order, bit-identical to calling [`characterize_with`] in
/// a loop.
pub fn characterize_many(
    platforms: &[Platform],
    working_set: u64,
    jobs: usize,
) -> Vec<MachineCharacterization> {
    // Compile + decode once per platform, up front.
    let shared: Vec<SharedModule> = platforms.iter().map(|&p| stream_module(p)).collect();
    let measured = queue::run_jobs((0..platforms.len()).collect(), jobs, |_, pi| {
        memset_bandwidth(&shared[pi], &platforms[pi].spec(), working_set)
    });
    platforms
        .iter()
        .zip(measured)
        .map(|(&platform, (bytes, cycles))| {
            let spec = platform.spec();
            let memset_bpc = bytes as f64 / cycles as f64;
            MachineCharacterization {
                platform,
                peak_vector_gflops: theoretical_vector_peak_gflops(&spec),
                peak_scalar_gflops: theoretical_scalar_peak_gflops(&spec),
                memset_gbps: memset_bpc * spec.freq_hz as f64 / 1e9,
                memset_bytes_per_cycle: memset_bpc,
            }
        })
        .collect()
}

/// Characterize with the default 8 MiB working set.
pub fn characterize(platform: Platform) -> MachineCharacterization {
    characterize_with(platform, 8 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x60_theoretical_peaks_match_paper() {
        let spec = PlatformSpec::x60();
        let v = theoretical_vector_peak_gflops(&spec);
        assert!((v - 25.6).abs() < 0.05, "paper: 25.6 GFLOP/s, got {v}");
        let s = theoretical_scalar_peak_gflops(&spec);
        assert!((s - 3.2).abs() < 0.05, "2 flops/cycle * 1.6 GHz: {s}");
    }

    #[test]
    fn x60_memset_bandwidth_near_dram_limit() {
        let ch = characterize_with(Platform::SpacemitX60, 2 << 20);
        // The DRAM limiter is 3.16 B/cyc; the measured figure must land
        // close below it (paper: ~3.16 B/cyc → ~4.7 GiB/s).
        assert!(
            ch.memset_bytes_per_cycle > 2.2 && ch.memset_bytes_per_cycle <= 3.17,
            "{}",
            ch.memset_bytes_per_cycle
        );
        let gibps = ch.memset_gbps * 1e9 / (1u64 << 30) as f64;
        assert!(
            gibps > 3.5 && gibps < 4.8,
            "paper ballpark ~4.7 GiB/s: {gibps}"
        );
    }

    #[test]
    fn i5_is_much_faster_than_x60() {
        let x60 = characterize_with(Platform::SpacemitX60, 2 << 20);
        let i5 = characterize_with(Platform::IntelI5_1135G7, 2 << 20);
        assert!(i5.peak_vector_gflops > 4.0 * x60.peak_vector_gflops);
        assert!(i5.memset_gbps > 3.0 * x60.memset_gbps);
    }

    #[test]
    fn u74_has_no_vector_roof_above_scalar() {
        let ch = characterize_with(Platform::SifiveU74, 1 << 20);
        assert!(ch.peak_vector_gflops <= ch.peak_scalar_gflops + 1e-9);
        let model = ch.to_model();
        // Only scalar + memory roofs.
        assert_eq!(model.roofs.len(), 2, "{:?}", model.roofs);
    }

    #[test]
    fn characterize_many_matches_serial_characterization() {
        let platforms = [
            Platform::SpacemitX60,
            Platform::SifiveU74,
            Platform::TheadC910,
        ];
        // 3 jobs (one memset per platform) on 2 workers vs the serial
        // per-platform path: bit-identical measured bandwidths.
        let many = characterize_many(&platforms, 1 << 20, 2);
        for (p, got) in platforms.iter().zip(&many) {
            let lone = characterize_with(*p, 1 << 20);
            assert_eq!(got, &lone, "{p:?}");
        }
    }

    /// Golden characterization: the exact bits of the memset bytes per
    /// cycle at a 1 MiB working set, one test per platform so a drift
    /// names its platform. The cache model and the VM are meant to stay
    /// bit-identical under optimization; any change to these figures is
    /// a change to the model and must be deliberate.
    fn assert_golden_memset(platform: Platform, bits: u64) {
        let got = characterize_with(platform, 1 << 20).memset_bytes_per_cycle;
        assert_eq!(
            got.to_bits(),
            bits,
            "{platform:?}: memset measures {got} B/cycle, pinned {}",
            f64::from_bits(bits)
        );
    }

    #[test]
    fn golden_memset_x60() {
        assert_golden_memset(Platform::SpacemitX60, 0x4009_46a9_bca6_96fa);
    }

    #[test]
    fn golden_memset_c910() {
        assert_golden_memset(Platform::TheadC910, 0x401b_adac_9de3_22ba);
    }

    #[test]
    fn golden_memset_u74() {
        assert_golden_memset(Platform::SifiveU74, 0x3ff3_b0d1_0cd5_6c20);
    }

    #[test]
    fn golden_memset_i5() {
        assert_golden_memset(Platform::IntelI5_1135G7, 0x4023_a6ee_acc5_7610);
    }

    /// Quiet superblocks chain: the scalar u74 memset forms two blocks
    /// per element (the `cmp`+`condbr` loop header and the body), and a
    /// counting run commits them to the PMU once per chain of about
    /// `QUIET_BLOCK_OPS` block ops, not once per block.
    #[test]
    fn u74_memset_commits_once_per_chain() {
        use mperf_sim::core::QUIET_BLOCK_OPS;
        let platform = Platform::SifiveU74;
        let shared = stream_module(platform);
        let mut vm = shared.vm_with_memory(Core::new(platform.spec()), 1 << 20);
        let n = 1 << 15;
        let p = vm.mem.alloc(n * 8, 64).expect("fits");
        vm.call(
            "memset64",
            &[Value::I64(p as i64), Value::I64(n as i64), Value::I64(1)],
        )
        .expect("memset runs");
        let blocks = vm.block_dynamics();
        assert!(blocks.entered >= 2 * n, "{blocks:?}");
        assert!(
            blocks.commits <= blocks.block_ops / (QUIET_BLOCK_OPS as u64 / 2),
            "{blocks:?}"
        );
    }

    #[test]
    fn model_includes_measured_memory_roof() {
        let ch = characterize_with(Platform::SpacemitX60, 1 << 20);
        let model = ch.to_model();
        let mem = model
            .roofs
            .iter()
            .find(|r| r.kind == crate::model::RoofKind::Memory)
            .expect("memory roof");
        assert!((mem.value - ch.memset_gbps).abs() < 1e-9);
    }
}
