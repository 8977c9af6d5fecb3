//! Machine characterization: derive roofs for a platform.
//!
//! Memory bandwidth is *measured* by streaming microbenchmarks (memset and
//! triad kernels compiled with the platform's vector capabilities and run
//! on the simulator), mirroring how the paper takes the X60's bandwidth
//! roof from a memset benchmark. Compute peaks are *theoretical*, derived
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
    /// Measured copy/triad bandwidth, GB/s.
    pub triad_gbps: f64,
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
    fn triad(a: *f64, b: *f64, c: *f64, n: i64, k: f64) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            a[i] = b[i] + k * c[i];
        }
    }
"#;

/// The two streaming kernels a characterization runs — each is one
/// independent sweep job (fresh VM, shared decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKernel {
    Memset,
    Triad,
}

/// Run one streaming kernel on a fresh VM sharing `shared`'s decode;
/// returns `(bytes_streamed, cycles)` for the measured steady-state pass.
fn stream_bandwidth(
    shared: &SharedModule,
    spec: &PlatformSpec,
    working_set: u64,
    kernel: StreamKernel,
) -> (u64, u64) {
    let mem_bytes = (working_set as usize) * 4 + (16 << 20);
    let mut vm = shared.vm_with_memory(Core::new(spec.clone()), mem_bytes);
    match kernel {
        StreamKernel::Memset => {
            let n = (working_set / 8).max(1024);
            let p = vm.mem.alloc(n * 8, 64).expect("fits");
            // Warm-up pass: the simulator has no paging, but the first
            // pass fills the caches, loads the DRAM queue and trains the
            // branch predictor, so the second pass measures steady state.
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
        StreamKernel::Triad => {
            // 2 loads + 1 store per element.
            let tn = (working_set / 8 / 3).max(1024);
            let a = vm.mem.alloc(tn * 8, 64).expect("fits");
            let b = vm.mem.alloc(tn * 8, 64).expect("fits");
            let c = vm.mem.alloc(tn * 8, 64).expect("fits");
            let args = [
                Value::I64(a as i64),
                Value::I64(b as i64),
                Value::I64(c as i64),
                Value::I64(tn as i64),
                Value::F64(3.0),
            ];
            vm.call("triad", &args).expect("triad runs");
            let c0 = vm.core.cycles();
            vm.call("triad", &args).expect("triad runs");
            (tn * 8 * 3, vm.core.cycles() - c0)
        }
    }
}

/// Compile the streaming kernels for `platform` and bundle them with
/// their one shared decode.
fn stream_module(platform: Platform) -> SharedModule {
    let mut module = mperf_ir::compile("roofline-bench", MEMSET_SRC).expect("kernels compile");
    PassManager::standard().run(&mut module);
    VectorizePass::new(vec_caps_for(platform)).run_with_report(&mut module);
    SharedModule::new(module)
}

/// Characterize a platform by running the streaming microbenchmarks on
/// fresh cores, with the memset and triad kernels scheduled as
/// independent sweep jobs under at most `jobs` worker threads
/// (`jobs = 1` runs them serially on the calling thread; measured
/// bandwidths are identical at any worker count — simulated cycles never
/// observe host threads). `working_set` is the streamed footprint in
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

/// Characterize several platforms at once: every `platform × kernel`
/// combination is one job in a single worker pool, and results come
/// back in `platforms` order, bit-identical to calling
/// [`characterize_with`] in a loop.
pub fn characterize_many(
    platforms: &[Platform],
    working_set: u64,
    jobs: usize,
) -> Vec<MachineCharacterization> {
    // Compile + decode once per platform, up front.
    let shared: Vec<SharedModule> = platforms.iter().map(|&p| stream_module(p)).collect();
    let matrix: Vec<(usize, StreamKernel)> = (0..platforms.len())
        .flat_map(|i| [(i, StreamKernel::Memset), (i, StreamKernel::Triad)])
        .collect();
    let measured = queue::run_jobs(matrix, jobs, |_, (pi, kernel)| {
        stream_bandwidth(&shared[pi], &platforms[pi].spec(), working_set, kernel)
    });
    platforms
        .iter()
        .enumerate()
        .map(|(i, &platform)| {
            let spec = platform.spec();
            let (memset_bytes, memset_cycles) = measured[2 * i];
            let (triad_bytes, triad_cycles) = measured[2 * i + 1];
            let memset_bpc = memset_bytes as f64 / memset_cycles as f64;
            MachineCharacterization {
                platform,
                peak_vector_gflops: theoretical_vector_peak_gflops(&spec),
                peak_scalar_gflops: theoretical_scalar_peak_gflops(&spec),
                memset_gbps: memset_bpc * spec.freq_hz as f64 / 1e9,
                triad_gbps: triad_bytes as f64 / triad_cycles as f64 * spec.freq_hz as f64 / 1e9,
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
        let platforms = [Platform::SpacemitX60, Platform::SifiveU74];
        // 4 jobs (2 platforms × 2 kernels) on 3 workers vs the serial
        // per-platform path: bit-identical measured bandwidths.
        let many = characterize_many(&platforms, 1 << 20, 3);
        for (p, got) in platforms.iter().zip(&many) {
            let lone = characterize_with(*p, 1 << 20);
            assert_eq!(got, &lone, "{p:?}");
        }
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
