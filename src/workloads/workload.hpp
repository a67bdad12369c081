// Workload intermediate representation.
//
// A workload is characterized by what it does to the machine: execution-unit
// utilization (cdyn), instruction throughput and its sensitivity to the
// core/uncore clock ratio, AVX density (triggers the AVX frequency license),
// off-core stall fraction (input to UFS and EET), and DRAM traffic. The
// simulated cores integrate these properties over time; the same profiles
// drive the power model and the performance counters.
#pragma once

#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace hsw::workloads {

using util::Time;

enum class Modulation {
    Constant,   // steady utilization (FIRESTARTER's design goal)
    Sinusoid,   // smoothly varying load (the paper's "sinus" microbenchmark)
    SquareWave, // phase-alternating load (mprime's changing FFT kernels)
};

struct Workload {
    std::string_view name;

    // --- power inputs ---
    /// Dynamic-capacitance utilization relative to the FIRESTARTER payload
    /// with Hyper-Threading (= 1.0), per core.
    double cdyn_ht = 0.0;
    /// Same with one thread per core.
    double cdyn_noht = 0.0;
    /// Uncore traffic intensity in [0, 1] (ring/L3/IMC activity).
    double uncore_traffic = 0.0;
    /// Local DRAM read+write traffic per active core (GB/s at nominal clock).
    double dram_gbs_per_core = 0.0;

    // --- performance inputs ---
    /// Core IPC when core and uncore run at the same clock, with HT.
    double ipc_unity_ht = 0.0;
    /// Same with one thread per core.
    double ipc_unity_noht = 0.0;
    /// d(IPC)/d(f_core/f_uncore): how much relatively slower uncore hurts.
    double ipc_uncore_sens = 0.0;
    /// Fraction of 256-bit AVX/FMA instructions (AVX license trigger).
    double avx_fraction = 0.0;
    /// Fraction of 512-bit instructions (AVX-512 license trigger on
    /// Skylake-SP; ignored by generations without the second level).
    double avx512_fraction = 0.0;
    /// Off-core stall cycle fraction (UFS/EET input).
    double stall_fraction = 0.0;
    /// Peak-current intensity in [0, 1]; high-current code (LINPACK) makes
    /// the PCU budget conservatively below TDP (Section VIII discussion).
    double current_intensity = 0.0;

    // --- time variation ---
    Modulation modulation = Modulation::Constant;
    double modulation_period_s = 0.0;
    double modulation_depth = 0.0;  // peak-to-trough fraction of cdyn

    /// Utilization multiplier at simulation time `t` (1.0 for constant load).
    [[nodiscard]] double modulation_factor(Time t) const;

    /// The last instant through which modulation_factor() keeps the value
    /// it has at `t` (`t` itself for a sinusoid, Time::max() for a
    /// constant load).
    [[nodiscard]] Time steady_through(Time t) const;

    /// Effective cdyn at time `t` for the given threading.
    [[nodiscard]] double cdyn_at(Time t, bool hyperthreading) const;

    /// Core IPC for a clock ratio r = f_core / f_uncore.
    [[nodiscard]] double ipc(double core_uncore_ratio, bool hyperthreading) const;
};

/// The idle pseudo-workload (no runnable thread).
[[nodiscard]] const Workload& idle();

}  // namespace hsw::workloads
