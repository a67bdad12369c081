// Randomized differential test: the memoized Socket (per-core power/IPC/DRAM
// terms, socket aggregate, cdyn cache that holds a square wave's phase)
// against the naive reference integration in reference_socket.hpp. Both see
// the same seeded stream of workload switches (sinus and short square waves
// that cross phase boundaries), workloads rebuilt in place (new fields, new
// phase length) and assigned again, parks
// to C1/C3/C6, wakes, zero-length advances, PCU grants, arbitrary grants
// with uncore halts, and system-activity flips. Every core counter, the
// package and uncore counters, the RAPL energies and raw counters and the
// thermal state must agree bit for bit after every step. The memo is an
// optimization, never a semantic change.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/socket.hpp"
#include "platform/registry.hpp"
#include "reference_socket.hpp"
#include "util/rng.hpp"
#include "workloads/mixes.hpp"

namespace hsw::core {
namespace {

using util::Frequency;
using util::Time;
using util::Voltage;

constexpr int kStepsPerSeed = 6000;
constexpr std::uint64_t kSeeds[] = {1, 2};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Mutable copies of the survey's workloads; the modulated ones get periods
/// of a few milliseconds, so the fuzz's steps keep crossing their phases.
std::array<workloads::Workload, 6> base_workloads() {
    std::array<workloads::Workload, 6> w = {
        workloads::firestarter(), workloads::linpack(),  workloads::mprime(),
        workloads::sinus(),       workloads::memory_stream(), workloads::busy_wait(),
    };
    w[1].modulation_period_s = 2e-3;
    w[2].modulation_period_s = 3.3e-3;
    w[3].modulation_period_s = 1.7e-3;
    return w;
}

/// What the fuzz reached, so a quiet stream cannot pass vacuously.
struct Coverage {
    unsigned grants = 0;
    unsigned rebuilds = 0;
    unsigned package_sleep = 0;
};

class Fuzzer {
public:
    Fuzzer(const arch::Sku& sku, unsigned socket, std::uint64_t seed)
        : sku_{sku},
          rng_{seed},
          fast_{sku, socket, true, rapl::DramMode::Mode1, seed},
          ref_{sku, socket, true, rapl::DramMode::Mode1, seed},
          workloads_{base_workloads()} {
        grants_.cores.resize(sku.cores);
        for (auto& g : grants_.cores) {
            g.frequency = sku.min_frequency;
            g.voltage = Voltage::volts(0.8);
        }
        grants_.uncore_frequency = sku.uncore_min;
        grants_.uncore_voltage = Voltage::volts(0.85);
    }

    /// One mutation, then an advance of both sockets to the next instant.
    void step(Coverage& cov) {
        const double roll = rng_.uniform();
        if (roll < 0.36) {
            // steady: the operating point holds
        } else if (roll < 0.44) {
            assign(core(), workload(), threads());
        } else if (roll < 0.47) {
            const workloads::Workload* w = workload();
            const unsigned t = threads();
            for (std::size_t i = 0; i < sku_.cores; ++i) assign(i, w, t);
        } else if (roll < 0.50) {
            rebuild();
            ++cov.rebuilds;
        } else if (roll < 0.56) {
            park(core(), parked_state());
        } else if (roll < 0.59) {
            const cstates::CState s = rng_.uniform() < 0.5 ? cstates::CState::C3
                                                           : cstates::CState::C6;
            for (std::size_t i = 0; i < sku_.cores; ++i) park(i, s);
        } else if (roll < 0.63) {
            // A wake completes: C0 without a workload until one is assigned.
            const std::size_t i = core();
            fast_.cores()[i].state = cstates::CState::C0;
            ref_.cores()[i].state = cstates::CState::C0;
        } else if (roll < 0.67) {
            // A second sync at the same instant integrates nothing.
            fast_.advance_to(now_);
            ref_.advance_to(now_);
        } else if (roll < 0.80) {
            pcu_tick();
            ++cov.grants;
        } else if (roll < 0.88) {
            random_grant();
            ++cov.grants;
        } else if (roll < 0.93) {
            hint_ = !hint_;
            fast_.set_system_active_hint(hint_);
            ref_.set_system_active_hint(hint_);
        } else if (roll < 0.97) {
            fast_.rapl().publish();
            ref_.rapl().publish();
            ASSERT_EQ(fast_.rapl().pkg_energy_raw(), ref_.rapl().pkg_energy_raw());
            ASSERT_EQ(fast_.rapl().dram_energy_raw(), ref_.rapl().dram_energy_raw());
        } else {
            ASSERT_EQ(bits(fast_.current_package_power(now_).as_watts()),
                      bits(ref_.current_package_power(now_).as_watts()));
            ASSERT_EQ(bits(fast_.current_dram_power().as_watts()),
                      bits(ref_.current_dram_power().as_watts()));
        }
        now_ = next(now_);
        fast_.advance_to(now_);
        ref_.advance_to(now_);
        if (!hint_ && !fast_.any_core_active()) ++cov.package_sleep;
    }

    void expect_same(const std::string& where) const {
        const auto& a = fast_.cores();
        const auto& b = ref_.cores();
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(bits(a[i].aperf), bits(b[i].aperf)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].mperf), bits(b[i].mperf)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].instructions), bits(b[i].instructions)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].core_cycles), bits(b[i].core_cycles)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].stall_cycles), bits(b[i].stall_cycles)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].c3_residency), bits(b[i].c3_residency)) << where << " core " << i;
            ASSERT_EQ(bits(a[i].c6_residency), bits(b[i].c6_residency)) << where << " core " << i;
        }
        ASSERT_EQ(bits(fast_.pkg_c3_residency()), bits(ref_.pkg_c3_residency())) << where;
        ASSERT_EQ(bits(fast_.pkg_c6_residency()), bits(ref_.pkg_c6_residency())) << where;
        ASSERT_EQ(bits(fast_.uncore_cycles()), bits(ref_.uncore_cycles())) << where;
        ASSERT_EQ(bits(fast_.rapl().true_pkg_energy().as_joules()),
                  bits(ref_.rapl().true_pkg_energy().as_joules()))
            << where;
        ASSERT_EQ(bits(fast_.rapl().true_dram_energy().as_joules()),
                  bits(ref_.rapl().true_dram_energy().as_joules()))
            << where;
        ASSERT_EQ(bits(fast_.thermal().temperature_celsius()),
                  bits(ref_.thermal().temperature_celsius()))
            << where;
    }

    [[nodiscard]] const Socket& fast() const { return fast_; }

private:
    std::size_t core() { return rng_.uniform_u64(sku_.cores); }
    const workloads::Workload* workload() {
        return &workloads_[rng_.uniform_u64(workloads_.size())];
    }
    unsigned threads() { return rng_.uniform() < 0.5 ? 1u : 2u; }
    cstates::CState parked_state() {
        const cstates::CState states[] = {cstates::CState::C1, cstates::CState::C3,
                                          cstates::CState::C6};
        return states[rng_.uniform_u64(3)];
    }

    void assign(std::size_t i, const workloads::Workload* w, unsigned t) {
        fast_.assign_workload(i, w, t);
        SimCore& c = ref_.cores()[i];
        c.workload = w;
        c.threads = t;
        c.state = cstates::CState::C0;
    }

    void park(std::size_t i, cstates::CState s) {
        for (SimCore* c : {&fast_.cores()[i], &ref_.cores()[i]}) {
            c->workload = nullptr;
            c->state = s;
        }
    }

    /// Rebuild one workload in place (same address, new fields) and assign
    /// it again to every core that runs it.
    void rebuild() {
        const std::size_t k = rng_.uniform_u64(workloads_.size());
        workloads::Workload& w = workloads_[k];
        switch (rng_.uniform_u64(7)) {
            case 0: w.uncore_traffic = rng_.uniform(0.0, 1.0); break;
            case 1: w.avx_fraction = rng_.uniform(0.0, 1.0); break;
            case 2: w.ipc_unity_ht = w.ipc_unity_noht = rng_.uniform(0.5, 3.5); break;
            case 3: w.dram_gbs_per_core = rng_.uniform(0.0, 8.0); break;
            case 4: w.cdyn_ht = w.cdyn_noht = rng_.uniform(0.2, 1.2); break;
            case 5:
                // A new phase length: the cached cdyn of the old phases
                // must not outlive the rebuild.
                w.modulation_period_s = rng_.uniform(1e-3, 4e-3);
                w.modulation_depth = rng_.uniform(0.0, 0.5);
                break;
            default: w = base_workloads()[k]; break;
        }
        for (std::size_t i = 0; i < sku_.cores; ++i) {
            const SimCore& c = fast_.cores()[i];
            if (c.workload == &w && c.state == cstates::CState::C0) assign(i, &w, c.threads);
        }
    }

    void pcu_tick() {
        const Frequency fastest = fast_.fastest_active_core();
        const pcu::PcuOutputs* a = fast_.pcu_tick(now_, hint_, fastest);
        const pcu::PcuOutputs* b = ref_.pcu_tick(now_, hint_, fastest);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a == nullptr) return;
        ASSERT_EQ(bits(a->estimated_package_power.as_watts()),
                  bits(b->estimated_package_power.as_watts()));
        ASSERT_EQ(bits(a->uncore_frequency.as_hz()), bits(b->uncore_frequency.as_hz()));
        for (std::size_t i = 0; i < a->cores.size(); ++i) {
            ASSERT_EQ(bits(a->cores[i].frequency.as_hz()), bits(b->cores[i].frequency.as_hz()));
            ASSERT_EQ(bits(a->cores[i].voltage.as_volts()), bits(b->cores[i].voltage.as_volts()));
        }
        grants_ = *a;
        fast_.apply_grants(grants_);
        ref_.apply_grants(grants_);
    }

    /// Arbitrary grants the PCU would rarely produce: one core's clock, the
    /// uncore clock alone (voltage kept), a new uncore voltage, an uncore
    /// halt, or a throughput ramp.
    void random_grant() {
        const unsigned lo = sku_.min_frequency.ratio();
        const unsigned span = sku_.max_turbo(1).ratio() + 1 - lo;
        switch (rng_.uniform_u64(5)) {
            case 0: {
                auto& g = grants_.cores[core()];
                g.frequency = Frequency::from_ratio(lo + static_cast<unsigned>(rng_.uniform_u64(span)));
                g.voltage = Voltage::volts(rng_.uniform(0.7, 1.1));
                break;
            }
            case 1:
                grants_.uncore_frequency = Frequency::from_ratio(
                    sku_.uncore_min.ratio() +
                    static_cast<unsigned>(rng_.uniform_u64(
                        sku_.uncore_max.ratio() + 1 - sku_.uncore_min.ratio())));
                break;
            case 2: grants_.uncore_voltage = Voltage::volts(rng_.uniform(0.75, 1.05)); break;
            case 3: grants_.uncore_clock_halted = !grants_.uncore_clock_halted; break;
            default:
                grants_.cores[core()].throughput_factor = rng_.uniform() < 0.5 ? 1.0 : 0.85;
                break;
        }
        fast_.apply_grants(grants_);
        ref_.apply_grants(grants_);
    }

    /// Mostly sub-grid gaps between events, sometimes a full opportunity
    /// period or a few milliseconds (across several modulation phases).
    Time next(Time now) {
        const double roll = rng_.uniform();
        if (roll < 0.60) return now + Time::ns(static_cast<std::int64_t>(rng_.uniform_u64(120'000)) + 1);
        if (roll < 0.90) return now + Time::us(450 + static_cast<std::int64_t>(rng_.uniform_u64(100)));
        return now + Time::us(static_cast<std::int64_t>(rng_.uniform_u64(6000)) + 1);
    }

    const arch::Sku& sku_;
    util::Rng rng_;
    Socket fast_;
    reference::ReferenceSocket ref_;
    std::array<workloads::Workload, 6> workloads_;
    pcu::PcuOutputs grants_;
    bool hint_ = false;
    Time now_ = Time::us(10);
};

struct BackendCase {
    const platform::PlatformBackend* backend;
};

// Names the case by the backend's name without punctuation; gtest's default
// print of the pointer (and so the ctest name) would change with the load
// address.
void PrintTo(const BackendCase& c, std::ostream* os) {
    for (const char ch : c.backend->name()) {
        if (std::isalnum(static_cast<unsigned char>(ch)) != 0) *os << ch;
    }
}

std::vector<BackendCase> backend_cases() {
    std::vector<BackendCase> cases;
    for (const platform::PlatformBackend* b : platform::all_backends()) cases.push_back({b});
    return cases;
}

class SocketDifferential : public ::testing::TestWithParam<BackendCase> {};

TEST_P(SocketDifferential, MatchesReferenceBitForBit) {
    const platform::PlatformBackend& backend = *GetParam().backend;
    const arch::Sku& sku = backend.survey_sku();
    Coverage cov;
    for (const std::uint64_t seed : kSeeds) {
        Fuzzer fuzzer{sku, static_cast<unsigned>(seed % 2),
                      seed * 7919 + static_cast<std::uint64_t>(sku.generation)};
        for (int step = 0; step < kStepsPerSeed; ++step) {
            fuzzer.step(cov);
            if (::testing::Test::HasFatalFailure()) return;
            fuzzer.expect_same("seed " + std::to_string(seed) + " step " + std::to_string(step));
            if (::testing::Test::HasFatalFailure()) return;
        }
        // The memo was exercised both ways: reused and re-evaluated.
        const SocketCounters& n = fuzzer.fast().counters();
        EXPECT_GT(n.operating_point_reuses, 0u);
        EXPECT_LT(n.operating_point_reuses, n.advances);
        EXPECT_GT(n.core_terms, 0u);
        EXPECT_LT(n.core_terms, n.advances * sku.cores);
    }
    EXPECT_GT(cov.grants, 1000u);
    EXPECT_GT(cov.rebuilds, 200u);
    EXPECT_GT(cov.package_sleep, 100u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SocketDifferential, ::testing::ValuesIn(backend_cases()));

}  // namespace
}  // namespace hsw::core
