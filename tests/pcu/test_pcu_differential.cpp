// Randomized differential test: the incremental PcuController (V/f table,
// per-core power-term memo, budget-search memo, reused buffers) against
// the naive reference pipeline in reference_pcu.hpp. Both see the same
// seeded stream of inputs -- workload switches, parks and wakes, AVX and
// AVX-512 license transitions, HWP on/off, power-limit and
// uncore-ratio-limit writes -- and every PcuOutputs field must agree bit
// for bit on every tick. The memos are an optimization, never a semantic
// change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "pcu/hwp.hpp"
#include "pcu/pcu.hpp"
#include "platform/registry.hpp"
#include "reference_pcu.hpp"
#include "util/rng.hpp"

namespace hsw::pcu {
namespace {

using util::Frequency;
using util::Time;

constexpr int kTicksPerSeed = 4000;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

/// A workload as the PCU sees it.
struct Profile {
    double avx = 0.0;
    double avx512 = 0.0;
    double stall = 0.0;
    double cdyn = 0.0;
    double traffic = 0.0;
    double intensity = 0.0;
};

// FIRESTARTER-, LINPACK-, stream-, while(1)- and AVX-512-like mixes; the
// AVX densities straddle both license thresholds.
const Profile kProfiles[] = {
    {0.95, 0.00, 0.06, 1.00, 1.00, 0.85},  // FIRESTARTER
    {0.90, 0.00, 0.02, 0.92, 0.40, 1.00},  // LINPACK (guardband)
    {0.00, 0.00, 0.80, 0.35, 0.90, 0.20},  // memory streaming
    {0.00, 0.00, 0.00, 0.25, 0.00, 0.10},  // while(1)
    {0.60, 0.50, 0.10, 1.05, 0.70, 0.90},  // AVX-512 kernel
    {0.35, 0.10, 0.30, 0.60, 0.50, 0.50},  // AVX just over the 256-bit line
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const PcuOutputs& a, const PcuOutputs& b, const std::string& where) {
    ASSERT_EQ(a.cores.size(), b.cores.size()) << where;
    for (std::size_t i = 0; i < a.cores.size(); ++i) {
        const CoreGrant& x = a.cores[i];
        const CoreGrant& y = b.cores[i];
        ASSERT_EQ(bits(x.frequency.as_hz()), bits(y.frequency.as_hz())) << where << " core " << i;
        ASSERT_EQ(bits(x.voltage.as_volts()), bits(y.voltage.as_volts())) << where << " core " << i;
        ASSERT_EQ(x.avx_licensed, y.avx_licensed) << where << " core " << i;
        ASSERT_EQ(x.license_level, y.license_level) << where << " core " << i;
        ASSERT_EQ(bits(x.throughput_factor), bits(y.throughput_factor)) << where << " core " << i;
    }
    ASSERT_EQ(bits(a.uncore_frequency.as_hz()), bits(b.uncore_frequency.as_hz())) << where;
    ASSERT_EQ(bits(a.uncore_voltage.as_volts()), bits(b.uncore_voltage.as_volts())) << where;
    ASSERT_EQ(a.uncore_clock_halted, b.uncore_clock_halted) << where;
    ASSERT_EQ(a.tdp_limited, b.tdp_limited) << where;
    ASSERT_EQ(bits(a.estimated_package_power.as_watts()),
              bits(b.estimated_package_power.as_watts()))
        << where;
    ASSERT_EQ(a.die_uncore_frequency.size(), b.die_uncore_frequency.size()) << where;
    for (std::size_t d = 0; d < a.die_uncore_frequency.size(); ++d) {
        ASSERT_EQ(bits(a.die_uncore_frequency[d].as_hz()), bits(b.die_uncore_frequency[d].as_hz()))
            << where << " die " << d;
    }
}

/// What the fuzz reached, so a quiet stream cannot pass vacuously.
struct Coverage {
    unsigned tdp_limited = 0;
    unsigned headroom = 0;
    unsigned idle = 0;
    unsigned level2 = 0;
    unsigned hwp = 0;
};

class Fuzzer {
public:
    Fuzzer(const arch::Sku& sku, std::uint64_t seed)
        : sku_{sku}, rng_{seed}, traffic_(sku.cores), intensity_(sku.cores) {
        in_.cores.resize(sku.cores);
        for (std::size_t i = 0; i < in_.cores.size(); ++i) {
            assign(i, kProfiles[0]);
            in_.cores[i].requested_ratio = sku.nominal_frequency.ratio() + 1;
        }
        refresh_aggregates();
        in_.fastest_system_core = sku.nominal_frequency;
    }

    const PcuInputs& inputs() const { return in_; }

    /// Mutate the inputs for the next tick; most ticks change nothing, as
    /// in a steady run, so the memos get reused between the mutations.
    void step() {
        const double roll = rng_.uniform();
        if (roll < 0.50) {
            // steady tick
        } else if (roll < 0.55) {
            // A phase change that keeps the core's cdyn: only its stall
            // fraction or its uncore traffic moves.
            const std::size_t i = core();
            if (in_.cores[i].state == cstates::CState::C0) {
                if (rng_.uniform() < 0.5) {
                    in_.cores[i].stall_fraction = rng_.uniform(0.0, 0.9);
                } else {
                    traffic_[i] = rng_.uniform(0.0, 1.0);
                }
            }
        } else if (roll < 0.63) {
            assign(core(), profile());
        } else if (roll < 0.66) {
            const Profile& p = profile();
            for (std::size_t i = 0; i < in_.cores.size(); ++i) assign(i, p);
        } else if (roll < 0.72) {
            park(core());
        } else if (roll < 0.74) {
            for (std::size_t i = 0; i < in_.cores.size(); ++i) park(i);
        } else if (roll < 0.77) {
            const Profile& p = profile();
            for (std::size_t i = 0; i < in_.cores.size(); ++i) {
                if (in_.cores[i].state != cstates::CState::C0) assign(i, p);
            }
        } else if (roll < 0.81) {
            set_requests();
        } else if (roll < 0.83) {
            const msr::EpbPolicy policies[] = {msr::EpbPolicy::Performance,
                                               msr::EpbPolicy::Balanced,
                                               msr::EpbPolicy::EnergySaving};
            in_.epb = policies[rng_.uniform_u64(3)];
        } else if (roll < 0.84) {
            in_.turbo_enabled = !in_.turbo_enabled;
        } else if (roll < 0.86) {
            in_.hwp_enabled = !in_.hwp_enabled;
        } else if (roll < 0.88) {
            write_hwp_requests();
        } else if (roll < 0.91) {
            // MSR_PKG_POWER_LIMIT: off, or a cap around and below TDP.
            in_.power_limit_watts =
                rng_.uniform() < 0.3 ? 0.0
                                     : rng_.uniform(0.4, 1.1) * sku_.tdp.as_watts();
        } else if (roll < 0.93) {
            in_.uncore_ratio_limit_raw =
                rng_.uniform() < 0.3
                    ? 0
                    : encode_uncore_ratio_limit(
                          static_cast<unsigned>(rng_.uniform_u64(20)) + 12,
                          static_cast<unsigned>(rng_.uniform_u64(16)));
        } else if (roll < 0.97) {
            // The other socket's fastest core: a few dithering values, or
            // idle.
            const unsigned r = sku_.nominal_frequency.ratio();
            const unsigned choices[] = {0, r - 2, r, r + 1, r + 3};
            in_.fastest_system_core = Frequency::from_ratio(choices[rng_.uniform_u64(5)]);
        } else if (roll < 0.98) {
            in_.system_active = !in_.system_active;
        } else {
            // Modulated load (sinus/mprime): cdyn wanders on one core.
            auto& c = in_.cores[core()];
            if (c.state == cstates::CState::C0) c.cdyn_utilization *= rng_.uniform(0.8, 1.2);
        }
        refresh_aggregates();
    }

    /// The next tick's time: mostly the 500 us grid, sometimes a legacy
    /// immediate evaluation or a gap that lets licenses relax.
    Time advance(Time now) {
        const double roll = rng_.uniform();
        if (roll < 0.10) return now + Time::us(static_cast<std::int64_t>(rng_.uniform_u64(30)) + 1);
        if (roll < 0.15) return now + Time::ms(static_cast<std::int64_t>(rng_.uniform_u64(3)) + 1);
        return now + Time::us(496 + static_cast<std::int64_t>(rng_.uniform_u64(9)));
    }

private:
    std::size_t core() { return rng_.uniform_u64(in_.cores.size()); }
    const Profile& profile() { return kProfiles[rng_.uniform_u64(std::size(kProfiles))]; }

    void assign(std::size_t i, const Profile& p) {
        auto& c = in_.cores[i];
        c.state = cstates::CState::C0;
        c.avx_fraction = p.avx;
        c.avx512_fraction = p.avx512;
        c.stall_fraction = p.stall;
        c.cdyn_utilization = p.cdyn;
        traffic_[i] = p.traffic;
        intensity_[i] = p.intensity;
    }

    void park(std::size_t i) {
        const cstates::CState states[] = {cstates::CState::C1, cstates::CState::C3,
                                          cstates::CState::C6};
        auto& c = in_.cores[i];
        c.state = states[rng_.uniform_u64(3)];
        c.avx_fraction = c.avx512_fraction = c.stall_fraction = c.cdyn_utilization = 0.0;
        traffic_[i] = intensity_[i] = 0.0;
    }

    void set_requests() {
        // Anything from below the minimum to past the turbo bins, one core
        // or all of them.
        const unsigned lo = sku_.min_frequency.ratio() - 2;
        const unsigned span = sku_.max_turbo(1).ratio() + 4 - lo;
        const unsigned r = lo + static_cast<unsigned>(rng_.uniform_u64(span));
        if (rng_.uniform() < 0.5) {
            in_.cores[core()].requested_ratio = r;
        } else {
            for (auto& c : in_.cores) c.requested_ratio = r;
        }
    }

    void write_hwp_requests() {
        auto random_request = [&] {
            if (rng_.uniform() < 0.2) return std::uint64_t{0};
            HwpRequest req;
            req.min_ratio = static_cast<unsigned>(rng_.uniform_u64(20));
            req.max_ratio = static_cast<unsigned>(rng_.uniform_u64(40));
            req.desired_ratio = static_cast<unsigned>(rng_.uniform_u64(36));
            req.epp = static_cast<unsigned>(rng_.uniform_u64(256));
            return encode_hwp_request(req);
        };
        if (rng_.uniform() < 0.3) {
            in_.hwp_request_pkg_raw = random_request();
        } else {
            in_.cores[core()].hwp_request_raw = random_request();
        }
    }

    void refresh_aggregates() {
        double traffic = 0.0;
        double intensity = 0.0;
        for (std::size_t i = 0; i < in_.cores.size(); ++i) {
            if (in_.cores[i].state != cstates::CState::C0) continue;
            traffic += traffic_[i];
            intensity = std::max(intensity, intensity_[i]);
        }
        in_.uncore_traffic = std::min(1.0, traffic / static_cast<double>(in_.cores.size()));
        in_.current_intensity = intensity;
    }

    const arch::Sku& sku_;
    util::Rng rng_;
    PcuInputs in_;
    std::vector<double> traffic_;    // per core, summed into uncore_traffic
    std::vector<double> intensity_;  // per core, max is current_intensity
};

Coverage fuzz(arch::Generation generation) {
    const auto& backend = platform::backend_for(generation);
    const arch::Sku& sku = backend.survey_sku();
    Coverage cov;
    for (const std::uint64_t seed : kSeeds) {
        const unsigned socket = static_cast<unsigned>(seed % 2);
        PcuController fast{sku, socket, &backend.pcu_policy()};
        reference::ReferencePcu naive{sku, socket, &backend.pcu_policy()};
        Fuzzer fuzzer{sku, seed * 7919 + static_cast<std::uint64_t>(generation)};
        Time now = Time::us(100);
        for (int tick = 0; tick < kTicksPerSeed; ++tick) {
            fuzzer.step();
            now = fuzzer.advance(now);
            const PcuOutputs expected = naive.evaluate(fuzzer.inputs(), now);
            const PcuOutputs& got = fast.evaluate(fuzzer.inputs(), now);
            expect_same(got, expected, "seed " + std::to_string(seed) + " tick " +
                                           std::to_string(tick));
            if (::testing::Test::HasFatalFailure()) return cov;

            bool any_active = false;
            for (std::size_t i = 0; i < got.cores.size(); ++i) {
                any_active |= fuzzer.inputs().cores[i].state == cstates::CState::C0;
                if (got.cores[i].license_level >= 2) ++cov.level2;
            }
            if (!any_active) {
                ++cov.idle;
            } else if (got.tdp_limited) {
                ++cov.tdp_limited;
            } else {
                ++cov.headroom;
            }
            if (fuzzer.inputs().hwp_enabled) ++cov.hwp;
        }
        // The memos were exercised, not bypassed.
        EXPECT_GT(fast.counters().search_reuses, 0u);
        EXPECT_EQ(fast.counters().ticks, static_cast<std::uint64_t>(kTicksPerSeed));
    }
    return cov;
}

TEST(PcuDifferential, HaswellEpMatchesReferenceBitForBit) {
    const Coverage cov = fuzz(arch::Generation::HaswellEP);
    EXPECT_GT(cov.tdp_limited, 500u);
    EXPECT_GT(cov.headroom, 500u);
    EXPECT_GT(cov.idle, 50u);
}

TEST(PcuDifferential, SandyBridgeEpMatchesReferenceBitForBit) {
    const Coverage cov = fuzz(arch::Generation::SandyBridgeEP);
    EXPECT_GT(cov.tdp_limited, 500u);
    EXPECT_GT(cov.headroom, 500u);
    EXPECT_GT(cov.idle, 50u);
}

TEST(PcuDifferential, SkylakeSpMatchesReferenceBitForBit) {
    const Coverage cov = fuzz(arch::Generation::SkylakeSP);
    EXPECT_GT(cov.tdp_limited, 500u);
    EXPECT_GT(cov.headroom, 500u);
    EXPECT_GT(cov.idle, 50u);
    EXPECT_GT(cov.level2, 1000u);  // AVX-512 licenses were granted
    EXPECT_GT(cov.hwp, 1000u);     // and HWP drove the requests
}

}  // namespace
}  // namespace hsw::pcu
