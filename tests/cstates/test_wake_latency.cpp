#include <gtest/gtest.h>

#include <ostream>

#include "cstates/wake_latency.hpp"
#include "util/rng.hpp"

namespace hsw::cstates {
namespace {

using util::Frequency;
using util::Time;

class HswLatency : public ::testing::Test {
protected:
    WakeLatencyModel model{arch::Generation::HaswellEP};
};

TEST_F(HswLatency, C1BelowTwoMicroseconds) {
    // "Transitions from C1 are below 1.6 us for local ... up to 2.1 us for
    // remote measurement (at 1.2 GHz core frequency)".
    for (double f = 1.2; f <= 2.5; f += 0.1) {
        EXPECT_LE(model.mean_latency(CState::C1, Frequency::ghz(f),
                                     WakeScenario::Local).as_us(), 1.6);
    }
    EXPECT_LE(model.mean_latency(CState::C1, Frequency::ghz(1.2),
                                 WakeScenario::RemoteActive).as_us(), 2.1);
}

TEST_F(HswLatency, C3MostlyFrequencyIndependentWithStepAbove1500) {
    // "mostly independent of the core frequencies. However, the latency is
    // 1.5 us higher when frequencies are greater than 1.5 GHz".
    const double lo = model.mean_latency(CState::C3, Frequency::ghz(1.2),
                                         WakeScenario::Local).as_us();
    const double lo2 = model.mean_latency(CState::C3, Frequency::ghz(1.5),
                                          WakeScenario::Local).as_us();
    const double hi = model.mean_latency(CState::C3, Frequency::ghz(2.5),
                                         WakeScenario::Local).as_us();
    EXPECT_NEAR(lo, lo2, 0.01);
    EXPECT_NEAR(hi - lo, 1.5, 0.01);
}

TEST_F(HswLatency, PackageC3AddsTwoToFourMicroseconds) {
    for (double f = 1.2; f <= 2.5; f += 0.1) {
        const double remote = model.mean_latency(CState::C3, Frequency::ghz(f),
                                                 WakeScenario::RemoteActive).as_us();
        const double pkg = model.mean_latency(CState::C3, Frequency::ghz(f),
                                              WakeScenario::RemoteIdle).as_us();
        EXPECT_GE(pkg - remote, 2.0 - 0.01) << f;
        EXPECT_LE(pkg - remote, 4.0 + 0.01) << f;
    }
}

TEST_F(HswLatency, C6AddsTwoToEightOverC3DependingOnFrequency) {
    const double add_fast = model.mean_latency(CState::C6, Frequency::ghz(2.5),
                                               WakeScenario::Local).as_us() -
                            model.mean_latency(CState::C3, Frequency::ghz(2.5),
                                               WakeScenario::Local).as_us();
    const double add_slow = model.mean_latency(CState::C6, Frequency::ghz(1.2),
                                               WakeScenario::Local).as_us() -
                            model.mean_latency(CState::C3, Frequency::ghz(1.2),
                                               WakeScenario::Local).as_us();
    EXPECT_NEAR(add_fast, 2.0, 0.1);
    EXPECT_NEAR(add_slow, 8.0, 0.1);
}

TEST_F(HswLatency, PackageC6AddsEightOverPackageC3) {
    const double pkg_c3 = model.mean_latency(CState::C3, Frequency::ghz(2.0),
                                             WakeScenario::RemoteIdle).as_us();
    const double pkg_c6 = model.mean_latency(CState::C6, Frequency::ghz(2.0),
                                             WakeScenario::RemoteIdle).as_us();
    // C6 adds its core-level extra plus the 8 us package C6 restart.
    EXPECT_GT(pkg_c6 - pkg_c3, 8.0);
}

TEST_F(HswLatency, MeasuredBelowAcpiTables) {
    // The Section VI-B punchline.
    for (double f = 1.2; f <= 2.5; f += 0.1) {
        for (auto scenario : {WakeScenario::Local, WakeScenario::RemoteActive,
                              WakeScenario::RemoteIdle}) {
            EXPECT_LT(model.mean_latency(CState::C3, Frequency::ghz(f), scenario).as_us(),
                      33.0);
            EXPECT_LT(model.mean_latency(CState::C6, Frequency::ghz(f), scenario).as_us(),
                      133.0);
        }
    }
}

TEST_F(HswLatency, CstateFasterThanPstateTransitions) {
    // "the c-state transitions happen faster than p-state transitions".
    EXPECT_LT(model.mean_latency(CState::C6, Frequency::ghz(1.2),
                                 WakeScenario::RemoteIdle).as_us(), 40.0);
}

TEST(SnbLatency, SlowerThanHaswell) {
    const WakeLatencyModel hsw{arch::Generation::HaswellEP};
    const WakeLatencyModel snb{arch::Generation::SandyBridgeEP};
    for (double f = 1.2; f <= 2.5; f += 0.3) {
        EXPECT_GT(snb.mean_latency(CState::C3, Frequency::ghz(f),
                                   WakeScenario::Local).as_us(),
                  hsw.mean_latency(CState::C3, Frequency::ghz(f),
                                   WakeScenario::Local).as_us());
        EXPECT_GT(snb.mean_latency(CState::C6, Frequency::ghz(f),
                                   WakeScenario::Local).as_us(),
                  hsw.mean_latency(CState::C6, Frequency::ghz(f),
                                   WakeScenario::Local).as_us());
    }
}

TEST(WakeSamples, NoisyButNonNegativeAndUnbiased) {
    const WakeLatencyModel model{arch::Generation::HaswellEP};
    util::Rng rng{5};
    double sum = 0.0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        const Time t = model.sample(CState::C3, Frequency::ghz(2.0),
                                    WakeScenario::Local, rng);
        ASSERT_GE(t.as_us(), 0.0);
        sum += t.as_us();
    }
    const double mean_latency = model.mean_latency(CState::C3, Frequency::ghz(2.0),
                                                   WakeScenario::Local).as_us();
    EXPECT_NEAR(sum / n, mean_latency, 0.05);
}

// Property sweep: latency ordering local <= remote-active <= remote-idle
// holds for every state and frequency.
struct OrderingParam {
    CState state;
    int freq_x10;
};

// Names the case by state and clock; gtest's default print of the struct's
// bytes (and so the ctest name) would hold spaces.
void PrintTo(const OrderingParam& p, std::ostream* os) {
    *os << name(p.state) << "At" << p.freq_x10 * 100 << "MHz";
}

class ScenarioOrdering : public ::testing::TestWithParam<OrderingParam> {};

TEST_P(ScenarioOrdering, LocalFastestPackageSlowest) {
    const WakeLatencyModel model{arch::Generation::HaswellEP};
    const auto [state, fx10] = GetParam();
    const Frequency f = Frequency::ghz(fx10 / 10.0);
    const double local = model.mean_latency(state, f, WakeScenario::Local).as_us();
    const double remote = model.mean_latency(state, f, WakeScenario::RemoteActive).as_us();
    const double pkg = model.mean_latency(state, f, WakeScenario::RemoteIdle).as_us();
    EXPECT_LE(local, remote);
    EXPECT_LE(remote, pkg);
}

INSTANTIATE_TEST_SUITE_P(
    StatesAndFrequencies, ScenarioOrdering,
    ::testing::Values(OrderingParam{CState::C3, 12}, OrderingParam{CState::C3, 18},
                      OrderingParam{CState::C3, 25}, OrderingParam{CState::C6, 12},
                      OrderingParam{CState::C6, 18}, OrderingParam{CState::C6, 25}));

}  // namespace
}  // namespace hsw::cstates
