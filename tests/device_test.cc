/**
 * @file
 * Tests for the device profiles (paper Tables 3-4), the power model
 * (Eq. 2), fleet composition, and the interference process.
 */

#include <gtest/gtest.h>

#include "device/device_profile.h"
#include "device/interference.h"
#include "device/power_model.h"
#include "util/rng.h"

namespace fedgpo {
namespace device {
namespace {

TEST(DeviceProfile, Table3Gflops)
{
    EXPECT_DOUBLE_EQ(profileFor(Category::High).gflops, 153.6);
    EXPECT_DOUBLE_EQ(profileFor(Category::Mid).gflops, 80.0);
    EXPECT_DOUBLE_EQ(profileFor(Category::Low).gflops, 52.8);
}

TEST(DeviceProfile, Table3Ram)
{
    EXPECT_DOUBLE_EQ(profileFor(Category::High).ram_gb, 8.0);
    EXPECT_DOUBLE_EQ(profileFor(Category::Mid).ram_gb, 4.0);
    EXPECT_DOUBLE_EQ(profileFor(Category::Low).ram_gb, 2.0);
}

TEST(DeviceProfile, Table4Power)
{
    const auto &h = profileFor(Category::High);
    EXPECT_DOUBLE_EQ(h.cpu_peak_w, 5.5);
    EXPECT_DOUBLE_EQ(h.gpu_peak_w, 2.8);
    EXPECT_EQ(h.cpu_vf_steps, 23);
    EXPECT_EQ(h.gpu_vf_steps, 7);
    const auto &l = profileFor(Category::Low);
    EXPECT_DOUBLE_EQ(l.cpu_peak_w, 3.6);
    EXPECT_DOUBLE_EQ(l.gpu_peak_w, 2.0);
    EXPECT_EQ(l.cpu_vf_steps, 15);
    EXPECT_EQ(l.gpu_vf_steps, 6);
}

TEST(DeviceProfile, CategoryNames)
{
    EXPECT_EQ(categoryName(Category::High), "H");
    EXPECT_EQ(categoryName(Category::Mid), "M");
    EXPECT_EQ(categoryName(Category::Low), "L");
}

TEST(FleetComposition, PaperMixAt200)
{
    auto fleet = fleetComposition(200);
    std::size_t h = 0, m = 0, l = 0;
    for (auto c : fleet) {
        h += c == Category::High;
        m += c == Category::Mid;
        l += c == Category::Low;
    }
    EXPECT_EQ(h, 30u);
    EXPECT_EQ(m, 70u);
    EXPECT_EQ(l, 100u);
}

TEST(FleetComposition, MixPreservedAtSmallScale)
{
    auto fleet = fleetComposition(40);
    std::size_t h = 0, m = 0, l = 0;
    for (auto c : fleet) {
        h += c == Category::High;
        m += c == Category::Mid;
        l += c == Category::Low;
    }
    EXPECT_EQ(h, 6u);
    EXPECT_EQ(m, 14u);
    EXPECT_EQ(l, 20u);
}

TEST(FleetComposition, NoEmptyTinyFleet)
{
    auto fleet = fleetComposition(1);
    EXPECT_EQ(fleet.size(), 1u);
}

TEST(PowerModel, BusyPowerMonotonicInStep)
{
    for (auto c : kAllCategories) {
        PowerModel power(profileFor(c));
        for (Unit u : {Unit::Cpu, Unit::Gpu}) {
            double prev = 0.0;
            for (int s = 0; s < power.steps(u); ++s) {
                const double p = power.busyPower(u, s);
                EXPECT_GT(p, prev) << categoryName(c);
                prev = p;
            }
        }
    }
}

TEST(PowerModel, TopStepHitsPeak)
{
    const auto &h = profileFor(Category::High);
    PowerModel power(h);
    EXPECT_NEAR(power.busyPower(Unit::Cpu, h.cpu_vf_steps - 1),
                h.cpu_peak_w, 1e-9);
    EXPECT_NEAR(power.busyPower(Unit::Gpu, h.gpu_vf_steps - 1),
                h.gpu_peak_w, 1e-9);
}

TEST(PowerModel, FrequencyLadderSpansUnitInterval)
{
    PowerModel power(profileFor(Category::Mid));
    EXPECT_GT(power.stepFrequencyFraction(Unit::Cpu, 0), 0.0);
    EXPECT_DOUBLE_EQ(
        power.stepFrequencyFraction(Unit::Cpu, power.steps(Unit::Cpu) - 1),
        1.0);
}

TEST(PowerModel, TrainingPowerBetweenIdleAndPeakSum)
{
    for (auto c : kAllCategories) {
        const auto &prof = profileFor(c);
        PowerModel power(prof);
        const double p = power.trainingPower();
        EXPECT_GT(p, prof.idle_w);
        EXPECT_LT(p, prof.cpu_peak_w + prof.gpu_peak_w);
    }
}

TEST(PowerModel, IdleEnergyLinearInTime)
{
    PowerModel power(profileFor(Category::High));
    EXPECT_DOUBLE_EQ(power.idleEnergy(20.0), 2.0 * power.idleEnergy(10.0));
    EXPECT_DOUBLE_EQ(power.idleEnergy(0.0), 0.0);
}

TEST(Interference, DisabledIsAlwaysZero)
{
    InterferenceProcess proc(false);
    util::Rng rng(1);
    for (int i = 0; i < 20; ++i) {
        auto s = proc.step(rng);
        EXPECT_EQ(s.co_cpu, 0.0);
        EXPECT_EQ(s.co_mem, 0.0);
        EXPECT_FALSE(s.active());
    }
}

TEST(Interference, EnabledStaysInRange)
{
    InterferenceProcess proc(true, 0.8);
    util::Rng rng(2);
    bool ever_active = false;
    for (int i = 0; i < 200; ++i) {
        auto s = proc.step(rng);
        EXPECT_GE(s.co_cpu, 0.0);
        EXPECT_LE(s.co_cpu, 1.0);
        EXPECT_GE(s.co_mem, 0.0);
        EXPECT_LE(s.co_mem, 1.0);
        ever_active |= s.active();
    }
    EXPECT_TRUE(ever_active);
}

TEST(Interference, ZeroProbabilityNeverActivates)
{
    InterferenceProcess proc(true, 0.0);
    util::Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(proc.step(rng).active());
}

TEST(Interference, LoadPersistsAcrossRounds)
{
    // AR(1) persistence: consecutive active states should be positively
    // correlated.
    InterferenceProcess proc(true, 1.0);
    util::Rng rng(4);
    double prev = -1.0;
    int close_pairs = 0, active_pairs = 0;
    for (int i = 0; i < 300; ++i) {
        auto s = proc.step(rng);
        if (s.active() && prev > 0.0) {
            ++active_pairs;
            if (std::abs(s.co_cpu - prev) < 0.3)
                ++close_pairs;
        }
        prev = s.active() ? s.co_cpu : -1.0;
    }
    ASSERT_GT(active_pairs, 50);
    EXPECT_GT(static_cast<double>(close_pairs) / active_pairs, 0.6);
}

} // namespace
} // namespace device
} // namespace fedgpo
