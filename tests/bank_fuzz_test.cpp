// Structure-fuzz for DetectorBank: 500 seeded cases drive a bank of a
// random config through random interleavings of lane adds, single-value
// feeds, per-lane batches, lockstep rows, scatter/gather batches, resets and
// checkpoint round-trips, with an independent scalar detector per lane as
// the shadow model — after every case the trigger histories, snapshots and
// serialized states must match bit for bit. Degenerate shapes (empty bank,
// single lane, empty batches) are part of the operation mix, and a separate
// suite asserts the steady-state batch paths never touch the heap (this
// binary replaces the global allocator with a counting one, so it stays its
// own executable like obs_overhead_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/bank.h"
#include "core/controller.h"
#include "core/detector.h"
#include "core/factory.h"
#include "core/registry.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace

// The replacements stay out of line. When GCC 12 inlines one side of a
// vector's new/delete pair into a test body and not the other, it sees
// malloc() meet operator delete (or operator new meet free()) and reports
// -Wmismatched-new-delete, although both sides are this file's malloc/free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rejuv;

constexpr std::uint64_t kRootSeed = 0xF0220'BA2ULL;
constexpr int kFuzzCases = 500;
constexpr std::size_t kMaxLanes = 9;

const char* const kFamilies[] = {"Static", "SRAA", "SARAA", "SARAA-noaccel", "CLTA"};

std::uint64_t pick(common::RngStream& rng, std::uint64_t bound) {
  return static_cast<std::uint64_t>(rng.uniform01() * static_cast<double>(bound)) % bound;
}

core::DetectorConfig random_config(std::string_view family, common::RngStream& rng) {
  core::DetectorConfig config{family};
  if (config.has("n")) config.set("n", static_cast<double>(1 + pick(rng, 6)));
  if (config.has("K")) config.set("K", static_cast<double>(1 + pick(rng, 6)));
  if (config.has("D")) config.set("D", static_cast<double>(1 + pick(rng, 5)));
  if (config.has("z")) config.set("z", 0.25 + 2.75 * rng.uniform01());
  config.baseline.mean = 2.0 + 6.0 * rng.uniform01();
  config.baseline.stddev = 0.5 + 5.0 * rng.uniform01();
  return config;
}

double random_value(common::RngStream& rng) {
  // Healthy / degraded mix so cascades escalate, de-escalate and trigger.
  return rng.uniform01() < 0.45 ? 10.0 + 30.0 * rng.uniform01() : 10.0 * rng.uniform01();
}

/// Shadow of one bank lane: the scalar twin plus its own feed counter and
/// trigger history (bank triggers are 1-based per-lane feed counts).
struct ShadowLane {
  std::unique_ptr<core::Detector> detector;
  std::uint64_t observations = 0;
  std::vector<std::uint64_t> triggers;

  void feed(double value) {
    ++observations;
    if (detector->observe(value) == core::Decision::kRejuvenate) {
      triggers.push_back(observations);
    }
  }
};

void expect_state_eq(const core::DetectorState& a, const core::DetectorState& b,
                     const std::string& context) {
  EXPECT_EQ(a.algorithm, b.algorithm) << context;
  EXPECT_EQ(a.bucket, b.bucket) << context;
  EXPECT_EQ(a.fill, b.fill) << context;
  EXPECT_EQ(a.window_length, b.window_length) << context;
  EXPECT_EQ(a.window_next, b.window_next) << context;
  EXPECT_EQ(a.window_count, b.window_count) << context;
  EXPECT_EQ(a.window_sum, b.window_sum) << context;
  EXPECT_EQ(a.current_n, b.current_n) << context;
  EXPECT_EQ(a.last_average, b.last_average) << context;
}

void run_fuzz_case(int index, bool force_scalar) {
  common::RngStream rng(kRootSeed, static_cast<std::uint64_t>(index) * 2 + (force_scalar ? 1 : 0));
  const char* family = kFamilies[pick(rng, std::size(kFamilies))];
  const core::DetectorConfig config = random_config(family, rng);
  core::DetectorBank bank(config);
  bank.force_scalar(force_scalar);
  std::vector<ShadowLane> shadow;
  const std::string context = core::describe(config) + " case " + std::to_string(index) +
                              (force_scalar ? " portable" : " simd");

  const std::size_t ops = 20 + pick(rng, 40);
  for (std::size_t op = 0; op < ops; ++op) {
    switch (pick(rng, 7)) {
      case 0: {  // add a lane
        if (bank.lanes() >= kMaxLanes) break;
        const std::size_t lane = bank.add_lane();
        ASSERT_EQ(lane, shadow.size()) << context;
        shadow.push_back({core::make_detector(config), 0, {}});
        break;
      }
      case 1: {  // per-lane batch (possibly empty)
        if (bank.lanes() == 0) break;
        const std::size_t lane = pick(rng, bank.lanes());
        std::vector<double> batch(pick(rng, 18));
        for (double& v : batch) v = random_value(rng);
        const std::vector<std::uint32_t> ids(batch.size(), static_cast<std::uint32_t>(lane));
        bank.observe_lanes(ids, batch);
        for (const double v : batch) shadow[lane].feed(v);
        break;
      }
      case 2: {  // lockstep rows (possibly zero rows)
        if (bank.lanes() == 0) break;
        const std::size_t rows = pick(rng, 6);
        std::vector<double> values(rows * bank.lanes());
        for (double& v : values) v = random_value(rng);
        bank.observe_rows(values);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t lane = 0; lane < bank.lanes(); ++lane) {
            shadow[lane].feed(values[r * bank.lanes() + lane]);
          }
        }
        break;
      }
      case 3: {  // scatter/gather interleave (possibly empty)
        if (bank.lanes() == 0) break;
        const std::size_t n = pick(rng, 41);
        std::vector<std::uint32_t> ids(n);
        std::vector<double> values(n);
        for (std::size_t i = 0; i < n; ++i) {
          ids[i] = static_cast<std::uint32_t>(pick(rng, bank.lanes()));
          values[i] = random_value(rng);
        }
        bank.observe_lanes(ids, values);
        for (std::size_t i = 0; i < n; ++i) shadow[ids[i]].feed(values[i]);
        break;
      }
      case 4: {  // checkpoint round-trip on a random lane
        if (bank.lanes() == 0) break;
        const std::size_t lane = pick(rng, bank.lanes());
        const core::DetectorState state = bank.save_state(lane);
        bank.restore_state(lane, state);
        shadow[lane].detector->restore_state(shadow[lane].detector->save_state());
        expect_state_eq(bank.save_state(lane), shadow[lane].detector->save_state(),
                        context + " round-trip lane " + std::to_string(lane));
        break;
      }
      case 5: {  // external reset of a random lane
        if (bank.lanes() == 0) break;
        const std::size_t lane = pick(rng, bank.lanes());
        bank.reset(lane);
        shadow[lane].detector->reset();
        break;
      }
      case 6: {  // cross-restore: move lane state into a fresh single-lane bank
        if (bank.lanes() == 0) break;
        const std::size_t lane = pick(rng, bank.lanes());
        // The scalar detector must accept the bank's serialized state and
        // vice versa — the restore surfaces are interchangeable.
        const core::DetectorState state = bank.save_state(lane);
        auto twin = core::make_detector(config);
        twin->restore_state(state);
        core::DetectorBank fresh(config);
        fresh.add_lane();
        fresh.restore_state(0, twin->save_state());
        expect_state_eq(fresh.save_state(0), state,
                        context + " cross-restore lane " + std::to_string(lane));
        break;
      }
    }
  }

  // End-of-case verdict: every lane bit-identical to its shadow.
  ASSERT_EQ(bank.lanes(), shadow.size()) << context;
  std::vector<std::vector<std::uint64_t>> bank_triggers(bank.lanes());
  for (const core::BankTrigger& trigger : bank.triggers()) {
    bank_triggers[trigger.lane].push_back(trigger.observation);
  }
  for (std::size_t lane = 0; lane < bank.lanes(); ++lane) {
    const std::string lane_context =
        context + " lane " + std::to_string(lane) + " spec " + shadow[lane].detector->name();
    EXPECT_EQ(bank.observations(lane), shadow[lane].observations) << lane_context;
    EXPECT_EQ(bank_triggers[lane], shadow[lane].triggers) << lane_context;
    EXPECT_EQ(bank.name(lane), shadow[lane].detector->name()) << lane_context;
    expect_state_eq(bank.save_state(lane), shadow[lane].detector->save_state(), lane_context);
  }
}

TEST(BankFuzz, RandomInterleavingsMatchScalarShadow) {
  for (int index = 0; index < kFuzzCases; ++index) {
    run_fuzz_case(index, /*force_scalar=*/false);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "first divergence at case " << index;
  }
}

TEST(BankFuzz, RandomInterleavingsMatchScalarShadowPortable) {
  // Same fuzz with the intrinsic kernels disabled: divergence here but not
  // above would indict the portable kernels themselves.
  for (int index = 0; index < kFuzzCases; ++index) {
    run_fuzz_case(index, /*force_scalar=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "first divergence at case " << index;
  }
}

TEST(BankFuzz, DegenerateShapes) {
  core::DetectorBank empty(core::DetectorConfig{"SRAA"});
  EXPECT_EQ(empty.lanes(), 0u);
  EXPECT_THROW(empty.observe_rows(std::vector<double>{1.0}), std::invalid_argument);
  empty.observe_rows({});  // zero rows of zero lanes is a no-op
  empty.observe_lanes({}, {});
  EXPECT_TRUE(empty.triggers().empty());
  EXPECT_THROW(empty.observe(0, 1.0), std::invalid_argument);
  EXPECT_THROW(empty.snapshot(0), std::invalid_argument);

  core::DetectorConfig config{"CLTA"};
  core::DetectorBank single(config);
  single.add_lane();
  const auto scalar = core::make_detector(config);
  single.observe_lanes({}, {});  // empty batch is a no-op
  EXPECT_EQ(single.observations(0), 0u);
  common::RngStream rng(kRootSeed, 0xD0);
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row{random_value(rng)};
    single.observe_rows(row);
    scalar->observe(row[0]);
  }
  expect_state_eq(single.save_state(0), scalar->save_state(), "single-lane CLTA");

  std::vector<std::uint32_t> bad_ids{7};
  std::vector<double> one{1.0};
  EXPECT_THROW(single.observe_lanes(bad_ids, one), std::invalid_argument);
  std::vector<std::uint32_t> ids{0};
  EXPECT_THROW(single.observe_lanes(ids, std::span<const double>{}), std::invalid_argument);
}

TEST(BankFuzz, SteadyStateBatchPathsAllocateNothing) {
  common::RngStream rng(kRootSeed, 0xA110C);
  for (const char* family : kFamilies) {
    core::DetectorBank bank(random_config(family, rng));
    bank.add_lanes(8);

    std::vector<double> rows(64 * bank.lanes());
    std::vector<std::uint32_t> ids(256);
    std::vector<double> values(256);
    const std::vector<std::uint32_t> lane0_ids(64, 0);
    for (double& v : rows) v = random_value(rng);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<std::uint32_t>(pick(rng, bank.lanes()));
      values[i] = random_value(rng);
    }
    // Warm-up: grow the trigger log and the scatter/gather scratch to
    // working size, then demand allocation-free steady state.
    bank.reserve_triggers(4096);
    bank.observe_rows(rows);
    bank.observe_lanes(ids, values);
    bank.clear_triggers();

    const std::uint64_t before = allocations();
    for (int repeat = 0; repeat < 50; ++repeat) {
      bank.observe_rows(rows);
      bank.observe_lanes(lane0_ids, std::span(rows).subspan(0, 64));
      bank.observe_lanes(ids, values);
      bank.clear_triggers();
    }
    EXPECT_EQ(allocations(), before)
        << family << ": steady-state bank advance touched the heap";
  }
}

TEST(BankFuzz, BankControllerMatchesScalarControllersUnderFuzz) {
  // BankController vs one RejuvenationController per lane, including
  // cooldown suppression: indices, observation counters and serialized
  // controller state must agree under random batch interleavings.
  for (int index = 0; index < 60; ++index) {
    common::RngStream rng(kRootSeed, 0xC0'0000 + static_cast<std::uint64_t>(index));
    const char* family = kFamilies[pick(rng, std::size(kFamilies))];
    const std::uint64_t cooldown = pick(rng, 3) == 0 ? 0 : 1 + pick(rng, 20);
    const core::DetectorConfig config = random_config(family, rng);
    core::BankController controller(config, cooldown);
    std::vector<core::RejuvenationController> scalars;
    const std::size_t lane_count = 1 + pick(rng, 5);
    scalars.reserve(lane_count);
    controller.add_lanes(lane_count);
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      scalars.emplace_back(core::make_detector(config), cooldown);
    }
    const std::string context = core::describe(config) + " cooldown " +
                                std::to_string(cooldown) + " case " + std::to_string(index);
    for (int op = 0; op < 30; ++op) {
      const std::size_t lane = pick(rng, lane_count);
      if (pick(rng, 4) == 0) {
        const double value = random_value(rng);
        EXPECT_EQ(controller.observe(lane, value), scalars[lane].observe(value)) << context;
      } else {
        std::vector<double> batch(pick(rng, 25));
        for (double& v : batch) v = random_value(rng);
        const std::vector<std::uint32_t> ids(batch.size(), static_cast<std::uint32_t>(lane));
        EXPECT_EQ(controller.observe_lanes(ids, batch), scalars[lane].observe_all(batch))
            << context;
      }
      if (op % 11 == 10) {
        const core::ControllerState state = controller.save_state(lane);
        controller.restore_state(lane, state);
      }
    }
    for (std::size_t lane = 0; lane < lane_count; ++lane) {
      const std::string lane_context = context + " lane " + std::to_string(lane);
      EXPECT_EQ(controller.observations(lane), scalars[lane].observations()) << lane_context;
      EXPECT_EQ(controller.rejuvenations(lane), scalars[lane].rejuvenations()) << lane_context;
      EXPECT_EQ(controller.trigger_indices(lane), scalars[lane].trigger_indices()) << lane_context;
      const core::ControllerState bank_state = controller.save_state(lane);
      const core::ControllerState scalar_state = scalars[lane].save_state();
      EXPECT_EQ(bank_state.observations, scalar_state.observations) << lane_context;
      EXPECT_EQ(bank_state.cooldown_remaining, scalar_state.cooldown_remaining) << lane_context;
      EXPECT_EQ(bank_state.trigger_indices, scalar_state.trigger_indices) << lane_context;
      expect_state_eq(bank_state.detector, scalar_state.detector, lane_context);
    }
  }
}

}  // namespace
