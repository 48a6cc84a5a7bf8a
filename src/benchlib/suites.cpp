#include "benchlib/suites.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/bank.h"
#include "core/bucket_cascade.h"
#include "exec/pool.h"
#include "exec/work_stealing_deque.h"
#include "core/clta.h"
#include "core/factory.h"
#include "core/spec.h"
#include "core/saraa.h"
#include "core/sraa.h"
#include "core/static_rejuvenation.h"
#include "monitor/checkpoint.h"
#include "monitor/fleet.h"
#include "monitor/spsc_queue.h"
#include "monitor/stream_table.h"
#include "monitor/wire.h"
#include "obs/sink.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

namespace rejuv::benchlib {

namespace {

using namespace rejuv;
namespace wire = monitor::wire;

constexpr std::size_t kDataSize = 1 << 14;  // power of two: index is a mask
constexpr std::size_t kDataMask = kDataSize - 1;
constexpr std::size_t kBatch = 512;  // monitor-like drain batch

/// Deterministic response-time-like stream around the paper's (5, 5)
/// baseline: uniform in [0, 10], so bucket-0 exceedance probability is ~0.5
/// and the cascade genuinely wanders (the steady-state mix of escalations,
/// de-escalations and occasional triggers a live detector sees).
std::shared_ptr<std::vector<double>> make_observations() {
  auto data = std::make_shared<std::vector<double>>(kDataSize);
  common::RngStream rng(0xB3'5EED, 0);
  for (double& value : *data) value = 10.0 * rng.uniform01();
  return data;
}

/// `count` draws of Zipf(1) popularity over `population` items, each item
/// named by a shuffled index in [0, population), so hot items are scattered
/// over the index range rather than packed at its start.
std::vector<std::uint32_t> zipf_draws(std::size_t population, std::size_t count,
                                      common::RngStream& rng) {
  std::vector<std::uint32_t> item_of_rank(population);
  for (std::size_t r = 0; r < population; ++r) item_of_rank[r] = static_cast<std::uint32_t>(r);
  for (std::size_t r = population - 1; r > 0; --r) {
    const auto j = static_cast<std::size_t>(rng.uniform01() * static_cast<double>(r + 1));
    std::swap(item_of_rank[r], item_of_rank[j]);
  }
  std::vector<double> cdf(population);
  double sum = 0.0;
  for (std::size_t r = 0; r < population; ++r) cdf[r] = (sum += 1.0 / static_cast<double>(r + 1));
  for (double& c : cdf) c /= sum;
  std::vector<std::uint32_t> draws(count);
  for (std::uint32_t& item : draws) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01()) - cdf.begin());
    item = item_of_rank[std::min(rank, population - 1)];
  }
  return draws;
}

/// Feeds `count` observations one at a time.
void feed_observe(core::Detector& detector, const std::vector<double>& data,
                  std::uint64_t count) {
  std::uint64_t triggers = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    triggers += detector.observe(data[i & kDataMask]) == core::Decision::kRejuvenate ? 1u : 0u;
  }
  do_not_optimize(triggers);
}

/// Feeds `count` observations through observe_all in kBatch-sized spans,
/// resuming past triggers exactly as the monitor's drain loop does.
void feed_observe_all(core::Detector& detector, const std::vector<double>& data,
                      std::uint64_t count) {
  std::uint64_t triggers = 0;
  std::uint64_t done = 0;
  std::size_t offset = 0;
  while (done < count) {
    const std::size_t len =
        count - done < kBatch ? static_cast<std::size_t>(count - done) : kBatch;
    std::span<const double> batch(data.data() + offset, len);
    while (!batch.empty()) {
      const std::size_t index = detector.observe_all(batch);
      if (index == batch.size()) break;
      ++triggers;
      batch = batch.subspan(index + 1);
    }
    done += len;
    offset = (offset + len) & kDataMask;
  }
  do_not_optimize(triggers);
}

void register_detector_suite(Registry& registry) {
  const auto data = make_observations();
  const core::Baseline baseline{5.0, 5.0};

  const auto sraa = std::make_shared<core::Sraa>(core::SraaParams{2, 5, 3}, baseline);
  registry.add("detector", "detector.sraa.observe",
               [data, sraa](std::uint64_t n) { feed_observe(*sraa, *data, n); });
  const auto sraa_batch = std::make_shared<core::Sraa>(core::SraaParams{2, 5, 3}, baseline);
  registry.add("detector", "detector.sraa.observe_all",
               [data, sraa_batch](std::uint64_t n) { feed_observe_all(*sraa_batch, *data, n); });

  const auto saraa = std::make_shared<core::Saraa>(core::SaraaParams{2, 5, 3, true}, baseline);
  registry.add("detector", "detector.saraa.observe",
               [data, saraa](std::uint64_t n) { feed_observe(*saraa, *data, n); });
  const auto saraa_batch =
      std::make_shared<core::Saraa>(core::SaraaParams{2, 5, 3, true}, baseline);
  registry.add("detector", "detector.saraa.observe_all", [data, saraa_batch](std::uint64_t n) {
    feed_observe_all(*saraa_batch, *data, n);
  });

  const auto clta = std::make_shared<core::Clta>(core::CltaParams{30, 1.96}, baseline);
  registry.add("detector", "detector.clta.observe",
               [data, clta](std::uint64_t n) { feed_observe(*clta, *data, n); });
  const auto clta_batch = std::make_shared<core::Clta>(core::CltaParams{30, 1.96}, baseline);
  registry.add("detector", "detector.clta.observe_all",
               [data, clta_batch](std::uint64_t n) { feed_observe_all(*clta_batch, *data, n); });

  const auto static_det = std::make_shared<core::StaticRejuvenation>(5, 3, baseline);
  registry.add("detector", "detector.static.observe",
               [data, static_det](std::uint64_t n) { feed_observe(*static_det, *data, n); });

  // The related-work families, built through the registry exactly as the
  // tools build them (spec string -> make_detector), at their default knobs.
  const struct {
    const char* key;
    const char* spec;
  } related[] = {
      {"detector.adaptive.observe", "Adaptive(n=2,K=5,D=3,w=30,t=2,h=6)"},
      {"detector.ediv.observe", "EDiv(b=10,w=30,q=10,g=5)"},
      {"detector.entropy.observe", "Entropy(w=50,m=10,c=4,t=0.15,r=2)"},
      {"detector.mk.observe", "MK(w=30,z=1.645,s=0,L=3)"},
  };
  for (const auto& entry : related) {
    const std::shared_ptr<core::Detector> detector = core::make_detector(core::parse_spec(entry.spec));
    registry.add("detector", entry.key,
                 [data, detector](std::uint64_t n) { feed_observe(*detector, *data, n); });
  }

  const auto cascade = std::make_shared<core::BucketCascade>(3, 5);
  registry.add("detector", "detector.cascade.update", [data, cascade](std::uint64_t n) {
    std::uint64_t transitions = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      transitions += cascade->update((*data)[i & kDataMask] > 5.0) !=
                             core::BucketCascade::Transition::kNone
                         ? 1u
                         : 0u;
    }
    do_not_optimize(transitions);
  });
}

void register_bank_suite(Registry& registry) {
  // Fleet-scale detection: 1024 detectors of one family advanced in
  // lockstep, one observation per lane per row. `rows_1024` is the SoA
  // bank's vectorized row kernel (docs/BANKS.md); `scalar_1024` is the same
  // work as 1024 independent scalar detectors behind virtual observe()
  // calls — the bank's speedup is the ratio of the two. Both feeds visit
  // the identical (lane, value) sequence, cycling through the same
  // deterministic 16-row block, so the ratio compares code paths, not data.
  //
  // The stream is the fleet steady state: mostly healthy values below the
  // (5, 5) baseline's level-0 target with a 3% sprinkle of degraded ones,
  // so cascades mostly idle and occasionally climb — not the detector
  // suite's 50%-exceedance churn, where both paths spend their time in the
  // same retargeting code and the comparison measures neither.
  const auto data = std::make_shared<std::vector<double>>(kDataSize);
  {
    common::RngStream rng(0xBA'2BEA7, 1);
    for (double& value : *data) {
      value = rng.uniform01() < 0.03 ? 5.0 + 20.0 * rng.uniform01() : 4.5 * rng.uniform01();
    }
  }
  constexpr std::size_t kLanes = 1024;
  constexpr std::size_t kBlockRows = kDataSize / kLanes;

  const struct {
    const char* key;
    const char* spec;
  } families[] = {
      {"static", "Static(K=5,D=3,mu=5,sigma=5)"},
      {"sraa", "SRAA(n=2,K=5,D=3,mu=5,sigma=5)"},
      {"saraa", "SARAA(n=2,K=5,D=3,mu=5,sigma=5)"},
      {"clta", "CLTA(n=30,z=1.96,mu=5,sigma=5)"},
  };
  for (const auto& entry : families) {
    const core::DetectorConfig config = core::parse_spec(entry.spec);

    auto bank = std::make_shared<core::DetectorBank>(config);
    bank->add_lanes(kLanes);
    bank->reserve_triggers(kDataSize);
    registry.add("bank", std::string("bank.") + entry.key + ".rows_1024",
                 [data, bank](std::uint64_t n) {
                   std::uint64_t triggers = 0;
                   std::uint64_t done = 0;
                   while (done < n) {
                     const std::uint64_t want_rows = (n - done + kLanes - 1) / kLanes;
                     const std::size_t rows =
                         want_rows < kBlockRows ? static_cast<std::size_t>(want_rows)
                                                : kBlockRows;
                     bank->observe_rows(std::span<const double>(data->data(), rows * kLanes));
                     triggers += bank->triggers().size();
                     bank->clear_triggers();
                     done += rows * kLanes;
                   }
                   do_not_optimize(triggers);
                 });

    auto scalars = std::make_shared<std::vector<std::unique_ptr<core::Detector>>>();
    scalars->reserve(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      scalars->push_back(core::make_detector(config));
    }
    registry.add("bank", std::string("bank.") + entry.key + ".scalar_1024",
                 [data, scalars](std::uint64_t n) {
                   std::uint64_t triggers = 0;
                   std::uint64_t done = 0;
                   while (done < n) {
                     const std::uint64_t want_rows = (n - done + kLanes - 1) / kLanes;
                     const std::size_t rows =
                         want_rows < kBlockRows ? static_cast<std::size_t>(want_rows)
                                                : kBlockRows;
                     for (std::size_t r = 0; r < rows; ++r) {
                       const double* row = data->data() + r * kLanes;
                       for (std::size_t lane = 0; lane < kLanes; ++lane) {
                         triggers += (*scalars)[lane]->observe(row[lane]) ==
                                             core::Decision::kRejuvenate
                                         ? 1u
                                         : 0u;
                       }
                     }
                     done += rows * kLanes;
                   }
                   do_not_optimize(triggers);
                 });
  }

  // The same dense 1024-lane rows, as observe_lanes batches on a
  // BankController with a 16-observation cooldown. Any cooldown sends every
  // batch down the controller's per-value path instead of the bank's row
  // kernel, so next to `rows_1024` this is the price of cooldown living
  // outside the bank pass.
  struct CooldownFixture {
    core::BankController controller{core::parse_spec("SRAA(n=2,K=5,D=3,mu=5,sigma=5)"), 16};
    std::vector<std::uint32_t> ids = std::vector<std::uint32_t>(kDataSize);
  };
  const auto cooldown = std::make_shared<CooldownFixture>();
  cooldown->controller.add_lanes(kLanes);
  for (std::size_t i = 0; i < kDataSize; ++i) {
    cooldown->ids[i] = static_cast<std::uint32_t>(i % kLanes);
  }
  registry.add("bank", "bank.sraa.cooldown_1024", [data, cooldown](std::uint64_t n) {
    std::uint64_t triggers = 0;
    std::uint64_t done = 0;
    while (done < n) {
      const std::uint64_t want_rows = (n - done + kLanes - 1) / kLanes;
      const std::size_t rows =
          want_rows < kBlockRows ? static_cast<std::size_t>(want_rows) : kBlockRows;
      triggers += cooldown->controller.observe_lanes(
          std::span<const std::uint32_t>(cooldown->ids.data(), rows * kLanes),
          std::span<const double>(data->data(), rows * kLanes));
      done += rows * kLanes;
    }
    do_not_optimize(triggers);
  });

  // The open-loop fleet shape: a 100k-lane SRAA bank fed observe_lanes
  // batches of kBatch values whose lane ids are Zipf-distributed (a few hot
  // streams, a long tail), so each batch touches a few hundred of the 100k
  // lanes. One operation = one value; the cost must follow the batch, not
  // the width of the bank.
  constexpr std::size_t kWideLanes = 100000;
  struct SparseFixture {
    core::DetectorBank bank{core::parse_spec("SRAA(n=2,K=5,D=3,mu=5,sigma=5)")};
    std::vector<std::uint32_t> ids = std::vector<std::uint32_t>(kDataSize);
    std::size_t cursor = 0;
  };
  const auto sparse = std::make_shared<SparseFixture>();
  {
    sparse->bank.add_lanes(kWideLanes);
    sparse->bank.reserve_triggers(kBatch);
    common::RngStream rng(0xBA'2BEA7, 2);
    sparse->ids = zipf_draws(kWideLanes, kDataSize, rng);
  }
  registry.add("bank", "bank.sraa.sparse_100k", [data, sparse](std::uint64_t n) {
    std::uint64_t triggers = 0;
    std::uint64_t done = 0;
    while (done < n) {
      const std::size_t size =
          n - done < kBatch ? static_cast<std::size_t>(n - done) : kBatch;
      const std::size_t at = sparse->cursor;
      sparse->bank.observe_lanes(std::span<const std::uint32_t>(sparse->ids.data() + at, size),
                                 std::span<const double>(data->data() + at, size));
      triggers += sparse->bank.triggers().size();
      sparse->bank.clear_triggers();
      sparse->cursor = (at + kBatch) & kDataMask;
      done += size;
    }
    do_not_optimize(triggers);
  });
}

void register_sim_suite(Registry& registry) {
  const auto data = make_observations();

  // Steady-state future-event list at ~1024 pending events: each operation
  // pops the earliest event and schedules a replacement a random offset
  // ahead, which is exactly the completion-event churn of the §3 model.
  const auto queue = std::make_shared<sim::EventQueue>();
  registry.add("sim", "sim.event_queue.push_pop", [data, queue](std::uint64_t n) {
    if (queue->empty()) {
      for (std::size_t i = 0; i < 1024; ++i) {
        queue->push((*data)[i & kDataMask], [] {});
      }
    }
    double credit = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      auto [time, action] = queue->pop();
      credit = time;
      queue->push(time + (*data)[i & kDataMask] + 1e-3, std::move(action));
    }
    do_not_optimize(credit);
  });

  // Schedule + cancel: the GC-postpone and rejuvenation-flush paths cancel
  // live events, so true-removal cost matters as much as pop.
  const auto cancel_queue = std::make_shared<sim::EventQueue>();
  registry.add("sim", "sim.event_queue.schedule_cancel",
               [data, cancel_queue](std::uint64_t n) {
                 if (cancel_queue->empty()) {
                   for (std::size_t i = 0; i < 1024; ++i) {
                     cancel_queue->push((*data)[i & kDataMask], [] {});
                   }
                 }
                 std::uint64_t cancelled = 0;
                 for (std::uint64_t i = 0; i < n; ++i) {
                   const sim::EventId id =
                       cancel_queue->push((*data)[i & kDataMask] + 10.0, [] {});
                   cancelled += cancel_queue->cancel(id) ? 1u : 0u;
                 }
                 do_not_optimize(cancelled);
               });
}

void register_event_queue_suite(Registry& registry) {
  const auto data = make_observations();

  // Steady-state churn at depth 4096 — the regime a heavily loaded sweep
  // point runs in (one completion event per busy CPU plus GC/rejuvenation
  // timers). Pop-earliest + schedule-replacement is the per-event cost the
  // simulator pays millions of times per replication.
  const auto deep = std::make_shared<sim::EventQueue>();
  registry.add("event_queue", "event_queue.push_pop_4096", [data, deep](std::uint64_t n) {
    if (deep->empty()) {
      for (std::size_t i = 0; i < 4096; ++i) {
        deep->push((*data)[i & kDataMask], [] {});
      }
    }
    double credit = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      auto [time, action] = deep->pop();
      credit = time;
      deep->push(time + (*data)[i & kDataMask] + 1e-3, std::move(action));
    }
    do_not_optimize(credit);
  });

  // Reschedule: cancel a live mid-heap event and push its replacement — the
  // GC-postpone pattern. Unlike schedule_cancel (which cancels the event it
  // just pushed), this removes from arbitrary heap positions, exercising
  // both sift directions of the removal path.
  struct RescheduleFixture {
    sim::EventQueue queue;
    std::vector<sim::EventId> live;
    double now = 0.0;
  };
  const auto resched = std::make_shared<RescheduleFixture>();
  registry.add("event_queue", "event_queue.reschedule", [data, resched](std::uint64_t n) {
    constexpr std::size_t kLive = 1024;
    if (resched->live.empty()) {
      resched->live.reserve(kLive);
      for (std::size_t i = 0; i < kLive; ++i) {
        resched->live.push_back(resched->queue.push((*data)[i & kDataMask], [] {}));
      }
    }
    std::uint64_t cancelled = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sim::EventId& slot = resched->live[i % kLive];
      cancelled += resched->queue.cancel(slot) ? 1u : 0u;
      resched->now += 1e-3;
      slot = resched->queue.push(resched->now + (*data)[i & kDataMask], [] {});
    }
    do_not_optimize(cancelled);
  });

  // Fill-then-drain from empty: amortized cost of one push plus one pop over
  // a full 4096-event cycle — the startup/flush transient (rejuvenation
  // drops every pending completion, then the queue refills).
  const auto drain = std::make_shared<sim::EventQueue>();
  registry.add("event_queue", "event_queue.fill_drain", [data, drain](std::uint64_t n) {
    double credit = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      drain->push((*data)[i & kDataMask], [] {});
      if (drain->size() == 4096) {
        while (!drain->empty()) credit = drain->pop().first;
      }
    }
    while (!drain->empty()) credit = drain->pop().first;
    do_not_optimize(credit);
  });
}

void register_exec_suite(Registry& registry) {
  // Owner-side deque ops with no contention: the floor for task bookkeeping
  // on the pool's hot path (every spawned task is one push + one pop).
  const auto deque = std::make_shared<exec::WorkStealingDeque<std::uint64_t>>();
  registry.add("exec", "exec.deque.push_pop", [deque](std::uint64_t n) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      deque->push(i);
      sum += deque->pop().value_or(0);
    }
    do_not_optimize(sum);
  });

  // Per-task dispatch + join overhead through a TaskGroup on a live pool:
  // what one (point × replication) work item costs before any simulation
  // work happens. Submitted in kBatch-sized groups so wait() runs at
  // realistic fan-out, not once per task.
  const auto pool = std::make_shared<exec::ThreadPool>(exec::ThreadPool::default_thread_count());
  registry.add("exec", "exec.pool.dispatch", [pool](std::uint64_t n) {
    std::atomic<std::uint64_t> count{0};
    std::uint64_t submitted = 0;
    while (submitted < n) {
      const std::uint64_t batch = n - submitted < kBatch ? n - submitted : kBatch;
      exec::TaskGroup group(*pool);
      for (std::uint64_t i = 0; i < batch; ++i) {
        group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
      group.wait();
      submitted += batch;
    }
    do_not_optimize(count.load());
  });

  // parallel_map fan-out per index, including the ordered result buffer the
  // harness's bit-identity guarantee rides on.
  registry.add("exec", "exec.parallel_map.fanout", [pool](std::uint64_t n) {
    std::uint64_t checksum = 0;
    std::uint64_t mapped = 0;
    while (mapped < n) {
      const std::size_t batch =
          n - mapped < kBatch ? static_cast<std::size_t>(n - mapped) : kBatch;
      const std::vector<std::uint64_t> results = exec::parallel_map<std::uint64_t>(
          *pool, batch, [](std::size_t i) { return static_cast<std::uint64_t>(i); });
      checksum += results.back();
      mapped += batch;
    }
    do_not_optimize(checksum);
  });
}

void register_monitor_suite(Registry& registry) {
  const auto data = make_observations();

  // Single-threaded ping-pong over the SPSC ring: measures the queue's
  // per-element cost (index math, the release/acquire pair) without
  // cross-core noise; one operation = one push, pops amortized per batch.
  struct SpscFixture {
    monitor::SpscQueue<double> queue{4096};
    std::vector<double> drain = std::vector<double>(kBatch);
    std::size_t pending = 0;
  };
  const auto spsc = std::make_shared<SpscFixture>();
  registry.add("monitor", "monitor.spsc.push_pop", [data, spsc](std::uint64_t n) {
    std::uint64_t popped = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)spsc->queue.try_push((*data)[i & kDataMask]);
      if (++spsc->pending == kBatch) {
        popped += spsc->queue.pop_batch(spsc->drain.data(), kBatch);
        spsc->pending = 0;
      }
    }
    do_not_optimize(popped);
  });

  // One full checkpoint record: serialize a mid-escalation SRAA controller
  // state to its JSONL line and parse it back — the per-interval cost of
  // --checkpoint-every.
  const auto checkpoint = std::make_shared<monitor::ShardCheckpoint>([] {
    monitor::ShardCheckpoint record;
    record.spec = "SRAA(n=2,K=5,D=3)";
    record.shard = 1;
    record.shard_count = 4;
    record.controller.observations = 123456;
    record.controller.cooldown_remaining = 17;
    record.controller.trigger_indices = {1000, 2000, 40000, 100000};
    record.controller.detector.algorithm = "SRAA(n=2,K=5,D=3)";
    record.controller.detector.has_cascade = true;
    record.controller.detector.bucket = 3;
    record.controller.detector.fill = 2;
    record.controller.detector.has_window = true;
    record.controller.detector.window_length = 2;
    record.controller.detector.window_next = 2;
    record.controller.detector.window_count = 1;
    record.controller.detector.window_sum = 7.25;
    record.controller.detector.last_average = 11.5;
    return record;
  }());
  registry.add("monitor", "monitor.checkpoint.roundtrip", [checkpoint](std::uint64_t n) {
    std::uint64_t parsed_obs = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string line = monitor::to_json(*checkpoint);
      const auto parsed = monitor::parse_checkpoint_line(line);
      parsed_obs += parsed ? parsed->controller.observations : 0;
    }
    do_not_optimize(parsed_obs);
  });
}

void register_cluster_suite(Registry& registry) {
  // Coordinator bookkeeping on the per-completed-transaction path: the
  // false-trigger ordinal advance every cluster host pays per transaction.
  struct NoteFixture {
    sim::Simulator simulator;
    cluster::Coordinator coordinator{simulator,
                                     [] {
                                       cluster::CoordinatorConfig config;
                                       config.hosts = 4;
                                       return config;
                                     }(),
                                     faults::FaultPlan{}, 1, {}};
  };
  const auto note = std::make_shared<NoteFixture>();
  registry.add("cluster", "cluster.coordinator.note_transaction", [note](std::uint64_t n) {
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      fired += note->coordinator.note_transaction(i & 3) ? 1u : 0u;
    }
    do_not_optimize(fired);
  });

  // Batch-amortized per-transaction cost of a full coordinated cluster run,
  // one entry per scheduling strategy (3 hosts, SRAA detectors, 5 s
  // restores). This is the end-to-end cost a rejuv-cluster sweep pays per
  // offered transaction, including routing, detection and coordination.
  constexpr std::uint64_t kClusterBatch = 2000;
  const auto run_batch = [](cluster::RejuvenationStrategy strategy,
                            std::uint64_t checkpoint_every, std::uint64_t iteration) {
    cluster::ClusterConfig config;
    config.hosts = 3;
    config.host_config.arrival_rate = 1.0;  // per-host default; total below rules
    config.host_config.rejuvenation_downtime_seconds = 5.0;
    config.total_arrival_rate = 6.4;
    config.strategy = strategy;
    config.checkpoint_every_observations = checkpoint_every;
    sim::Simulator simulator;
    cluster::Cluster cluster_run(
        simulator, config,
        [] {
          return core::make_detector(core::parse_spec("SRAA(n=2,K=5,D=3)"));
        },
        0xC1'05'7E + iteration);
    cluster_run.run_transactions(kClusterBatch);
    return cluster_run.metrics().completed;
  };
  const struct {
    const char* key;
    cluster::RejuvenationStrategy strategy;
    std::uint64_t checkpoint_every;
  } cluster_cases[] = {
      {"cluster.txn.rolling", cluster::RejuvenationStrategy::kRolling, 0},
      {"cluster.txn.simultaneous", cluster::RejuvenationStrategy::kSimultaneous, 0},
      {"cluster.txn.load_triggered", cluster::RejuvenationStrategy::kLoadTriggered, 0},
      {"cluster.txn.budget_aware", cluster::RejuvenationStrategy::kBudgetAware, 0},
      {"cluster.txn.rolling_checkpointed", cluster::RejuvenationStrategy::kRolling, 1},
  };
  for (const auto& entry : cluster_cases) {
    const auto strategy = entry.strategy;
    const auto checkpoint_every = entry.checkpoint_every;
    registry.add("cluster", entry.key,
                 [run_batch, strategy, checkpoint_every](std::uint64_t n) {
                   std::uint64_t completed = 0;
                   std::uint64_t iteration = 0;
                   for (std::uint64_t done = 0; done < n; done += kClusterBatch) {
                     completed += run_batch(strategy, checkpoint_every, iteration++);
                   }
                   do_not_optimize(completed);
                 });
  }
}

void register_obs_suite(Registry& registry) {
  // The disabled path is the branch every untraced simulation pays per
  // event; it must stay in the low single-digit nanoseconds.
  const auto disabled = std::make_shared<obs::Tracer>();
  registry.add("obs", "obs.tracer.disabled_emit", [disabled](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      disabled->set_time(static_cast<double>(i));
      disabled->sample(10.0, 5.0, true, 2, 1, 4);
    }
    do_not_optimize(disabled->events_emitted());
  });

  // Full JSONL formatting + stream write per event (buffer recycled so the
  // benchmark measures formatting, not unbounded string growth).
  struct JsonlFixture {
    std::ostringstream out;
    std::unique_ptr<obs::JsonlSink> sink = std::make_unique<obs::JsonlSink>(out);
    obs::Tracer tracer{sink.get()};
  };
  const auto jsonl = std::make_shared<JsonlFixture>();
  registry.add("obs", "obs.tracer.jsonl_emit", [jsonl](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      if ((i & 0xFFF) == 0) {
        jsonl->out.str("");
        jsonl->out.clear();
      }
      jsonl->tracer.set_time(static_cast<double>(i));
      jsonl->tracer.sample(10.0, 5.0, true, 2, 1, 4);
    }
    do_not_optimize(jsonl->tracer.events_emitted());
  });
}

// --- Ingestion suite helpers (fleet-scale wire + engine benchmarks) ---

/// Writes all of `bytes` to `fd`, returning false on the first failed write
/// (EPIPE when the fleet engine already shut the input down mid-repetition).
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t offset = 0;
  while (offset < size) {
    const ssize_t n = ::write(fd, data + offset, size - offset);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

/// Pre-encoded frames for one round-robin sweep over `streams` stream ids,
/// shared by every fleet benchmark at that fleet width.
struct FleetRound {
  std::uint32_t streams;
  std::string frames;

  FleetRound(std::uint32_t stream_count, const std::vector<double>& data)
      : streams(stream_count) {
    frames.reserve(static_cast<std::size_t>(streams) * 15);
    for (std::uint32_t i = 0; i < streams; ++i) {
      wire::append_observation(frames, i, data[i & kDataMask]);
    }
  }

  /// Streams the preamble plus rounds until `target` observations are
  /// written (or the reader hangs up); closes `fd`.
  void feed(int fd, std::uint64_t target) const {
    std::string preamble;
    wire::append_preamble(preamble);
    std::uint64_t written = 0;
    if (write_all(fd, preamble.data(), preamble.size())) {
      while (written < target && write_all(fd, frames.data(), frames.size())) {
        written += streams;
      }
    }
    ::close(fd);
  }
};

monitor::FleetConfig fleet_bench_config(std::uint32_t streams, std::uint64_t n) {
  monitor::FleetConfig config;
  config.detector = core::DetectorConfig("SRAA").set("n", 2).set("K", 5).set("D", 3);
  config.listen = false;
  config.max_streams = streams;
  config.max_observations = n;
  config.idle_poll = std::chrono::milliseconds(5);
  return config;
}

/// One benchmark run of the full engine over pipes: spawn the writer(s),
/// run the engine until the observation budget `n` is consumed, tear down.
/// One operation = one observation decoded, routed and fed to its lane.
void run_fleet_pipes(const std::shared_ptr<FleetRound>& round, std::uint64_t n,
                     std::size_t pipes, std::size_t shards, bool inline_mode) {
  monitor::FleetConfig config = fleet_bench_config(round->streams, n);
  config.shards = shards;
  config.inline_processing = inline_mode;
  std::vector<std::thread> writers;
  for (std::size_t p = 0; p < pipes; ++p) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) return;
    config.input_fds.push_back(fds[0]);
    writers.emplace_back(
        [round, fd = fds[1], target = n / pipes + round->streams] { round->feed(fd, target); });
  }
  monitor::FleetMonitor fleet(config);
  const monitor::FleetStats stats = fleet.run();
  for (std::thread& writer : writers) writer.join();
  do_not_optimize(stats.processed);
}

/// As run_fleet_pipes, but over loopback TCP connections against the fleet
/// listener — the acceptance-criterion configuration (binary protocol
/// unless `text`, in which case each connection is one legacy text stream).
void run_fleet_tcp(const std::shared_ptr<FleetRound>& round, std::uint64_t n,
                   std::size_t connections, std::size_t shards, bool text) {
  monitor::FleetConfig config = fleet_bench_config(round->streams, n);
  config.shards = shards;
  config.listen = true;
  config.port = 0;
  monitor::FleetMonitor fleet(config);
  const std::uint16_t port = fleet.port();
  std::vector<std::thread> clients;
  const std::uint64_t target = n / connections + round->streams;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([round, port, target, text] {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return;
      }
      if (text) {
        // One text connection = one stream: numbers, newline-terminated.
        std::string lines;
        for (int i = 0; i < 512; ++i) {
          lines += std::to_string(2.0 + 0.015625 * (i & 63));
          lines.push_back('\n');
        }
        std::uint64_t written = 0;
        while (written < target && write_all(fd, lines.data(), lines.size())) {
          written += 512;
        }
        ::close(fd);
      } else {
        round->feed(fd, target);
      }
    });
  }
  const monitor::FleetStats stats = fleet.run();
  for (std::thread& client : clients) client.join();
  do_not_optimize(stats.processed);
}

void register_ingestion_suite(Registry& registry) {
  const auto data = make_observations();

  // Raw binary frame decode: StreamDecoder::feed over recv-sized buffers,
  // amortized per record — the per-observation parse cost on the wire path.
  struct DecodeFixture {
    std::string frames;  ///< kBatch encoded observation frames
    wire::StreamDecoder decoder{wire::Protocol::kBinary};
    std::vector<wire::Record> out;
    std::size_t pending = 0;
  };
  const auto decode = std::make_shared<DecodeFixture>();
  {
    std::string preamble;
    wire::append_preamble(preamble);
    decode->decoder.feed(preamble.data(), preamble.size(), decode->out);
    for (std::size_t i = 0; i < kBatch; ++i) {
      wire::append_observation(decode->frames, static_cast<std::uint32_t>(i & 1023),
                               (*data)[i & kDataMask]);
    }
  }
  registry.add("ingestion", "ingestion.wire.decode", [decode](std::uint64_t n) {
    std::uint64_t records = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (++decode->pending == kBatch) {
        decode->out.clear();
        decode->decoder.feed(decode->frames.data(), decode->frames.size(), decode->out);
        records += decode->out.size();
        decode->pending = 0;
      }
    }
    do_not_optimize(records);
  });

  // The legacy text path over the same decoder: number + '\n' per record.
  // The decode-side half of the binary-vs-text ingestion ratio.
  struct TextFixture {
    std::string lines;
    wire::StreamDecoder decoder{wire::Protocol::kText, 1};
    std::vector<wire::Record> out;
    std::size_t pending = 0;
  };
  const auto text = std::make_shared<TextFixture>();
  for (std::size_t i = 0; i < kBatch; ++i) {
    text->lines += std::to_string((*data)[i & kDataMask]);
    text->lines.push_back('\n');
  }
  registry.add("ingestion", "ingestion.wire.text_parse", [text](std::uint64_t n) {
    std::uint64_t records = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (++text->pending == kBatch) {
        text->out.clear();
        text->decoder.feed(text->lines.data(), text->lines.size(), text->out);
        records += text->out.size();
        text->pending = 0;
      }
    }
    do_not_optimize(records);
  });

  // Hot-path stream interning: external wire id -> dense id for an already
  // resident fleet of 100k streams (the per-observation routing lookup).
  constexpr std::uint32_t kResident = 100000;
  struct TableFixture {
    monitor::StreamTable table{core::DetectorConfig("SRAA"), 8, kResident, 0};
    TableFixture() {
      bool created = false;
      for (std::uint32_t i = 0; i < kResident; ++i) {
        (void)table.acquire(i * 2654435761u + 3, created);
      }
    }
  };
  const auto lookup = std::make_shared<TableFixture>();
  registry.add("ingestion", "ingestion.stream_table.lookup", [lookup, kResident](std::uint64_t n) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto key = static_cast<std::uint32_t>(i % kResident);
      sum += lookup->table.find(key * 2654435761u + 3);
    }
    do_not_optimize(sum);
  });

  // The routing probe of the 100k-stream fleet: a one-shard table holding
  // 100k resident streams, fed Zipf(1)-keyed records in batches of
  // kRouteBatch through FleetMonitor::route_records' loop — prefetch the
  // probe of the record StreamTable::kProbeLookahead ahead, acquire this
  // one, map it to its lane. The ids of 2^20 draws cycle, so the
  // hot set is the whole Zipf head and tail, not one batch re-read. One
  // operation = one record.
  static constexpr std::uint32_t kRouteStreams = 100000;
  static constexpr std::size_t kRouteBatch = 8192;
  static constexpr std::size_t kRouteDraws = std::size_t{1} << 20;
  struct RouteFixture {
    monitor::StreamTable table{core::DetectorConfig("SRAA"), 1, kRouteStreams, 0};
    std::vector<wire::Record> records;
    std::size_t cursor = 0;
  };
  const auto route = std::make_shared<RouteFixture>();
  {
    bool created = false;
    for (std::uint32_t i = 0; i < kRouteStreams; ++i) {
      (void)route->table.acquire(i * 2654435761u + 3, created);
    }
    common::RngStream rng(0x2007E, 1);
    for (const std::uint32_t stream : zipf_draws(kRouteStreams, kRouteDraws, rng)) {
      route->records.push_back({stream * 2654435761u + 3, (*data)[stream & kDataMask]});
    }
  }
  registry.add("ingestion", "ingestion.stream_table.route_zipf_100k", [route](std::uint64_t n) {
    monitor::StreamTable& table = route->table;
    std::uint64_t lanes = 0;
    std::uint64_t done = 0;
    while (done < n) {
      const auto count = static_cast<std::size_t>(std::min<std::uint64_t>(kRouteBatch, n - done));
      const wire::Record* records = route->records.data() + route->cursor;
      for (std::size_t i = 0; i < count; ++i) {
        if (i + monitor::StreamTable::kProbeLookahead < count) {
          table.prefetch(records[i + monitor::StreamTable::kProbeLookahead].stream_id);
        }
        bool created = false;
        const std::uint32_t dense = table.acquire(records[i].stream_id, created);
        lanes += table.lane_of(dense);
      }
      route->cursor = (route->cursor + kRouteBatch) & (kRouteDraws - 1);
      done += count;
    }
    do_not_optimize(lanes);
  });

  // Stream admission: a fresh one-shard table interning 100k distinct ids
  // in batches of kAdmitBatch, each batch growing its lanes (ensure_lanes)
  // and feeding one observation per new stream (observe_lanes), as the fleet
  // engine does on first sight. One operation = one stream admitted; every
  // 100k streams the table starts over, so repetitions average whole
  // growth cycles of the intern map and the bank's lane arrays.
  static constexpr std::uint32_t kAdmitStreams = 100000;
  static constexpr std::uint32_t kAdmitBatch = 4681;
  struct AdmitFixture {
    core::DetectorConfig config = core::parse_spec("SRAA(n=2,K=5,D=3)");
    std::unique_ptr<monitor::StreamTable> table;
    std::vector<std::uint32_t> lanes;
    std::vector<double> values;
  };
  const auto admit = std::make_shared<AdmitFixture>();
  registry.add("ingestion", "ingestion.stream_table.admit_100k", [admit, data](std::uint64_t n) {
    std::uint64_t done = 0;
    while (done < n) {
      if (admit->table == nullptr || admit->table->size() == kAdmitStreams) {
        admit->table.reset();  // free the full table before building the next
        admit->table = std::make_unique<monitor::StreamTable>(admit->config, 1, kAdmitStreams, 0);
      }
      monitor::StreamTable& table = *admit->table;
      const std::uint64_t room = std::min<std::uint64_t>(kAdmitStreams - table.size(), n - done);
      const auto batch = static_cast<std::size_t>(std::min<std::uint64_t>(kAdmitBatch, room));
      admit->lanes.clear();
      admit->values.clear();
      bool created = false;
      for (std::size_t i = 0; i < batch; ++i) {
        const auto id = static_cast<std::uint32_t>(table.size()) * 2654435761u + 3;
        const std::uint32_t dense = table.acquire(id, created);
        admit->lanes.push_back(table.lane_of(dense));
        admit->values.push_back((*data)[dense & kDataMask]);
      }
      table.ensure_lanes(0, table.size());
      table.controller(0).observe_lanes(admit->lanes, admit->values);
      done += batch;
    }
    do_not_optimize(admit->table->size());
  });

  // End-to-end engine benchmarks. One operation = one observation through
  // decode -> stream table -> SPSC queue -> bank lane. ops_per_second is
  // the aggregate msgs/s the acceptance criterion quotes.
  const auto round_1k = std::make_shared<FleetRound>(1024, *data);
  const auto round_100k = std::make_shared<FleetRound>(100000, *data);

  registry.add("ingestion", "ingestion.fleet.inline_1k", [round_1k](std::uint64_t n) {
    run_fleet_pipes(round_1k, n, /*pipes=*/1, /*shards=*/1, /*inline_mode=*/true);
  });
  registry.add("ingestion", "ingestion.fleet.pipe_1k", [round_1k](std::uint64_t n) {
    run_fleet_pipes(round_1k, n, /*pipes=*/2, /*shards=*/2, /*inline_mode=*/false);
  });
  registry.add("ingestion", "ingestion.fleet.pipe_100k", [round_100k](std::uint64_t n) {
    run_fleet_pipes(round_100k, n, /*pipes=*/2, /*shards=*/4, /*inline_mode=*/false);
  });
  registry.add("ingestion", "ingestion.fleet.tcp_1k", [round_1k](std::uint64_t n) {
    run_fleet_tcp(round_1k, n, /*connections=*/4, /*shards=*/2, /*text=*/false);
  });
  // The blocking-era text protocol through the same engine (4 connections =
  // 4 streams; text frames carry no ids). Its ops/s against
  // ingestion.fleet.tcp_1k is the binary-vs-text speedup docs quote.
  registry.add("ingestion", "ingestion.fleet.tcp_text", [round_1k](std::uint64_t n) {
    run_fleet_tcp(round_1k, n, /*connections=*/4, /*shards=*/2, /*text=*/true);
  });
}

}  // namespace

void register_standard_suites(Registry& registry) {
  register_detector_suite(registry);
  register_bank_suite(registry);
  register_sim_suite(registry);
  register_event_queue_suite(registry);
  register_exec_suite(registry);
  register_monitor_suite(registry);
  register_cluster_suite(registry);
  register_obs_suite(registry);
  register_ingestion_suite(registry);
}

}  // namespace rejuv::benchlib
