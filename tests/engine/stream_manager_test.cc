#include "engine/stream_manager.h"

#include <barrier>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/streaming.h"
#include "seq/generators.h"
#include "seq/rng.h"
#include "testing/test_util.h"

namespace sigsub {
namespace engine {
namespace {

std::vector<double> Uniform(int k) {
  return std::vector<double>(static_cast<size_t>(k), 1.0 / k);
}

/// A burst-heavy test stream: null background with one strong planted
/// regime, so calibrated detectors raise a handful of alarms.
std::vector<uint8_t> BurstStream(uint64_t seed, int64_t null_length,
                                 int64_t burst_length) {
  seq::Rng rng(seed);
  auto stream = seq::GenerateRegimes(
      2,
      {{null_length, {0.5, 0.5}},
       {burst_length, {0.05, 0.95}},
       {null_length / 2, {0.5, 0.5}}},
      rng);
  auto symbols = stream->symbols();
  return std::vector<uint8_t>(symbols.begin(), symbols.end());
}

core::StreamingDetector::Options SmallWindow() {
  core::StreamingDetector::Options options;
  options.max_window = 128;
  options.alpha = 1e-5;
  return options;
}

TEST(StreamManagerTest, CreateAppendSnapshotCloseRoundTrip) {
  StreamManager manager;
  ASSERT_OK(manager.CreateStream("sensor-a", Uniform(2), SmallWindow()));
  std::vector<uint8_t> stream = BurstStream(1, 2000, 300);
  auto alarms = manager.Append("sensor-a", stream);
  ASSERT_OK(alarms.status());
  EXPECT_GT(*alarms, 0);

  auto snapshot = manager.Snapshot("sensor-a");
  ASSERT_OK(snapshot.status());
  EXPECT_EQ(snapshot->name, "sensor-a");
  EXPECT_EQ(snapshot->position, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(snapshot->alarms_total, *alarms);
  EXPECT_EQ(snapshot->alarms_dropped, 0);
  EXPECT_EQ(static_cast<int64_t>(snapshot->recent_alarms.size()), *alarms);
  EXPECT_EQ(snapshot->scales.size(), snapshot->thresholds.size());
  EXPECT_EQ(snapshot->scales.size(), snapshot->chi_squares.size());

  ASSERT_OK(manager.CloseStream("sensor-a"));
  EXPECT_TRUE(manager.Snapshot("sensor-a").status().IsNotFound());
  StreamManagerStats stats = manager.stats();
  EXPECT_EQ(stats.streams_created, 1);
  EXPECT_EQ(stats.streams_closed, 1);
  EXPECT_EQ(stats.symbols_ingested, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(stats.alarms_raised, *alarms);
}

TEST(StreamManagerTest, ManagerMatchesStandaloneDetector) {
  // A stream fed through the manager must behave exactly like a
  // standalone StreamingDetector fed the same chunks.
  StreamManager manager;
  auto options = SmallWindow();
  ASSERT_OK(manager.CreateStream("s", Uniform(2), options));
  auto model = seq::MultinomialModel::Uniform(2);
  auto direct = core::StreamingDetector::Make(model, options).value();

  std::vector<uint8_t> stream = BurstStream(2, 3000, 200);
  int64_t manager_alarms = 0;
  const size_t chunk = 512;
  for (size_t offset = 0; offset < stream.size(); offset += chunk) {
    size_t take = std::min(chunk, stream.size() - offset);
    std::span<const uint8_t> slice(stream.data() + offset, take);
    auto result = manager.Append("s", slice);
    ASSERT_OK(result.status());
    manager_alarms += *result;
    direct.AppendChunk(slice);
  }
  EXPECT_EQ(manager_alarms, direct.alarms_raised());
  auto snapshot = manager.Snapshot("s");
  ASSERT_OK(snapshot.status());
  EXPECT_EQ(snapshot->chi_squares, direct.CurrentChiSquares());
}

TEST(StreamManagerTest, ValidatesNamesAndModels) {
  StreamManager manager;
  EXPECT_TRUE(manager.CreateStream("", Uniform(2)).IsInvalidArgument());
  EXPECT_TRUE(manager.CreateStream("bad-model", {0.9, 0.3})
                  .IsInvalidArgument());
  core::StreamingDetector::Options bad;
  bad.max_window = 0;
  EXPECT_TRUE(manager.CreateStream("bad-options", Uniform(2), bad)
                  .IsInvalidArgument());
  ASSERT_OK(manager.CreateStream("s", Uniform(2)));
  EXPECT_TRUE(manager.CreateStream("s", Uniform(2)).IsInvalidArgument());
  EXPECT_TRUE(manager.Append("missing", std::vector<uint8_t>{0})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(manager.CloseStream("missing").IsNotFound());
  // Out-of-alphabet symbols are rejected without state change.
  auto rejected = manager.Append("s", std::vector<uint8_t>{0, 5});
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(manager.Snapshot("s")->position, 0);
}

TEST(StreamManagerTest, SharesOneContextPerDistinctModel) {
  StreamManager manager;
  ASSERT_OK(manager.CreateStream("a", Uniform(2)));
  ASSERT_OK(manager.CreateStream("b", Uniform(2)));
  ASSERT_OK(manager.CreateStream("c", {0.25, 0.75}));
  EXPECT_EQ(manager.context_count(), 2u);
  EXPECT_EQ(manager.StreamNames(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StreamManagerTest, BoundedAlarmLogEvictsOldestButKeepsTotals) {
  StreamManagerOptions options;
  options.max_alarms_per_stream = 4;
  StreamManager manager(options);
  core::StreamingDetector::Options detector_options;
  detector_options.max_window = 16;
  detector_options.x2_threshold = 0.0;  // Alarm freely.
  detector_options.rearm_fraction = 2.0;
  ASSERT_OK(manager.CreateStream("s", {0.1, 0.9}, detector_options));
  std::vector<uint8_t> zeros(64, 0);  // Far from the {0.1, 0.9} model.
  auto alarms = manager.Append("s", zeros);
  ASSERT_OK(alarms.status());
  ASSERT_GT(*alarms, 4);
  auto snapshot = manager.Snapshot("s");
  ASSERT_OK(snapshot.status());
  EXPECT_EQ(snapshot->recent_alarms.size(), 4u);
  EXPECT_EQ(snapshot->alarms_total, *alarms);
  EXPECT_EQ(snapshot->alarms_dropped, *alarms - 4);
  // The retained tail is the newest alarms, still in stream order.
  for (size_t i = 1; i < snapshot->recent_alarms.size(); ++i) {
    EXPECT_LE(snapshot->recent_alarms[i - 1].end,
              snapshot->recent_alarms[i].end);
  }
}

TEST(StreamManagerRaceTest, CloseWhileAppendingStaysCoherent) {
  // Deterministic interleaving: a two-party barrier brackets each round,
  // so the CloseStream lands inside exactly one round of appends — the
  // race window is pinned, not left to scheduler luck.
  constexpr int kRounds = 12;
  constexpr int kCloseRound = 5;
  constexpr int64_t kChunk = 256;

  StreamManager manager;
  const std::vector<std::string> names = {"a", "b", "victim", "d"};
  for (const auto& name : names) {
    ASSERT_OK(manager.CreateStream(name, Uniform(2), SmallWindow()));
  }
  std::vector<uint8_t> data = BurstStream(7, 2000, 300);
  data.resize(static_cast<size_t>(kRounds * kChunk), 0);

  std::barrier sync(2);
  std::vector<Status> victim_status(kRounds, Status::OK());
  std::vector<Status> survivor_status;  // Appender thread only.

  std::thread appender([&] {
    bool victim_open = true;
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      std::span<const uint8_t> chunk(
          data.data() + static_cast<int64_t>(round) * kChunk, kChunk);
      for (const auto& name : names) {
        if (name == "victim" && !victim_open) continue;
        Status status = manager.AppendCollect(name, chunk).status();
        if (name == "victim") {
          victim_status[static_cast<size_t>(round)] = status;
        } else {
          survivor_status.push_back(status);
        }
      }
      sync.arrive_and_wait();
      // Once the victim is gone, stop addressing it (a real producer
      // reacts to NotFound the same way).
      victim_open = manager.HasStream("victim");
    }
  });
  std::thread closer([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      if (round == kCloseRound) ASSERT_OK(manager.CloseStream("victim"));
      sync.arrive_and_wait();
    }
  });
  appender.join();
  closer.join();

  // Every victim append before the close succeeded; the close round
  // itself is allowed either outcome (append-first or close-first), but
  // nothing else: ok or NotFound, never a crash or partial write.
  for (int round = 0; round < kRounds; ++round) {
    const Status& status = victim_status[static_cast<size_t>(round)];
    if (round < kCloseRound) {
      EXPECT_TRUE(status.ok()) << round << ": " << status.message();
    } else {
      EXPECT_TRUE(status.ok() || status.IsNotFound())
          << round << ": " << status.message();
    }
  }

  // The close touches no other stream: each survivor took every round.
  ASSERT_EQ(survivor_status.size(), static_cast<size_t>(3 * kRounds));
  for (const Status& status : survivor_status) {
    EXPECT_TRUE(status.ok()) << status.message();
  }
  for (const std::string name : {"a", "b", "d"}) {
    auto snapshot = manager.Snapshot(name);
    ASSERT_OK(snapshot.status());
    EXPECT_EQ(snapshot->position, kRounds * kChunk) << name;
  }
  EXPECT_FALSE(manager.HasStream("victim"));
  EXPECT_EQ(manager.open_stream_count(), 3u);
}

TEST(StreamManagerRaceTest, SnapshotUnderAppendSeesAtomicChunks) {
  constexpr int kRounds = 16;
  constexpr int64_t kChunk = 128;

  StreamManager manager;
  ASSERT_OK(manager.CreateStream("s", Uniform(2), SmallWindow()));
  std::vector<uint8_t> data = BurstStream(11, 1200, 200);
  data.resize(static_cast<size_t>(kRounds * kChunk), 0);

  // Each round, the append and the snapshot race inside the same
  // barrier-delimited window; the snapshot must observe either the
  // pre-append or the post-append state, never a torn middle.
  std::barrier sync(2);
  std::vector<StreamSnapshot> snapshots(kRounds);

  std::thread appender([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      auto alarms = manager.AppendCollect(
          "s", std::vector<uint8_t>(
                   data.begin() + static_cast<int64_t>(round) * kChunk,
                   data.begin() + static_cast<int64_t>(round + 1) * kChunk));
      ASSERT_OK(alarms.status());
      sync.arrive_and_wait();
    }
  });
  std::thread snapshotter([&] {
    for (int round = 0; round < kRounds; ++round) {
      sync.arrive_and_wait();
      auto snapshot = manager.Snapshot("s");
      ASSERT_OK(snapshot.status());
      snapshots[static_cast<size_t>(round)] = *std::move(snapshot);
      sync.arrive_and_wait();
    }
  });
  appender.join();
  snapshotter.join();

  int64_t last_position = 0;
  int64_t last_alarms = 0;
  for (int round = 0; round < kRounds; ++round) {
    const StreamSnapshot& snapshot = snapshots[static_cast<size_t>(round)];
    // Chunk-atomic: the position is always a whole number of chunks, at
    // least the rounds already completed and at most the one in flight.
    EXPECT_EQ(snapshot.position % kChunk, 0) << round;
    EXPECT_GE(snapshot.position, static_cast<int64_t>(round) * kChunk);
    EXPECT_LE(snapshot.position, static_cast<int64_t>(round + 1) * kChunk);
    EXPECT_GE(snapshot.position, last_position) << round;
    EXPECT_GE(snapshot.alarms_total, last_alarms) << round;
    // The per-scale vectors are parallel views of one detector state.
    EXPECT_EQ(snapshot.scales.size(), snapshot.thresholds.size()) << round;
    EXPECT_EQ(snapshot.scales.size(), snapshot.chi_squares.size()) << round;
    last_position = snapshot.position;
    last_alarms = snapshot.alarms_total;
  }
  // The racing snapshots may trail the writer; a quiescent one may not.
  auto final_snapshot = manager.Snapshot("s");
  ASSERT_OK(final_snapshot.status());
  EXPECT_EQ(final_snapshot->position, static_cast<int64_t>(kRounds) * kChunk);
}

}  // namespace
}  // namespace engine
}  // namespace sigsub
