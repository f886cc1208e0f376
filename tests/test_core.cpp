// Tests for core utilities: RNG, stateless hash, parallel_for, serialization
// and the table printer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/env.h"
#include "core/hash.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/serialize.h"
#include "core/table.h"

namespace ber {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.015);
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(hash_mix(1, 2, 3), hash_mix(1, 2, 3));
  EXPECT_EQ(hash_uniform(5, 6, 7), hash_uniform(5, 6, 7));
}

TEST(Hash, ArgumentOrderMatters) {
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(3, 2, 1));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(2, 1, 3));
}

TEST(Hash, AvalancheOnSingleBitFlip) {
  // Flipping one input bit should flip roughly half the output bits.
  double total = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t base = hash_mix(42, static_cast<std::uint64_t>(t), 7);
    const std::uint64_t flipped =
        hash_mix(42, static_cast<std::uint64_t>(t) ^ (1ULL << (t % 63)), 7);
    total += __builtin_popcountll(base ^ flipped);
  }
  EXPECT_NEAR(total / trials, 32.0, 4.0);
}

TEST(Hash, UniformBuckets) {
  // Chi-square-ish check: 10 buckets over 50k draws.
  int buckets[10] = {};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    buckets[static_cast<int>(hash_uniform(3, i, i * 31 + 1) * 10)]++;
  }
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], n / 10, n / 10 * 0.1) << "bucket " << b;
  }
}

TEST(Hash, SecondStreamDecorrelated) {
  // The two uniform streams over the same coordinates should not correlate.
  double dot = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    dot += (hash_uniform(1, i, 0) - 0.5) * (hash_uniform2(1, i, 0) - 0.5);
  }
  EXPECT_NEAR(dot / n, 0.0, 0.005);
}

TEST(Parallel, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 4, [&](std::int64_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SingleThreadFallback) {
  long sum = 0;
  parallel_for(100, 1, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(Parallel, EmptyRange) {
  bool called = false;
  parallel_for(0, 4, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 16, [&](std::int64_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerExceptionReachesTheCallerAfterTheJoin) {
  std::atomic<int> done{0};
  // Chunks {0,1} {2,3} {4,5} {6,7}: index 5 throws after 4 finished.
  EXPECT_THROW(parallel_for(8, 4,
                            [&](std::int64_t i) {
                              if (i == 5) throw std::runtime_error("index 5");
                              done++;
                            }),
               std::runtime_error);
  EXPECT_EQ(done.load(), 7);
}

TEST(Serialize, RoundTrip) {
  const std::string path = testing::TempDir() + "/ber_serialize_test.bin";
  {
    BinaryWriter w(path);
    w.write_pod<std::uint32_t>(0xDEADBEEF);
    w.write_pod<double>(3.25);
    w.write_string("hello world");
    w.write_vector(std::vector<float>{1.0f, -2.0f, 3.5f});
    w.write_vector(std::vector<long>{7, 8});
    ASSERT_TRUE(w.good());
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_pod<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_pod<double>(), 3.25);
  EXPECT_EQ(r.read_string(), "hello world");
  const auto v = r.read_vector<float>();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.0f);
  const auto lv = r.read_vector<long>();
  EXPECT_EQ(lv[0], 7);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  const std::string path = testing::TempDir() + "/ber_truncated.bin";
  {
    BinaryWriter w(path);
    w.write_pod<std::uint8_t>(1);
  }
  BinaryReader r(path);
  r.read_pod<std::uint8_t>();
  EXPECT_THROW(r.read_pod<std::uint64_t>(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path/file.bin"), std::runtime_error);
}

TEST(Table, RendersHeadersAndRows) {
  TablePrinter t({"Model", "Err", "RErr"});
  t.add_row({"Normal", "4.36", "24.76"});
  t.add_separator();
  t.add_row({"RQuant", "4.32", "11.28"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("RQuant"), std::string::npos);
  EXPECT_NE(s.find("24.76"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt_pm(5.5, 0.25, 2), "5.50 ±0.25");
}

TEST(Env, ArtifactsDirNonEmpty) { EXPECT_FALSE(artifacts_dir().empty()); }

TEST(Env, EnsureDirAndFileExists) {
  const std::string dir = testing::TempDir() + "/ber_env_test/sub";
  ensure_dir(dir);
  EXPECT_FALSE(file_exists(dir));  // directory, not file
  const std::string f = dir + "/x.txt";
  {
    BinaryWriter w(f);
    w.write_pod<int>(1);
  }
  EXPECT_TRUE(file_exists(f));
}

}  // namespace
}  // namespace ber
