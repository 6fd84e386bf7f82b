// Unit and differential tests for RowIndex, the flat hash index behind
// every join, aggregate, dedupe and merge (exec/row_index.h).

#include "exec/row_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

namespace dbspinner {
namespace {

using Nulls = RowIndex::Nulls;

ColumnVector Ints(const std::vector<int64_t>& values) {
  ColumnVector col(TypeId::kInt64);
  for (int64_t v : values) col.AppendInt64(v);
  return col;
}

ColumnVector Doubles(const std::vector<double>& values) {
  ColumnVector col(TypeId::kDouble);
  for (double v : values) col.AppendDouble(v);
  return col;
}

// Every build row the index yields for probe row `row`, in yield order.
std::vector<uint32_t> Matches(const RowIndex& index, const KeyColumns& probe,
                              size_t row) {
  std::vector<uint32_t> out;
  for (uint32_t r = index.Find(probe, row); r != kNoMatch;
       r = index.Next(r)) {
    out.push_back(r);
  }
  return out;
}

TEST(RowIndexTest, EmptyBuild) {
  ColumnVector empty(TypeId::kInt64);
  ColumnVector probe = Ints({0, 1, 2});
  for (TypeId probe_type : {TypeId::kInt64, TypeId::kDouble}) {
    RowIndex index = RowIndex::Build({&empty}, {probe_type}, Nulls::kSkip);
    ColumnVector dprobe = Doubles({0, 1, 2});
    const KeyColumns keys{probe_type == TypeId::kInt64 ? &probe : &dprobe};
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(index.Find(keys, i), kNoMatch);
  }
}

TEST(RowIndexTest, LongChainComesBackAscending) {
  std::vector<int64_t> same(10000, 7);
  same.push_back(8);
  ColumnVector build = Ints(same);
  ColumnVector iprobe = Ints({7, 8, 9});
  ColumnVector dprobe = Doubles({7.0, 8.0, 9.0});
  // The INT64 fast path and the generic path (DOUBLE probes).
  for (const ColumnVector* probe : {&iprobe, &dprobe}) {
    RowIndex index =
        RowIndex::Build({&build}, {probe->type()}, Nulls::kMatch);
    std::vector<uint32_t> got = Matches(index, {probe}, 0);
    ASSERT_EQ(got.size(), 10000u);
    for (uint32_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
    EXPECT_EQ(Matches(index, {probe}, 1), std::vector<uint32_t>{10000});
    EXPECT_TRUE(Matches(index, {probe}, 2).empty());
  }
}

TEST(RowIndexTest, DistinctKeysWithTheSameHash) {
  // 2^53 and 2^53 + 1 share a double image, so HashAt agrees on them while
  // EqualsAt tells them apart.
  const int64_t big = int64_t{1} << 53;
  ColumnVector a = Ints({big, big + 1, big});
  ColumnVector b = Ints({5, 5, 5});
  ASSERT_EQ(a.HashAt(0), a.HashAt(1));
  ASSERT_FALSE(a.EqualsAt(0, a, 1));
  // A two-column key takes the generic path.
  RowIndex index = RowIndex::Build({&a, &b}, {TypeId::kInt64, TypeId::kInt64},
                                   Nulls::kMatch);
  EXPECT_EQ(Matches(index, {&a, &b}, 0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Matches(index, {&a, &b}, 1), std::vector<uint32_t>{1});
  // A DOUBLE probe equals both ints, so it finds all three rows.
  ColumnVector d = Doubles({static_cast<double>(big)});
  ColumnVector five = Ints({5});
  RowIndex widened = RowIndex::Build(
      {&a, &b}, {TypeId::kDouble, TypeId::kInt64}, Nulls::kMatch);
  EXPECT_EQ(Matches(widened, {&d, &five}, 0),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(RowIndexTest, NullKeysSkippedOnBuildAndProbe) {
  ColumnVector build(TypeId::kInt64);
  build.AppendNull();
  build.AppendInt64(1);
  build.AppendNull();
  ColumnVector probe(TypeId::kInt64);
  probe.AppendNull();
  probe.AppendInt64(1);
  ColumnVector other(TypeId::kString);
  for (int i = 0; i < 3; ++i) other.AppendString("x");
  ColumnVector other_probe(TypeId::kString);
  for (int i = 0; i < 2; ++i) other_probe.AppendString("x");
  // Single INT64 key (fast path) and a two-column key (generic path).
  RowIndex single = RowIndex::Build({&build}, {TypeId::kInt64}, Nulls::kSkip);
  RowIndex pair = RowIndex::Build({&build, &other},
                                  {TypeId::kInt64, TypeId::kString},
                                  Nulls::kSkip);
  EXPECT_EQ(single.Find({&probe}, 0), kNoMatch);
  EXPECT_EQ(Matches(single, {&probe}, 1), std::vector<uint32_t>{1});
  EXPECT_EQ(pair.Find({&probe, &other_probe}, 0), kNoMatch);
  EXPECT_EQ(Matches(pair, {&probe, &other_probe}, 1),
            std::vector<uint32_t>{1});
  // Under kMatch NULL is a key like any other.
  RowIndex grouped = RowIndex::Build({&build}, {TypeId::kInt64}, Nulls::kMatch);
  EXPECT_EQ(Matches(grouped, {&probe}, 0), (std::vector<uint32_t>{0, 2}));
  RowIndex dedupe({&build}, {TypeId::kInt64}, Nulls::kMatch, 0, 0);
  EXPECT_EQ(dedupe.FindOrInsert({&build}, 0, 0), 0u);
  EXPECT_EQ(dedupe.FindOrInsert({&build}, 1, 1), 1u);
  EXPECT_EQ(dedupe.FindOrInsert({&build}, 2, 2), 0u);
}

TEST(RowIndexTest, MultiColumnKeyMixingTypes) {
  ColumnVector i = Ints({1, 1, 2, 1});
  ColumnVector d = Doubles({0.5, 0.5, 0.5, 1.5});
  ColumnVector s(TypeId::kString);
  for (const char* v : {"a", "a", "a", "b"}) s.AppendString(v);
  const KeyColumns keys{&i, &d, &s};
  RowIndex index = RowIndex::Build(keys, KeyTypes(keys), Nulls::kMatch);
  EXPECT_EQ(Matches(index, keys, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Matches(index, keys, 2), std::vector<uint32_t>{2});
  EXPECT_EQ(Matches(index, keys, 3), std::vector<uint32_t>{3});
  // The INT64 column probed by an equal DOUBLE column finds the same rows.
  ColumnVector wide = Doubles({1.0, 1.0, 2.0, 1.0});
  const KeyColumns wide_keys{&wide, &d, &s};
  RowIndex widened = RowIndex::Build(keys, KeyTypes(wide_keys), Nulls::kMatch);
  EXPECT_EQ(Matches(widened, wide_keys, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Matches(widened, wide_keys, 2), std::vector<uint32_t>{2});
}

TEST(RowIndexTest, FitReindexesForOtherProbeTypes) {
  ColumnVector build = Ints({3, 4, 3});
  ColumnVector iprobe = Ints({3});
  ColumnVector dprobe = Doubles({3.0});
  const RowIndex index =
      RowIndex::Build({&build}, {TypeId::kInt64}, Nulls::kSkip);
  RowIndex scratch;
  EXPECT_EQ(&index.Fit({&iprobe}, &scratch), &index);
  const RowIndex& fitted = index.Fit({&dprobe}, &scratch);
  EXPECT_EQ(&fitted, &scratch);
  EXPECT_EQ(Matches(fitted, {&dprobe}, 0), (std::vector<uint32_t>{0, 2}));
}

TEST(RowIndexTest, FindOrInsertGrowsPastItsSizing) {
  ColumnVector keys(TypeId::kInt64);
  RowIndex index({&keys}, {TypeId::kInt64}, Nulls::kMatch, 0, 0);
  for (int64_t round = 0; round < 2; ++round) {
    ColumnVector probe = Ints({});
    for (int64_t v = 0; v < 5000; ++v) probe.AppendInt64(v * 3);
    for (uint32_t r = 0; r < probe.size(); ++r) {
      uint32_t fresh = static_cast<uint32_t>(keys.size());
      uint32_t got = index.FindOrInsert({&probe}, r, fresh);
      if (round == 0) {
        ASSERT_EQ(got, fresh);
        keys.AppendFrom(probe, r);
      } else {
        ASSERT_EQ(got, r);  // every key already has its group
      }
    }
  }
  EXPECT_EQ(keys.size(), 5000u);
}

// The match sets of a reference std::unordered_multimap over HashAt and
// EqualsAt, as sorted row lists.
std::vector<uint32_t> Reference(
    const std::unordered_multimap<size_t, uint32_t>& ref,
    const ColumnVector& build, const ColumnVector& probe, size_t row) {
  std::vector<uint32_t> out;
  if (probe.IsNull(row)) return out;
  auto range = ref.equal_range(probe.HashAt(row));
  for (auto it = range.first; it != range.second; ++it) {
    if (probe.EqualsAt(row, build, it->second)) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RowIndexTest, RandomizedMatchesAgreeWithMultimapReference) {
  std::mt19937_64 rng(20261016);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng() % 2000;
    const int64_t domain = 1 + static_cast<int64_t>(rng() % 500);
    ColumnVector build(TypeId::kInt64);
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 20 == 0) {
        build.AppendNull();
      } else {
        build.AppendInt64(static_cast<int64_t>(rng() % domain) - domain / 2);
      }
    }
    ColumnVector iprobe(TypeId::kInt64);
    ColumnVector dprobe(TypeId::kDouble);
    for (size_t i = 0; i < 500; ++i) {
      if (rng() % 20 == 0) {
        iprobe.AppendNull();
        dprobe.AppendNull();
        continue;
      }
      int64_t v = static_cast<int64_t>(rng() % (2 * domain)) - domain;
      iprobe.AppendInt64(v);
      double frac = rng() % 4 == 0 ? 0.5 : 0.0;
      dprobe.AppendDouble(static_cast<double>(v) + frac);
    }
    std::unordered_multimap<size_t, uint32_t> ref;
    for (uint32_t i = 0; i < n; ++i) {
      if (!build.IsNull(i)) ref.emplace(build.HashAt(i), i);
    }
    // The generic path: the same INT64 keys paired with a constant column,
    // and the INT64 keys probed by DOUBLE values.
    ColumnVector zeros = Ints(std::vector<int64_t>(n, 0));
    ColumnVector probe_zeros = Ints(std::vector<int64_t>(iprobe.size(), 0));
    RowIndex fast = RowIndex::Build({&build}, {TypeId::kInt64}, Nulls::kSkip);
    RowIndex paired = RowIndex::Build(
        {&build, &zeros}, {TypeId::kInt64, TypeId::kInt64}, Nulls::kSkip);
    RowIndex widened =
        RowIndex::Build({&build}, {TypeId::kDouble}, Nulls::kSkip);
    for (size_t r = 0; r < iprobe.size(); ++r) {
      const std::vector<uint32_t> want = Reference(ref, build, iprobe, r);
      std::vector<uint32_t> got = Matches(fast, {&iprobe}, r);
      ASSERT_EQ(got, want) << "trial " << trial;
      got = Matches(paired, {&iprobe, &probe_zeros}, r);
      ASSERT_EQ(got, want) << "trial " << trial;
      got = Matches(widened, {&dprobe}, r);
      ASSERT_EQ(got, Reference(ref, build, dprobe, r)) << "trial " << trial;
    }
  }
}

TEST(RowIndexTest, ConcurrentProbesOfOneSharedIndex) {
  const size_t n = 20000;
  ColumnVector build(TypeId::kInt64);
  for (size_t i = 0; i < n; ++i) {
    build.AppendInt64(static_cast<int64_t>(i % 997));
  }
  ColumnVector probe(TypeId::kInt64);
  for (int64_t v = 0; v < 1200; ++v) probe.AppendInt64(v);
  const RowIndex index =
      RowIndex::Build({&build}, {TypeId::kInt64}, Nulls::kSkip);
  std::vector<size_t> expected(probe.size());
  for (size_t r = 0; r < probe.size(); ++r) {
    expected[r] = Matches(index, {&probe}, r).size();
  }
  std::vector<int> failures(8, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < 20; ++pass) {
        for (size_t r = 0; r < probe.size(); ++r) {
          if (Matches(index, {&probe}, r).size() != expected[r]) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  EXPECT_EQ(expected[0], 21u);    // 0, 997, ..., 19940
  EXPECT_EQ(expected[996], 20u);
  EXPECT_EQ(expected[1000], 0u);
}

}  // namespace
}  // namespace dbspinner
