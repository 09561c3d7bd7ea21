// Unit tests for the utility substrate: RNG determinism and distributions,
// bitsets, check macros (and their source-relative paths), and the table
// printer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "graph/graph.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace pg {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  Rng c2(43);
  Rng a2(42);
  EXPECT_NE(a2(), c2());
}

TEST(Rng, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int bucket : counts) EXPECT_NEAR(bucket, 1000, 150);
  EXPECT_THROW(rng.next_below(0), PreconditionViolation);
}

TEST(Rng, NextIntBoundsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_THROW(rng.next_int(2, 1), PreconditionViolation);
}

TEST(Rng, ExponentialHasUnitMean) {
  Rng rng(13);
  double sum = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) sum += rng.next_exponential();
  EXPECT_NEAR(sum / samples, 1.0, 0.05);
  EXPECT_THROW(rng.next_exponential(0.0), PreconditionViolation);
}

TEST(Bitset, BasicOperations) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(64));
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.first_set(), 0u);
  b.reset(0);
  EXPECT_EQ(b.first_set(), 129u);
  EXPECT_THROW(b.set(130), PreconditionViolation);
}

TEST(Bitset, SetAlgebra) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(1);
  b.set(2);
  Bitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  Bitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(1));
  EXPECT_EQ(a.intersection_count(b), 1u);
  EXPECT_EQ(a.difference_count(b), 1u);
  EXPECT_TRUE(i.is_subset_of(a));
  EXPECT_FALSE(a.is_subset_of(b));
  Bitset d = a;
  d.subtract(b);
  EXPECT_TRUE(d.test(65));
  EXPECT_FALSE(d.test(1));
  std::vector<std::size_t> seen;
  a.for_each([&](std::size_t idx) { seen.push_back(idx); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 65}));
}

TEST(Check, MacrosThrowTheRightTypes) {
  EXPECT_THROW(PG_REQUIRE(false, "precondition"), PreconditionViolation);
  EXPECT_THROW(PG_CHECK(false, "invariant"), InvariantViolation);
  EXPECT_NO_THROW(PG_REQUIRE(true));
  EXPECT_NO_THROW(PG_CHECK(true));
  try {
    PG_REQUIRE(1 == 2, "context message");
    FAIL() << "should have thrown";
  } catch (const PreconditionViolation& error) {
    EXPECT_NE(std::string(error.what()).find("context message"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, MessagesNameSourceRelativePaths) {
  // Library checks (compiled into pg) and checks in this test both name
  // their file relative to the checkout root, never by absolute path, so
  // failed rows in reports do not depend on where the repository lives.
  const auto message = [](const auto& fire) {
    try {
      fire();
    } catch (const std::exception& error) {
      return std::string(error.what());
    }
    return std::string("no exception");
  };
  const std::string library =
      message([] { graph::GraphBuilder(2).add_edge(0, 5); });
  const std::string local = message([] { PG_CHECK(false, "here"); });
  EXPECT_NE(library.find(" at src/graph/graph.cpp:"), std::string::npos)
      << library;
  EXPECT_NE(local.find(" at tests/util_test.cpp:"), std::string::npos)
      << local;
  for (const std::string& what : {library, local})
    EXPECT_EQ(what.find(" at /"), std::string::npos) << what;
}

TEST(Table, AlignsColumns) {
  Table table({"a", "long header"});
  table.add_row({"wide cell", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| wide cell |"), std::string::npos);
  EXPECT_NE(text.find("long header"), std::string::npos);
  // Three lines: header, separator, one row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Table, FormatHelper) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace pg
