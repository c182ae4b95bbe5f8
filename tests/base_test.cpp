/**
 * @file
 * Unit tests for src/base: logging, RNG, statistics.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"

namespace genesis {
namespace {

/** Sets an environment variable for one scope, unsetting on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(Env, UnsetReturnsFallbackSilently)
{
    ::unsetenv("GENESIS_TEST_KNOB");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").present);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 42), 42);
}

TEST(Env, EmptyStringIsTreatedAsUnset)
{
    ScopedEnv env("GENESIS_TEST_KNOB", "");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").present);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 7), 7);
}

TEST(Env, ValidIntegersParse)
{
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "4");
        EnvInt parsed = parseEnvInt("GENESIS_TEST_KNOB");
        EXPECT_TRUE(parsed.present);
        EXPECT_TRUE(parsed.valid);
        EXPECT_EQ(parsed.value, 4);
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), 4);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "-5");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), -5);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "+12");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), 12);
    }
}

TEST(Env, TrailingGarbageFallsBack)
{
    // The historical std::atoll path silently read "4x" as 4 — a typo'd
    // GENESIS_SERVICE_BOARDS=4x misconfigured the fleet without a word.
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "4x");
    EnvInt parsed = parseEnvInt("GENESIS_TEST_KNOB");
    EXPECT_TRUE(parsed.present);
    EXPECT_FALSE(parsed.valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, NonNumericFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "abc");
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, LeadingWhitespaceFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", " 4");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, OverflowFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "99999999999999999999999");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, OutOfRangeValueFallsBack)
{
    setQuiet(true);
    {
        // A parseable value below the knob's minimum is rejected, not
        // clamped: 0 boards is as wrong as "abc" boards.
        ScopedEnv env("GENESIS_TEST_KNOB", "0");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 3, 1), 3);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "500");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 3, 1, 100), 3);
    }
    setQuiet(false);
}

TEST(Env, FlagUnsetEmptyOrZeroIsFalse)
{
    ::unsetenv("GENESIS_TEST_FLAG");
    EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    {
        ScopedEnv env("GENESIS_TEST_FLAG", "");
        EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    }
    {
        ScopedEnv env("GENESIS_TEST_FLAG", "0");
        EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    }
}

TEST(Env, FlagOneIsTrue)
{
    ScopedEnv env("GENESIS_TEST_FLAG", "1");
    EXPECT_TRUE(envFlag("GENESIS_TEST_FLAG"));
}

TEST(Env, FlagOtherValuesWarnAndAreFalse)
{
    // Only the exact strings "0" and "1" are flags; anything else is a
    // typo that warns and leaves the feature on.
    setQuiet(true);
    for (const char *value : {"yes", "true", "2", " 1", "01"}) {
        ScopedEnv env("GENESIS_TEST_FLAG", value);
        EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG")) << value;
    }
    setQuiet(false);
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("a%db%s", 7, "x"), "a7bx");
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Logging, PanicThrowsPanicError)
{
    setQuiet(true);
    EXPECT_THROW(panic("boom %d", 1), PanicError);
    setQuiet(false);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input %s", "x"), FatalError);
}

TEST(Logging, FatalMessageContainsText)
{
    try {
        fatal("unique-marker-%d", 42);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unique-marker-42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacroPassesAndFails)
{
    setQuiet(true);
    EXPECT_NO_THROW(GENESIS_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(GENESIS_ASSERT(1 == 2, "value %d", 3), PanicError);
    setQuiet(false);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(ScalarStat, TracksMinMaxMeanCount)
{
    ScalarStat s;
    s.sample(2.0);
    s.sample(-1.0);
    s.sample(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(ScalarStat, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(ScalarStat, MergeCombines)
{
    ScalarStat a, b;
    a.sample(1.0);
    a.sample(3.0);
    b.sample(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(StatRegistry, AddGetSet)
{
    StatRegistry r;
    EXPECT_EQ(r.get("x"), 0u);
    r.add("x");
    r.add("x", 4);
    EXPECT_EQ(r.get("x"), 5u);
    r.set("x", 2);
    EXPECT_EQ(r.get("x"), 2u);
}

TEST(StatRegistry, MergeAddsCounters)
{
    StatRegistry a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 3u);
}

TEST(StatRegistry, CounterHandleAliasesNamedCounter)
{
    StatRegistry r;
    StatRegistry::Counter h = r.counter("x");
    EXPECT_EQ(r.get("x"), 0u); // interning creates the counter at zero
    ++*h;
    *h += 3;
    EXPECT_EQ(r.get("x"), 4u);
    r.add("x", 6);
    EXPECT_EQ(*h, 10u); // add() and the handle hit the same slot
    EXPECT_EQ(r.counter("x"), h); // re-interning returns the same handle
}

TEST(StatRegistry, CounterKeepsIterationOrder)
{
    StatRegistry r;
    r.counter("b");
    r.add("a");
    r.counter("c");
    std::vector<std::string> names;
    for (const auto &[name, value] : r.counters())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StatRegistry, CreditDeltaMultipliesGrowth)
{
    StatRegistry r;
    r.add("grew", 5);
    r.add("steady", 7);
    StatRegistry snapshot = r;
    r.add("grew", 2);
    r.add("fresh", 1); // created after the snapshot: full value grew
    r.creditDelta(snapshot, 10);
    EXPECT_EQ(r.get("grew"), 5u + 2u + 2u * 10u);
    EXPECT_EQ(r.get("steady"), 7u);
    EXPECT_EQ(r.get("fresh"), 1u + 1u * 10u);
}

TEST(StatRegistry, ReportContainsEntries)
{
    StatRegistry r;
    r.add("alpha", 7);
    std::string report = r.report("pfx.");
    EXPECT_NE(report.find("pfx.alpha = 7"), std::string::npos);
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(5 * 1024.0 * 1024.0), "5.00 MiB");
}

TEST(Format, Seconds)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(0.002), "2.000 ms");
    EXPECT_EQ(formatSeconds(3e-6), "3.000 us");
}

} // namespace
} // namespace genesis
