/**
 * @file
 * Tests for the checked environment-variable parsing layer
 * (core/env_util.hh) and ServiceConfig::fromEnv; the
 * REPRO_TRACE_SCALE call site lives in harness_test.cc. The contract
 * under test: unset/empty selects the default, a valid in-range
 * value is used verbatim, and everything else — trailing garbage,
 * out-of-range, negative where unsigned, unrecognized flag spellings
 * — exits with status 2 after one self-explanatory stderr line
 * naming the variable.
 */

#include "core/env_util.hh"

#include <gtest/gtest.h>

#include <cstdlib>

#include "service/service_config.hh"

namespace
{

using namespace vpred;

class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char* name_;
};

TEST(EnvUtil, UnsetAndEmptySelectTheDefault)
{
    ::unsetenv("REPRO_TEST_KNOB");
    // REPRO_TEST_KNOB is this test's synthetic knob, not a real
    // configuration surface — keep it out of docs/api.md.
    EXPECT_DOUBLE_EQ(
            envDoubleOr("REPRO_TEST_KNOB",  // repro-lint: allow(api/env-doc-drift)
                        1.5, 0.0, 10.0),
            1.5);
    EXPECT_EQ(envUIntOr("REPRO_TEST_KNOB", 7, 1, 100), 7u);
    EXPECT_TRUE(envFlagOr("REPRO_TEST_KNOB", true));
    ScopedEnv empty("REPRO_TEST_KNOB", "");
    EXPECT_DOUBLE_EQ(envDoubleOr("REPRO_TEST_KNOB", 1.5, 0.0, 10.0), 1.5);
    EXPECT_FALSE(envFlagOr("REPRO_TEST_KNOB", false));
}

TEST(EnvUtil, ValidValuesParse)
{
    {
        ScopedEnv e("REPRO_TEST_KNOB", "2.25");
        EXPECT_DOUBLE_EQ(envDoubleOr("REPRO_TEST_KNOB", 1.0, 0.0, 10.0),
                         2.25);
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "42");
        EXPECT_EQ(envUIntOr("REPRO_TEST_KNOB", 1, 1, 100), 42u);
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "On");
        EXPECT_TRUE(envFlagOr("REPRO_TEST_KNOB", false));
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "no");
        EXPECT_FALSE(envFlagOr("REPRO_TEST_KNOB", true));
    }
}

TEST(EnvUtilDeathTest, TrailingGarbageIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "1.5x");
    EXPECT_EXIT(envDoubleOr("REPRO_TEST_KNOB", 1.0, 0.0, 10.0),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, OutOfRangeIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "512");
    EXPECT_EXIT(envUIntOr("REPRO_TEST_KNOB", 8, 1, 256),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, NegativeUnsignedIsFatal)
{
    // strtoull would wrap -3 to 2^64-3; parseUInt rejects it and the
    // env layer turns the rejection into a hard exit.
    ScopedEnv e("REPRO_TEST_KNOB", "-3");
    EXPECT_EXIT(envUIntOr("REPRO_TEST_KNOB", 8, 1, 256),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, UnrecognizedFlagIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "fales");
    EXPECT_EXIT(envFlagOr("REPRO_TEST_KNOB", true),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

// --- the service call site ---------------------------------------------

TEST(ServiceEnv, ValidValuesConfigureTheService)
{
    ScopedEnv shards("REPRO_SERVICE_SHARDS", "8");
    const service::ServiceConfig cfg = service::ServiceConfig::fromEnv();
    EXPECT_EQ(cfg.shards, 8u);
}

TEST(ServiceEnvDeathTest, MalformedShardsIsFatal)
{
    // New REPRO_SERVICE_* knobs use checked parsing from day one —
    // no raw getenv to audit later.
    ScopedEnv e("REPRO_SERVICE_SHARDS", "8x");
    EXPECT_EXIT(service::ServiceConfig::fromEnv(),
                ::testing::ExitedWithCode(2), "REPRO_SERVICE_SHARDS");
}

} // namespace
