// Token-bucket admission: regression coverage for the never-satisfiable
// request bug.  try_take used to compute a FINITE retry_after even when the
// requested token count exceeded the burst — the bucket refills at most to
// burst, so such a request can never succeed and the hint told the tenant
// to retry forever.  It must now come back kNeverSatisfiable, and the
// ApiServer must map it to a permanent rejection instead of kOverloaded.
#include "api/token_bucket.h"

#include <gtest/gtest.h>

#include "api/api_server.h"
#include "sim/environment.h"
#include "workload/profiles.h"

namespace gpunion::api {
namespace {

TEST(TokenBucketTest, TakesAndRefills) {
  TokenBucket bucket(10.0, 20.0);
  EXPECT_TRUE(bucket.try_take(0.0, 20.0));
  util::Duration retry = 0;
  EXPECT_FALSE(bucket.try_take(0.0, 5.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 0.5);  // 5 tokens at 10/s
  EXPECT_TRUE(bucket.try_take(0.5, 5.0));
}

TEST(TokenBucketTest, StartsFullAndRefillCapsAtBurst) {
  TokenBucket bucket(1.0, 5.0);
  EXPECT_DOUBLE_EQ(bucket.available(0.0), 5.0);
  EXPECT_TRUE(bucket.try_take(0.0, 5.0));
  EXPECT_FALSE(bucket.try_take(0.0, 0.5));
  // A long idle stretch refills to the burst, never past it.
  EXPECT_DOUBLE_EQ(bucket.available(1000.0), 5.0);
  EXPECT_TRUE(bucket.try_take(1000.0, 5.0));
  EXPECT_FALSE(bucket.try_take(1000.0, 1.0));
}

TEST(TokenBucketTest, RetryAfterShrinksAsTheDeficitRefills) {
  TokenBucket bucket(1.0, 4.0);
  ASSERT_TRUE(bucket.try_take(0.0, 4.0));
  util::Duration retry = 0;
  EXPECT_FALSE(bucket.try_take(0.0, 2.0, &retry));
  EXPECT_DOUBLE_EQ(retry, 2.0);
  EXPECT_FALSE(bucket.try_take(1.0, 2.0, &retry));  // one token back
  EXPECT_DOUBLE_EQ(retry, 1.0);
  EXPECT_TRUE(bucket.try_take(2.0, 2.0));
}

TEST(TokenBucketTest, OverBurstRequestIsNeverSatisfiable) {
  TokenBucket bucket(10.0, 20.0);
  EXPECT_FALSE(bucket.satisfiable(25.0));
  EXPECT_TRUE(bucket.satisfiable(20.0));
  util::Duration retry = 0;
  // Regression: the old hint was (25 - 20) / 10 = 0.5 s — a lie.  Waiting
  // any amount of time never yields more than `burst` tokens.
  EXPECT_FALSE(bucket.try_take(0.0, 25.0, &retry));
  EXPECT_GE(retry, TokenBucket::kNeverSatisfiable);
  // The bucket itself is untouched: a satisfiable request still succeeds.
  EXPECT_TRUE(bucket.try_take(0.0, 20.0));
}

TEST(TokenBucketTest, ZeroRateDeficitIsNeverSatisfiable) {
  TokenBucket bucket(0.0, 10.0);
  EXPECT_TRUE(bucket.try_take(0.0, 10.0));
  util::Duration retry = 0;
  EXPECT_FALSE(bucket.try_take(100.0, 1.0, &retry));
  EXPECT_GE(retry, TokenBucket::kNeverSatisfiable);
}

TEST(TokenBucketTest, ApiServerMapsNeverSatisfiableToPermanentReject) {
  sim::Environment env(1);
  ApiConfig config;
  config.enabled = true;
  // Burst below the per-submit cost of 1 token: NO submit can ever pass
  // the bucket, so every one must be a permanent kRejected — not a
  // kOverloaded that invites infinite retries.
  config.admission_rate = 100.0;
  config.admission_burst = 0.25;
  ApiServer server(env, config);
  server.set_dispatch([](workload::JobSpec, double, obs::TraceContext) {
    return util::Status();
  });
  server.start();
  const auto result = server.submit(
      "t0", workload::make_interactive_session("sess-0", 1.0, "t0", 0.0));
  EXPECT_EQ(result.outcome, AdmitOutcome::kRejected);
  EXPECT_EQ(result.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.tenant_counters("t0").rejected_invalid, 1u);
  EXPECT_EQ(server.tenant_counters("t0").rejected_overloaded, 0u);
}

}  // namespace
}  // namespace gpunion::api
