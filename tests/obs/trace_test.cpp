// Tracer + exporter unit tests, and the single-campus causal-chain
// contract: one traced job yields submit -> queue_wait -> placement ->
// dispatch -> run with parent edges intact, checkpoint spans as siblings
// of the run, and the write-behind ledger's group commits joining the
// same trace by key-derived trace id.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpunion/platform.h"
#include "monitor/exposition.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workload/profiles.h"

namespace gpunion::obs {
namespace {

TEST(TracerTest, TraceForJobIsStableAndNonZero) {
  const std::uint64_t a = Tracer::trace_for_job("job-42");
  EXPECT_EQ(a, Tracer::trace_for_job("job-42"));
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, Tracer::trace_for_job("job-43"));
  EXPECT_NE(Tracer::trace_for_job(""), 0u);  // never the invalid id
}

TEST(TracerTest, RecordAdvancesTheParentChain) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("chain"), 0};
  const std::uint64_t first = tracer.record(ctx, stage::kSubmit, "c", 0, 1);
  ASSERT_NE(first, 0u);
  EXPECT_EQ(ctx.parent_span, first);
  const std::uint64_t second =
      tracer.record(ctx, stage::kQueueWait, "c", 1, 2);
  EXPECT_EQ(ctx.parent_span, second);

  const auto spans = tracer.trace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent_span, 0u);       // root
  EXPECT_EQ(spans[1].parent_span, first);    // chained
}

TEST(TracerTest, AdvanceFalseRecordsASibling) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("sib"), 0};
  const std::uint64_t run_parent =
      tracer.record(ctx, stage::kDispatch, "c", 0, 1);
  tracer.record(ctx, stage::kCheckpoint, "c", 2, 2, "", /*advance=*/false);
  tracer.record(ctx, stage::kCheckpoint, "c", 3, 3, "", /*advance=*/false);
  EXPECT_EQ(ctx.parent_span, run_parent);  // context did not move
  const auto spans = tracer.trace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent_span, run_parent);
  EXPECT_EQ(spans[2].parent_span, run_parent);
}

TEST(TracerTest, RingDropsOldestAtCapacity) {
  Tracer tracer(/*capacity=*/4);
  TraceContext ctx{Tracer::trace_for_job("ring"), 0};
  for (int i = 0; i < 6; ++i) {
    tracer.record(ctx, stage::kRun, "c", i, i + 1,
                  "n=" + std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first snapshot: the two earliest spans were evicted.
  EXPECT_EQ(spans.front().detail, "n=2");
  EXPECT_EQ(spans.back().detail, "n=5");
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].span_id, spans[i - 1].span_id);
  }
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  EXPECT_FALSE(tracer.enabled());
  TraceContext ctx{Tracer::trace_for_job("off"), 0};
  EXPECT_EQ(tracer.record(ctx, stage::kSubmit, "c", 0, 1), 0u);
  EXPECT_EQ(ctx.parent_span, 0u);  // context untouched while off
  EXPECT_EQ(tracer.open_span(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, OpenThenCloseSpanKeepsThePreallocatedId) {
  Tracer tracer;
  const std::uint64_t id = tracer.open_span();
  ASSERT_NE(id, 0u);
  const std::uint64_t trace_id = Tracer::trace_for_job("wan");
  // A child recorded BEFORE the parent closes (the cross-WAN shape).
  TraceContext child{trace_id, id};
  const std::uint64_t admit =
      tracer.record(child, stage::kFedAdmit, "gw-b", 5, 5);
  tracer.close_span(id, trace_id, 0, stage::kFedTransfer, "gw-a", 1, 6);
  const auto spans = tracer.trace(trace_id);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, admit);
  EXPECT_EQ(spans[0].parent_span, id);
  EXPECT_EQ(spans[1].span_id, id);
  EXPECT_EQ(spans[1].stage, stage::kFedTransfer);
}

TEST(TracerTest, ClearResetsRetainedSpansButNotSpanIds) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("clr"), 0};
  const std::uint64_t before = tracer.record(ctx, stage::kRun, "c", 0, 1);
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  TraceContext fresh{Tracer::trace_for_job("clr"), 0};
  EXPECT_GT(tracer.record(fresh, stage::kRun, "c", 1, 2), before);
}

std::vector<Span> sample_spans() {
  std::vector<Span> spans;
  Span a;
  a.trace_id = 0xDEADBEEFu;
  a.span_id = 1;
  a.parent_span = 0;
  a.stage = "submit";
  a.actor = "coordinator-alpha";
  a.start = 1.5;
  a.end = 2.25;
  a.detail = "node=ws-0,\"quoted\"\\slash";
  Span b;
  b.trace_id = 0xDEADBEEFu;
  b.span_id = 2;
  b.parent_span = 1;
  b.stage = "fed_transfer";
  b.actor = "gw-alpha";
  b.start = 2.25;
  b.end = 9.0;
  spans.push_back(a);
  spans.push_back(b);
  return spans;
}

TEST(SpanCodecTest, BinaryRoundTripPreservesEveryField) {
  const auto spans = sample_spans();
  const auto bytes = encode_spans(spans);
  std::vector<Span> decoded;
  ASSERT_TRUE(decode_spans(bytes, &decoded));
  ASSERT_EQ(decoded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(decoded[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(decoded[i].span_id, spans[i].span_id);
    EXPECT_EQ(decoded[i].parent_span, spans[i].parent_span);
    EXPECT_EQ(decoded[i].stage, spans[i].stage);
    EXPECT_EQ(decoded[i].actor, spans[i].actor);
    EXPECT_DOUBLE_EQ(decoded[i].start, spans[i].start);
    EXPECT_DOUBLE_EQ(decoded[i].end, spans[i].end);
    EXPECT_EQ(decoded[i].detail, spans[i].detail);
  }
  // Identical streams encode identically (the determinism tests' axiom).
  EXPECT_EQ(encode_spans(spans), bytes);
}

TEST(SpanCodecTest, DecodeRejectsTruncatedAndForeignBuffers) {
  const auto bytes = encode_spans(sample_spans());
  std::vector<Span> out;
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_spans(truncated, &out)) << "cut at " << cut;
    EXPECT_TRUE(out.empty());
  }
  std::vector<std::uint8_t> foreign = bytes;
  foreign[0] ^= 0xFF;  // wrong magic
  EXPECT_FALSE(decode_spans(foreign, &out));
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);  // junk after the last span
  EXPECT_FALSE(decode_spans(trailing, &out));
  EXPECT_TRUE(out.empty());
}

TEST(SpanCodecTest, HugeSpanCountIsRejectedWithoutAllocating) {
  // Regression: the decoder reserved the span count read from the buffer,
  // so a corrupt count of 2^44 threw std::bad_alloc instead of failing.
  std::vector<Span> one = sample_spans();
  one.resize(1);
  std::vector<std::uint8_t> bytes = encode_spans(one);
  constexpr std::size_t kCountOffset = 8;  // after magic + version
  const std::uint64_t huge = std::uint64_t{1} << 44;
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kCountOffset + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  std::vector<Span> out;
  bool decoded = true;
  EXPECT_NO_THROW(decoded = decode_spans(bytes, &out));
  EXPECT_FALSE(decoded);
  EXPECT_TRUE(out.empty());
}

TEST(SpanExportTest, PerfettoJsonNamesActorsAndEvents) {
  const std::string json = perfetto_trace_json(sample_spans());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("coordinator-alpha"), std::string::npos);
  EXPECT_NE(json.find("gw-alpha"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"submit\""), std::string::npos);
  // 1.5 sim-seconds -> 1500000 us.
  EXPECT_NE(json.find("\"ts\":1500000"), std::string::npos);
  // The nasty detail string survived JSON escaping.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(SpanExportTest, PublishMetricsRegistersStageHistograms) {
  Tracer tracer;
  TraceContext ctx{Tracer::trace_for_job("metrics"), 0};
  tracer.record(ctx, stage::kSubmit, "c", 0.0, 0.5);
  tracer.record(ctx, stage::kRun, "c", 0.5, 10.5);
  monitor::MetricRegistry registry;
  tracer.publish_metrics(registry);
  const std::string text = monitor::expose_registry(registry);
  EXPECT_NE(text.find("gpunion_trace_stage_seconds"), std::string::npos);
  EXPECT_NE(text.find("stage=\"submit\""), std::string::npos);
  EXPECT_NE(text.find("stage=\"run\""), std::string::npos);
  EXPECT_NE(text.find("gpunion_trace_spans{state=\"recorded\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gpunion_trace_spans{state=\"dropped\"} 0"),
            std::string::npos);
}

TEST(SpanExportTest, StageQuantileNeverReadsBelowItsBucketsSamples) {
  // A stage whose only sample is `v` must report p50/p99 >= v: the
  // smallest sample in its bucket is v itself.  Durations sweep 1 ms to
  // 6 weeks, the longest horizon a campus replay runs (the six-week trace
  // has queue waits of ~65k sim-s).
  const double six_weeks = 42.0 * 86400.0;
  std::vector<double> samples;
  for (double v = 0.001; v < six_weeks; v *= 3.7) samples.push_back(v);
  samples.push_back(six_weeks);
  for (const double sample : samples) {
    Tracer tracer;
    TraceContext ctx{Tracer::trace_for_job("tail"), 0};
    tracer.record(ctx, stage::kQueueWait, "c", 0.0, sample);
    monitor::MetricRegistry registry;
    tracer.publish_metrics(registry);
    const monitor::MetricFamily* family =
        registry.find("gpunion_trace_stage_seconds");
    ASSERT_NE(family, nullptr);
    const auto it = family->histograms().find(
        {{"stage", std::string(stage::kQueueWait)}});
    ASSERT_NE(it, family->histograms().end());
    ASSERT_EQ(it->second.count(), 1u);
    EXPECT_GE(it->second.quantile(0.5), sample) << "sample " << sample;
    EXPECT_GE(it->second.quantile(0.99), sample) << "sample " << sample;
  }
}

// ---------------------------------------------------------------------------
// Single-campus causal chain
// ---------------------------------------------------------------------------

CampusConfig traced_campus(int nodes) {
  CampusConfig config;
  for (int i = 0; i < nodes; ++i) {
    config.nodes.push_back({hw::workstation_3090("tr-" + std::to_string(i)),
                            "group-a"});
  }
  config.storage.push_back({"nas-tr", 512ULL << 30});
  config.coordinator.heartbeat_interval = 2.0;
  config.agent_defaults.heartbeat_interval = 2.0;
  config.agent_defaults.telemetry_interval = 1e9;
  config.scrape_interval = 1e9;
  config.db.flush_threshold = 1u << 20;
  config.db.flush_interval = 30.0;
  return config;
}

const Span* find_stage(const std::vector<Span>& spans,
                       std::string_view stage_name) {
  auto it = std::find_if(spans.begin(), spans.end(), [&](const Span& s) {
    return s.stage == stage_name;
  });
  return it == spans.end() ? nullptr : &*it;
}

TEST(PlatformTraceTest, LocalJobYieldsTheFullCausalChain) {
  sim::Environment env(11);
  Platform platform(env, traced_campus(2));
  platform.start();
  env.run_until(5.0);
  auto job = workload::make_training_job("traced", workload::cnn_small(),
                                         300.0 / 3600.0, "group-a",
                                         env.now());
  job.checkpoint_interval = 60.0;
  ASSERT_TRUE(platform.coordinator().submit(std::move(job)).is_ok());
  env.run_until(3600.0);
  ASSERT_GE(platform.coordinator().stats().jobs_completed, 1);

  const auto spans =
      platform.tracer().trace(Tracer::trace_for_job("traced"));
  ASSERT_FALSE(spans.empty());
  const Span* submit = find_stage(spans, stage::kSubmit);
  const Span* queue_wait = find_stage(spans, stage::kQueueWait);
  const Span* placement = find_stage(spans, stage::kPlacement);
  const Span* dispatch = find_stage(spans, stage::kDispatch);
  const Span* run = find_stage(spans, stage::kRun);
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(placement, nullptr);
  ASSERT_NE(dispatch, nullptr);
  ASSERT_NE(run, nullptr);

  // The chain: each stage parents to its causal predecessor.
  EXPECT_EQ(submit->parent_span, 0u);
  EXPECT_EQ(queue_wait->parent_span, submit->span_id);
  EXPECT_EQ(placement->parent_span, queue_wait->span_id);
  EXPECT_EQ(dispatch->parent_span, placement->span_id);
  EXPECT_EQ(run->parent_span, dispatch->span_id);
  EXPECT_EQ(submit->actor, "coordinator");
  EXPECT_LE(submit->start, run->start);
  EXPECT_GT(run->duration(), 0.0);

  // Checkpoints annotate the run as siblings — parented to the dispatch
  // span, never redirecting the chain.
  bool saw_checkpoint = false;
  for (const Span& span : spans) {
    if (span.stage != stage::kCheckpoint) continue;
    saw_checkpoint = true;
    EXPECT_EQ(span.parent_span, dispatch->span_id);
  }
  EXPECT_TRUE(saw_checkpoint);

  // The write-behind ledger joined the trace purely by key-derived id:
  // its group-commit spans are roots with ack -> durable timing.
  const Span* commit = find_stage(spans, stage::kDbGroupCommit);
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->parent_span, 0u);
  EXPECT_EQ(commit->actor, "db");
  EXPECT_GE(commit->end, commit->start);
}

TEST(PlatformTraceTest, MutatedTraceNeverThrowsAndNeverMisdecodes) {
  // Random-mutation robustness of the one byte decoder, over a real trace:
  // byte flips, truncations and extensions.  Decoding never throws, and it
  // either fails (leaving nothing behind) or yields spans that re-encode
  // to exactly the mutated bytes.
  sim::Environment env(23);
  Platform platform(env, traced_campus(2));
  platform.start();
  env.run_until(5.0);
  for (int i = 0; i < 3; ++i) {
    auto job = workload::make_training_job(
        "mut-" + std::to_string(i), workload::cnn_small(), 120.0 / 3600.0,
        "group-a", env.now());
    job.checkpoint_interval = 30.0;
    ASSERT_TRUE(platform.coordinator().submit(std::move(job)).is_ok());
  }
  env.run_until(900.0);
  const std::vector<std::uint8_t> original =
      encode_spans(platform.tracer().snapshot());
  ASSERT_GT(original.size(), 1000u);

  util::Rng rng(20251017);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes = original;
    const std::size_t pos = rng.uniform_int(0, bytes.size() - 1);
    switch (trial % 3) {
      case 0: {  // flip 1-4 bytes; half the trials aim at the header
        const int flips = static_cast<int>(rng.uniform_int(1, 4));
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = trial % 2 == 0
                                     ? rng.uniform_int(0, 15)
                                     : rng.uniform_int(0, bytes.size() - 1);
          bytes[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        break;
      }
      case 1:  // truncate
        bytes.resize(pos);
        break;
      case 2: {  // extend with random bytes
        const std::size_t extra = rng.uniform_int(1, 128);
        for (std::size_t e = 0; e < extra; ++e) {
          bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        }
        break;
      }
    }
    std::vector<Span> out;
    bool decoded = false;
    ASSERT_NO_THROW(decoded = decode_spans(bytes, &out)) << "trial " << trial;
    if (decoded) {
      ++accepted;
      EXPECT_EQ(encode_spans(out), bytes) << "trial " << trial;
    } else {
      EXPECT_TRUE(out.empty()) << "trial " << trial;
    }
  }
  // Flips inside ids, times and string bodies decode to other valid
  // traces; the loop must have exercised that path too.
  EXPECT_GT(accepted, 0);
}

TEST(PlatformTraceTest, RequeuedJobIsAckedAtRequeueTime) {
  // Regression: the queue absorbed a requeued job with its ORIGINAL submit
  // time as the ledger ack stamp, so the group commit that made the
  // requeue durable reported minutes of ack -> durable latency against a
  // 30 s flush interval.  Every commit span must close within one flush
  // interval of its ack.
  sim::Environment env(11);
  CampusConfig config = traced_campus(2);
  const util::Duration flush_interval = config.db.flush_interval;
  Platform platform(env, std::move(config));
  platform.start();
  env.run_until(5.0);
  auto job = workload::make_training_job("requeued", workload::cnn_small(),
                                         600.0 / 3600.0, "group-a",
                                         env.now());
  job.checkpoint_interval = 60.0;
  ASSERT_TRUE(platform.coordinator().submit(std::move(job)).is_ok());
  env.run_until(200.0);
  const sched::JobRecord* record = platform.coordinator().job("requeued");
  ASSERT_NE(record, nullptr);
  ASSERT_EQ(record->phase, sched::JobPhase::kRunning);
  platform.agent(record->node)->depart_scheduled();  // requeue at the front
  env.run_until(3600.0);
  ASSERT_GE(record->interruptions, 1);
  ASSERT_EQ(record->phase, sched::JobPhase::kCompleted);

  int commits = 0;
  for (const Span& span :
       platform.tracer().trace(Tracer::trace_for_job("requeued"))) {
    if (span.stage != stage::kDbGroupCommit) continue;
    ++commits;
    EXPECT_LE(span.duration(), flush_interval + 1e-9)
        << span.detail << " acked at " << span.start;
  }
  EXPECT_GE(commits, 2);
}

}  // namespace
}  // namespace gpunion::obs
