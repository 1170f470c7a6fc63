#include "monitor/scraper.h"

#include <gtest/gtest.h>

namespace gpunion::monitor {
namespace {

TEST(ScraperTest, PersistsGaugesToDatabase) {
  sim::Environment env;
  MetricRegistry registry;
  db::ShardedDatabase database;
  auto& gauge = registry.gauge_family("gpunion_nodes", "help").gauge();
  Scraper scraper(env, registry, database, 60.0);
  scraper.start();

  gauge.set(5);
  env.run_until(61.0);
  gauge.set(8);
  env.run_until(121.0);

  const auto& series = database.series("gpunion_nodes");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].value, 5.0);
  EXPECT_DOUBLE_EQ(series[1].value, 8.0);
  EXPECT_EQ(scraper.scrape_count(), 2u);
}

TEST(ScraperTest, SeriesNameIncludesLabels) {
  EXPECT_EQ(Scraper::series_name("util", {}), "util");
  EXPECT_EQ(Scraper::series_name("util", {{"node", "ws-1"}, {"gpu", "0"}}),
            "util{gpu=0,node=ws-1}");
}

TEST(ScraperTest, LabeledGaugesGetDistinctSeries) {
  sim::Environment env;
  MetricRegistry registry;
  db::ShardedDatabase database;
  auto& family = registry.gauge_family("busy", "help");
  family.gauge({{"node", "a"}}).set(1);
  family.gauge({{"node", "b"}}).set(2);
  Scraper scraper(env, registry, database, 10.0);
  scraper.scrape_once();
  EXPECT_EQ(database.series("busy{node=a}").size(), 1u);
  EXPECT_EQ(database.series("busy{node=b}").size(), 1u);
}

TEST(ScraperTest, HistogramPersistsMean) {
  sim::Environment env;
  MetricRegistry registry;
  db::ShardedDatabase database;
  auto& h = registry.histogram_family("lat", "help", {1.0}).histogram();
  h.observe(2.0);
  h.observe(4.0);
  Scraper scraper(env, registry, database, 10.0);
  scraper.scrape_once();
  const auto& series = database.series("lat_mean");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].value, 3.0);
}

TEST(ScraperTest, StopHaltsScraping) {
  sim::Environment env;
  MetricRegistry registry;
  db::ShardedDatabase database;
  registry.gauge_family("g", "h").gauge().set(1);
  Scraper scraper(env, registry, database, 10.0);
  scraper.start();
  env.run_until(11.0);
  scraper.stop();
  env.run_until(100.0);
  EXPECT_EQ(scraper.scrape_count(), 1u);
}

}  // namespace
}  // namespace gpunion::monitor
