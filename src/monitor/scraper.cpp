#include "monitor/scraper.h"

namespace gpunion::monitor {

Scraper::Scraper(sim::Environment& env, const MetricRegistry& registry,
                 db::ShardedDatabase& database, util::Duration interval,
                 sim::LaneId lane)
    : env_(env),
      registry_(registry),
      database_(database),
      timer_(env, interval, [this] { scrape_once(); }, lane) {}

std::string Scraper::series_name(const std::string& family,
                                 const Labels& labels) {
  if (labels.empty()) return family;
  std::string out = family + "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=" + value;
  }
  out += "}";
  return out;
}

void Scraper::scrape_once() {
  const util::SimTime now = env_.now();
  for (const MetricFamily* family : registry_.families()) {
    switch (family->type()) {
      case MetricType::kCounter:
        for (const auto& [labels, counter] : family->counters()) {
          database_.record_metric(series_name(family->name(), labels), now,
                                  counter.value());
        }
        break;
      case MetricType::kGauge:
        for (const auto& [labels, gauge] : family->gauges()) {
          database_.record_metric(series_name(family->name(), labels), now,
                                  gauge.value());
        }
        break;
      case MetricType::kHistogram:
        // Histograms persist their running mean; full bucket state stays in
        // the registry for exposition.
        for (const auto& [labels, histogram] : family->histograms()) {
          const double mean =
              histogram.count() == 0
                  ? 0.0
                  : histogram.sum() / static_cast<double>(histogram.count());
          database_.record_metric(
              series_name(family->name() + "_mean", labels), now, mean);
        }
        break;
    }
  }
  ++scrapes_;
}

}  // namespace gpunion::monitor
