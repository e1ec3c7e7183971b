// Metrics registry tests: Welford statistics against hand-computed values,
// histogram percentile extraction, interning semantics, first-write counter
// handles, and RunReport serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/report.hpp"

namespace icc::sim {
namespace {

TEST(SampleSeries, EmptySeriesSemantics) {
  SampleSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  // min/max are NaN, not a misleading 0.0.
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST(SampleSeries, WelfordMatchesKnownValues) {
  // Classic textbook data: mean 5, sample variance 32/7.
  SampleSeries s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.sum, 40.0);
}

TEST(SampleSeries, SingleSampleHasZeroVariance) {
  SampleSeries s;
  s.add(3.5);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
}

TEST(SampleSeries, WelfordIsStableAroundLargeOffsets) {
  // Naive sum-of-squares cancels catastrophically here; Welford does not.
  SampleSeries s;
  const double offset = 1e9;
  for (const double v : {4.0, 7.0, 13.0, 16.0}) s.add(offset + v);
  EXPECT_NEAR(s.variance(), 30.0, 1e-6);  // var{4,7,13,16} = 30
}

TEST(Histogram, PercentilesOnUniformData) {
  // Observe 1..100 into decade buckets: p50 ~ 50, p90 ~ 90, p99 ~ 99.
  Histogram h{{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}};
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.p50(), 50.0, 1.0);
  EXPECT_NEAR(h.p90(), 90.0, 1.0);
  EXPECT_NEAR(h.p99(), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, PercentileClampsToObservedRange) {
  // One sample in a huge bucket: interpolation must not invent values
  // outside [min, max].
  Histogram h{{1000.0}};
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(h.p50(), 5.0);
  EXPECT_DOUBLE_EQ(h.p99(), 5.0);
}

TEST(Histogram, EmptyHistogramPercentileIsNaN) {
  Histogram h{{1.0, 2.0}};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.p50()));
}

TEST(Histogram, OverflowBucketCatchesOutOfRange) {
  Histogram h{{1.0}};
  h.observe(0.5);
  h.observe(100.0);
  ASSERT_EQ(h.buckets().size(), 2u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);  // overflow
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, TimeBucketsAreSortedAndPositive) {
  const auto bounds = Histogram::time_buckets();
  ASSERT_GT(bounds.size(), 3u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_GT(bounds.front(), 0.0);
}

TEST(MetricsRegistry, InterningIsIdempotent) {
  MetricsRegistry reg;
  const MetricId a = reg.counter_id("x");
  const MetricId b = reg.counter_id("x");
  EXPECT_EQ(a, b);
  // Kinds have independent id spaces: the same name is a distinct metric.
  const MetricId g = reg.gauge_id("x");
  reg.add(a, 2.0);
  reg.set(g, 7.0);
  EXPECT_DOUBLE_EQ(reg.counter(a), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge(g), 7.0);
}

TEST(MetricsRegistry, HotPathUpdatesThroughIds) {
  MetricsRegistry reg;
  const MetricId c = reg.counter_id("pkts");
  const MetricId s = reg.series_id("lat");
  const MetricId h = reg.histogram_id("delay", {1.0, 10.0});
  for (int i = 0; i < 5; ++i) reg.add(c);
  reg.add(c, 10.0);
  reg.sample(s, 1.0);
  reg.sample(s, 3.0);
  reg.observe(h, 0.5);
  EXPECT_DOUBLE_EQ(reg.counter(c), 15.0);
  EXPECT_DOUBLE_EQ(reg.series(s).mean(), 2.0);
  EXPECT_EQ(reg.histogram(h).count(), 1u);
}

TEST(MetricsRegistry, LookupByNameHandlesAbsentMetrics) {
  MetricsRegistry reg;
  EXPECT_DOUBLE_EQ(reg.counter_value("never"), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("never"), 0.0);
  EXPECT_TRUE(reg.series_by_name("never").empty());
}

TEST(MetricsRegistry, ScopedPerNodeNames) {
  EXPECT_EQ(MetricsRegistry::scoped("energy_j", 12), "energy_j.n12");
  MetricsRegistry reg;
  const MetricId id = reg.node_gauge_id("energy_j", 3);
  reg.set(id, 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("energy_j.n3"), 1.5);
}

TEST(MetricsRegistry, LookupByNameReadsWrittenMetrics) {
  MetricsRegistry reg;
  CounterHandle a{"a"};
  reg.add(a);
  reg.add(a, 4.0);
  reg.add(reg.counter_id("a"), 1.0);  // an id and a handle share one slot
  reg.sample(reg.series_id("s"), 2.0);
  reg.sample(reg.series_id("s"), 4.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("a"), 6.0);
  EXPECT_DOUBLE_EQ(reg.series_by_name("s").mean(), 3.0);
}

std::vector<std::string> counter_names(const MetricsRegistry& reg) {
  std::vector<std::string> names;
  reg.for_each_counter([&names](const std::string& name, double) { names.push_back(name); });
  return names;
}

TEST(CounterHandle, CounterExistsFromItsFirstWrite) {
  MetricsRegistry reg;
  CounterHandle late{"late"};
  reg.add(reg.counter_id("early"));
  // Never written: no row, and a by-name read sees zero.
  EXPECT_EQ(counter_names(reg), (std::vector<std::string>{"early"}));
  EXPECT_DOUBLE_EQ(reg.counter_value("late"), 0.0);
  EXPECT_EQ(late.id, CounterHandle::kUnset);
  // The first write appends the counter after every earlier-written one.
  reg.add(late);
  EXPECT_EQ(counter_names(reg), (std::vector<std::string>{"early", "late"}));
  EXPECT_DOUBLE_EQ(reg.counter_value("late"), 1.0);
}

TEST(CounterHandle, HandlesWithOneNameShareASlot) {
  // Two nodes' copies of one component each hold their own handle.
  MetricsRegistry by_handle;
  MetricsRegistry by_name;
  CounterHandle node0{"aodv.rreq_sent"};
  CounterHandle node1{"aodv.rreq_sent"};
  for (int i = 0; i < 3; ++i) {
    by_handle.add(node0);
    by_handle.add(node1, 2.0);
    by_name.add(by_name.counter_id("aodv.rreq_sent"));
    by_name.add(by_name.counter_id("aodv.rreq_sent"), 2.0);
  }
  EXPECT_EQ(node0.id, node1.id);
  EXPECT_EQ(counter_names(by_handle), (std::vector<std::string>{"aodv.rreq_sent"}));
  EXPECT_DOUBLE_EQ(by_handle.counter_value("aodv.rreq_sent"), 9.0);
  EXPECT_DOUBLE_EQ(by_handle.counter_value("aodv.rreq_sent"),
                   by_name.counter_value("aodv.rreq_sent"));
}

#if ICC_CHECKED_ENABLED
TEST(CounterHandleDeathTest, HandleWrittenToASecondRegistryAborts) {
  EXPECT_DEATH(
      {
        MetricsRegistry first;
        MetricsRegistry second;
        CounterHandle h{"b"};
        first.add(first.counter_id("a"));
        first.add(h);  // interned as id 1 of `first`
        second.add(second.counter_id("a"));
        second.add(second.counter_id("c"));
        second.add(h);  // id 1 of `second` is "c"
      },
      "registry other than the one that interned it");
}
#endif

TEST(RunReport, JsonCarriesSeriesStatistics) {
  RunReport report;
  report.set_meta("experiment", "unit");
  report.set_meta("runs", static_cast<std::uint64_t>(3));
  SampleSeries s;
  for (const double v : {1.0, 2.0, 3.0}) s.add(v);
  report.add_series("throughput", s);
  report.add_counter("sent", 42.0);

  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stddev\":1"), std::string::npos);
  EXPECT_NE(json.find("\"sent\": 42"), std::string::npos);
}

TEST(RunReport, EmptySeriesMinSerializesAsNull) {
  RunReport report;
  report.add_series("empty", SampleSeries{});
  std::ostringstream out;
  report.write_json(out);
  EXPECT_NE(out.str().find("\"min\":null"), std::string::npos);
}

TEST(RunReport, CsvHasOneRowPerMetric) {
  RunReport report;
  report.set_meta("experiment", "unit");
  report.add_counter("sent", 7.0);
  SampleSeries s;
  s.add(1.0);
  report.add_series("lat", s);
  std::ostringstream out;
  report.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("kind,name,count,value,mean,stddev,min,max,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,sent,"), std::string::npos);
  EXPECT_NE(csv.find("series,lat,1,"), std::string::npos);
}

TEST(RunReport, SnapshotsWholeRegistry) {
  MetricsRegistry reg;
  reg.add(reg.counter_id("c1"), 2.0);
  reg.set(reg.gauge_id("g1"), 3.0);
  reg.sample(reg.series_id("s1"), 4.0);
  RunReport report;
  report.add_metrics(reg, "run0.");
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"run0.c1\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"run0.g1\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"run0.s1\""), std::string::npos);
}

}  // namespace
}  // namespace icc::sim
