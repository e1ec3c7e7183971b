// Trace subsystem tests: typed event delivery, category mask filtering,
// zero-sink fast path, byte-identical JSONL traces for equal seeds, and
// whole lines from concurrent worlds sharing one trace file.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aodv/aodv.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "traffic/cbr.hpp"

namespace icc::sim {
namespace {

TEST(TraceTypes, EveryTypeHasNameAndCategory) {
  for (std::size_t t = 0; t < static_cast<std::size_t>(TraceType::kCount); ++t) {
    const auto type = static_cast<TraceType>(t);
    EXPECT_NE(trace_type_name(type), nullptr);
    EXPECT_LT(static_cast<std::size_t>(trace_category(type)),
              static_cast<std::size_t>(TraceCategory::kCount));
  }
  EXPECT_STREQ(trace_category_name(TraceCategory::kPacket), "packet");
  EXPECT_EQ(trace_category(TraceType::kPacketDrop), TraceCategory::kPacket);
  EXPECT_EQ(trace_category(TraceType::kVoteVerdict), TraceCategory::kVoting);
}

TEST(Tracer, ParseMask) {
  EXPECT_EQ(Tracer::parse_mask(nullptr), 0u);
  EXPECT_EQ(Tracer::parse_mask(""), 0u);
  EXPECT_EQ(Tracer::parse_mask("packet"),
            1u << static_cast<unsigned>(TraceCategory::kPacket));
  EXPECT_EQ(Tracer::parse_mask("packet,voting"),
            (1u << static_cast<unsigned>(TraceCategory::kPacket)) |
                (1u << static_cast<unsigned>(TraceCategory::kVoting)));
  EXPECT_EQ(Tracer::parse_mask("all"),
            (1u << static_cast<unsigned>(TraceCategory::kCount)) - 1u);
  EXPECT_EQ(Tracer::parse_mask("packet,,voting,"), Tracer::parse_mask("packet,voting"));
}

// Malformed numeric trace knobs abort naming the variable: "abc" must not
// read as 0 (health sampling silently off), nor "1k" as a one-record ring.
TEST(TraceKnobsDeathTest, MalformedHealthIntervalAborts) {
  ::setenv("ICC_TRACE_HEALTH", "abc", 1);
  EXPECT_DEATH({ World world{WorldConfig{}}; },
               "ICC_TRACE_HEALTH='abc' is not a valid number");
  ::unsetenv("ICC_TRACE_HEALTH");
}

TEST(TraceKnobsDeathTest, MalformedFlightRecordsAborts) {
  ::setenv("ICC_FLIGHT", "1", 1);
  ::setenv("ICC_FLIGHT_RECORDS", "1k", 1);
  EXPECT_DEATH({ World world{WorldConfig{}}; },
               "ICC_FLIGHT_RECORDS='1k' is not a valid integer");
  ::unsetenv("ICC_FLIGHT_RECORDS");
  ::unsetenv("ICC_FLIGHT");
}

// An unknown category aborts naming it and listing the valid ones, so a
// typo ("pakcet") cannot run untraced without a word.
TEST(TraceKnobsDeathTest, UnknownCategoryAborts) {
  ::setenv("ICC_TRACE", "packet,pakcet", 1);
  EXPECT_DEATH({ World world{WorldConfig{}}; },
               "ICC_TRACE='packet,pakcet' is not a valid trace category list: unknown "
               "category 'pakcet' \\(valid: all, packet, mac, route, voting, watchdog, "
               "fusion, energy, fault, suspicion, health\\)");
  ::unsetenv("ICC_TRACE");
  EXPECT_DEATH((void)Tracer::parse_mask("bogus"), "unknown category 'bogus'");
  EXPECT_DEATH((void)Tracer::parse_mask("all,bogus"), "unknown category 'bogus'");
}

// On/off knobs accept exactly 0 and 1: "false" must not arm the flight
// recorder, nor "yes" the profiler.
TEST(TraceKnobsDeathTest, FlightFalseAborts) {
  ::setenv("ICC_FLIGHT", "false", 1);
  EXPECT_DEATH({ World world{WorldConfig{}}; },
               "ICC_FLIGHT='false' is not a valid on/off flag");
  ::unsetenv("ICC_FLIGHT");
}

TEST(TraceKnobsDeathTest, ProfileYesAborts) {
  ::setenv("ICC_PROFILE", "yes", 1);
  EXPECT_DEATH({ World world{WorldConfig{}}; },
               "ICC_PROFILE='yes' is not a valid on/off flag");
  ::unsetenv("ICC_PROFILE");
}

TEST(Tracer, SubscriberReceivesTypedEvents) {
  Tracer tracer;
  CollectingTraceSink sink;
  tracer.set_mask(Tracer::parse_mask("all"));
  tracer.add_sink(&sink);

  tracer.emit({1.5, TraceType::kPacketTx, 3, 7, 42, 512, 0.001, nullptr});
  tracer.emit({2.0, TraceType::kWatchdogAccuse, 1, 9, 0, 0, 2.0, nullptr});

  ASSERT_EQ(sink.events().size(), 2u);
  const TraceEvent& tx = sink.events()[0];
  EXPECT_DOUBLE_EQ(tx.t, 1.5);
  EXPECT_EQ(tx.type, TraceType::kPacketTx);
  EXPECT_EQ(tx.node, 3u);
  EXPECT_EQ(tx.peer, 7u);
  EXPECT_EQ(tx.uid, 42u);
  EXPECT_EQ(tx.size, 512u);
  const TraceEvent& accuse = sink.events()[1];
  EXPECT_EQ(accuse.type, TraceType::kWatchdogAccuse);
  EXPECT_EQ(accuse.peer, 9u);
  EXPECT_DOUBLE_EQ(accuse.value, 2.0);
}

TEST(Tracer, MaskFiltersCategories) {
  Tracer tracer;
  CollectingTraceSink sink;
  tracer.set_mask(Tracer::parse_mask("packet"));
  tracer.add_sink(&sink);

  tracer.emit({0.0, TraceType::kPacketTx, 0});
  tracer.emit({0.0, TraceType::kMacCollision, 0});  // mac: filtered out
  tracer.emit({0.0, TraceType::kVoteVerdict, 0});   // voting: filtered out

  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].type, TraceType::kPacketTx);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kPacket));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kMac));
}

TEST(Tracer, DisabledWithoutSinksEvenIfMaskSet) {
  Tracer tracer;
  tracer.set_mask(Tracer::parse_mask("all"));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kPacket));
  // emit() is a no-op; nothing to observe but it must not crash.
  tracer.emit({0.0, TraceType::kPacketTx, 0});
}

TEST(Tracer, LineSinkFormatsNs2Style) {
  std::ostringstream out;
  LineTraceSink sink{out};
  Tracer tracer;
  tracer.set_mask(Tracer::parse_mask("all"));
  tracer.add_sink(&sink);
  tracer.emit({12.000345678, TraceType::kPacketTx, 3, 7, 42, 512, 0.0, nullptr});
  EXPECT_EQ(out.str(), "s 12.000345678 _3_ packet packet_tx peer=7 uid=42 size=512\n");
}

TEST(Tracer, JsonlSinkEmitsOneObjectPerLine) {
  std::ostringstream out;
  JsonlTraceSink sink{out};
  Tracer tracer;
  tracer.set_mask(Tracer::parse_mask("all"));
  tracer.add_sink(&sink);
  tracer.emit({0.5, TraceType::kPacketDrop, 2, 4, 9, 100, 0.0, "no_route"});
  EXPECT_EQ(out.str(),
            "{\"t\":0.500000000,\"type\":\"packet_drop\",\"cat\":\"packet\",\"node\":2,"
            "\"peer\":4,\"uid\":9,\"size\":100,\"detail\":\"no_route\"}\n");
}

/// A deterministic 3-node AODV chain with CBR traffic, traced into a string.
std::string traced_chain_run(std::uint64_t seed) {
  WorldConfig config;
  config.seed = seed;
  World world{config};
  std::ostringstream out;
  JsonlTraceSink sink{out};
  world.tracer().set_mask(Tracer::parse_mask("all"));
  world.tracer().add_sink(&sink);

  world.add_node(std::make_unique<StaticMobility>(Vec2{0, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{200, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{400, 0}));
  std::vector<std::unique_ptr<aodv::Aodv>> agents;
  for (NodeId i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
    traffic::CbrConnection::attach_sink(*agents.back());
  }
  traffic::CbrConnection::Params cbr;
  cbr.start = 0.1;
  cbr.stop = 5.0;
  traffic::CbrConnection flow{*agents[0], 2, cbr};
  world.run_until(5.0);
  return out.str();
}

TEST(TraceDeterminism, SameSeedGivesByteIdenticalJsonl) {
  const std::string a = traced_chain_run(7);
  const std::string b = traced_chain_run(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The trace actually saw multi-hop activity, not just timers.
  EXPECT_NE(a.find("\"type\":\"route_rreq_sent\""), std::string::npos);
  EXPECT_NE(a.find("\"type\":\"packet_rx\""), std::string::npos);
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(traced_chain_run(7), traced_chain_run(8));
}

// Campaign workers build traced Worlds on concurrent threads, all appending
// to the one ICC_TRACE_FILE stream. Every line must arrive whole: one JSONL
// object per emitted event, none torn or interleaved mid-line. The shared
// stream is flushed only at process exit, so the worlds run in a child.
TEST(TraceIntegration, ConcurrentWorldsShareOneFileLineByLine) {
  const std::string path = ::testing::TempDir() + "icc_concurrent_trace_" +
                           std::to_string(::getpid()) + ".jsonl";
  const std::string count_path = path + ".count";
  EXPECT_EXIT(
      {
        ::setenv("ICC_TRACE", "all", 1);
        ::setenv("ICC_TRACE_FILE", path.c_str(), 1);
        std::atomic<std::size_t> emitted{0};
        std::vector<std::thread> workers;
        for (std::uint64_t w = 0; w < 4; ++w) {
          workers.emplace_back([w, &emitted] {
            for (std::uint64_t run = 0; run < 3; ++run) {
              WorldConfig config;
              config.seed = 100 + 10 * w + run;
              World world{config};
              CollectingTraceSink counter;
              world.tracer().add_sink(&counter);
              for (const double x : {0.0, 200.0, 400.0}) {
                world.add_node(std::make_unique<StaticMobility>(Vec2{x, 0}));
              }
              std::vector<std::unique_ptr<aodv::Aodv>> agents;
              for (NodeId i = 0; i < 3; ++i) {
                agents.push_back(
                    std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
                traffic::CbrConnection::attach_sink(*agents.back());
              }
              traffic::CbrConnection::Params cbr;
              cbr.start = 0.1;
              cbr.stop = 10.0;
              traffic::CbrConnection flow{*agents[0], 2, cbr};
              world.run_until(10.0);
              emitted += counter.events().size();
            }
          });
        }
        for (std::thread& t : workers) t.join();
        std::ofstream{count_path} << emitted.load() << '\n';
        std::exit(0);  // exit() flushes the shared trace stream
      },
      ::testing::ExitedWithCode(0), "");

  std::size_t emitted = 0;
  std::ifstream{count_path} >> emitted;
  EXPECT_GT(emitted, 1000u);
  // The shape JsonlTraceSink renders: fixed leading keys, then optional
  // numeric or string fields, one object per line.
  const std::regex whole_object{
      R"(\{"t":[0-9]+\.[0-9]{9},"type":"[a-z_]+","cat":"[a-z]+","node":[0-9]+)"
      R"((,"[a-z]+":([-+.eE0-9]+|"[a-z_]+"))*\})"};
  std::ifstream in{path};
  std::size_t lines = 0;
  std::size_t torn = 0;
  for (std::string line; std::getline(in, line);) {
    ++lines;
    if (!std::regex_match(line, whole_object)) ++torn;
  }
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(lines, emitted);
  std::remove(path.c_str());
  std::remove(count_path.c_str());
}

TEST(TraceIntegration, InstrumentationIsQuietWhenDisabled) {
  // A run with no sinks and mask 0 must not produce events — this guards
  // against an instrumentation site bypassing the enabled() check.
  WorldConfig config;
  config.seed = 3;
  World world{config};
  CollectingTraceSink sink;
  // Sink attached but mask 0: nothing may arrive.
  world.tracer().add_sink(&sink);
  world.add_node(std::make_unique<StaticMobility>(Vec2{0, 0}));
  world.add_node(std::make_unique<StaticMobility>(Vec2{100, 0}));
  std::vector<std::unique_ptr<aodv::Aodv>> agents;
  for (NodeId i = 0; i < 2; ++i) {
    agents.push_back(std::make_unique<aodv::Aodv>(world.node(i), aodv::Aodv::Params{}));
    traffic::CbrConnection::attach_sink(*agents.back());
  }
  traffic::CbrConnection::Params cbr;
  cbr.start = 0.1;
  cbr.stop = 2.0;
  traffic::CbrConnection flow{*agents[0], 1, cbr};
  world.run_until(2.0);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_GT(world.metrics().counter_value("cbr.received"), 0.0);  // traffic did flow
}

}  // namespace
}  // namespace icc::sim
