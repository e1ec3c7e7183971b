// Layer probes: timed direct calls into single layers' public functions,
// with inputs shaped like the workload's worlds (node count, area, radio
// range, mean degree, key size, dependability level).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/messages.hpp"
#include "crypto/hmac.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/sha256.hpp"
#include "fusion/ft_cluster.hpp"
#include "sim/mobility.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

namespace perfbench {
namespace {

/// Marks `value` as used so the optimizer cannot drop the call producing it.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median nanoseconds per call of `op` over seven batches, each sized to
/// take about 20 ms.
template <typename Op>
double ns_per_op(Op&& op) {
  std::size_t per_batch = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) op(i);
    if (seconds_since(start) >= 0.02) break;
    per_batch *= 2;
  }
  std::vector<double> samples;
  for (int b = 0; b < 7; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) op(i);
    samples.push_back(1e9 * seconds_since(start) / static_cast<double>(per_batch));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<std::uint8_t> random_bytes(icc::sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

}  // namespace

ProbeResults run_probes(const ProbeShape& shape, std::uint64_t seed, const SpanFn& span) {
  ProbeResults out;
  icc::sim::Rng rng{seed ^ 0x70726F6265ull};  // "probe"
  // `ops` is how many operations one call of `op` performs.
  const auto timed = [&](const std::string& name, auto&& op, double ops = 1.0) {
    const auto start = Clock::now();
    const double ns = ns_per_op(op) / ops;
    span(name, start, Clock::now());
    out.emplace_back(name, ns);
  };

  // Spatial grid: radio-range neighbor queries over the workload's layout.
  // Also yields the layout's mean degree, which sizes the STS beacon and the
  // fusion circle below.
  double mean_degree = 0.0;
  {
    icc::sim::WorldConfig config;
    config.width = shape.area;
    config.height = shape.area;
    config.tx_range = shape.tx_range;
    config.seed = seed;
    icc::sim::World world{config};
    for (int i = 0; i < shape.nodes; ++i) {
      const icc::sim::Vec2 start = rng.point_in(shape.area, shape.area);
      if (shape.mobile) {
        icc::sim::RandomWaypoint::Params mob;
        mob.width = shape.area;
        mob.height = shape.area;
        mob.max_speed = shape.max_speed;
        world.add_node(std::make_unique<icc::sim::RandomWaypoint>(
            mob, start, world.fork_rng(static_cast<std::uint64_t>(i))));
      } else {
        world.add_node(std::make_unique<icc::sim::StaticMobility>(start));
      }
    }
    std::vector<icc::sim::NodeId> hits;
    std::size_t degree_sum = 0;
    for (int i = 0; i < shape.nodes; ++i) {
      world.nodes_within(world.node(static_cast<icc::sim::NodeId>(i)).position(),
                         shape.tx_range, hits);
      degree_sum += hits.size() - 1;  // minus the node itself
    }
    mean_degree = static_cast<double>(degree_sum) / static_cast<double>(shape.nodes);
    timed("sim.grid.query_ns", [&](std::size_t i) {
      const auto id = static_cast<icc::sim::NodeId>(i % static_cast<std::size_t>(shape.nodes));
      world.nodes_within(world.node(id).position(), shape.tx_range, hits);
      keep(hits.size());
    });
  }
  const auto degree = static_cast<std::size_t>(mean_degree + 0.5);

  // Scheduler: schedule_at plus run_until over batches of events whose
  // closures capture what a MAC frame completion captures (an object
  // pointer, a node id, a frame id), which defeats std::function's
  // small-buffer storage just as the MAC's do.
  {
    icc::sim::Scheduler sched;
    constexpr std::size_t kBatch = 4096;
    std::vector<double> offsets(kBatch);
    for (double& t : offsets) t = rng.uniform(0.0, 1.0);
    std::uint64_t fired = 0;
    timed("sim.sched.event_ns", [&](std::size_t) {
      const double base = sched.now();
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.schedule_at(
            base + offsets[i],
            [counter = &fired, node = static_cast<icc::sim::NodeId>(i), fid = std::uint64_t{i}] {
              *counter += node + fid;
            },
            icc::sim::EventTag::kMac);
      }
      sched.run_until(base + 1.0);
    }, static_cast<double>(kBatch));
    keep(fired);
  }

  // Crypto: one STS beacon tag (HMAC over the beacon's authenticated bytes
  // at the workload's mean degree), raw SHA-256 throughput, and the
  // threshold scheme's sign / combine / verify at the workload's key size
  // and level.
  {
    icc::crypto::Digest key{};
    for (std::uint8_t& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<icc::sim::NodeId> neighbors(degree);
    for (std::size_t i = 0; i < degree; ++i) neighbors[i] = static_cast<icc::sim::NodeId>(i + 1);
    const std::vector<std::uint8_t> beacon =
        icc::core::StsBeacon::auth_bytes(0, 42, {shape.area / 2, shape.area / 2}, neighbors);
    timed("crypto.hmac_ns",
          [&](std::size_t) { keep(icc::crypto::hmac_sha256(key, std::span{beacon})); });

    const std::vector<std::uint8_t> block_data = random_bytes(rng, 64 * 1024);
    // 1024 data blocks plus the padding block per hash.
    timed("crypto.sha256_ns_per_block",
          [&](std::size_t) { keep(icc::crypto::Sha256::hash(std::span{block_data})); },
          1025.0);

    icc::crypto::ModelThresholdScheme scheme{seed, shape.level, shape.key_bits};
    std::vector<std::unique_ptr<icc::crypto::ThresholdSigner>> signers;
    for (int i = 0; i <= shape.level; ++i) {
      signers.push_back(scheme.issue_signer(static_cast<std::uint32_t>(i)));
    }
    const std::vector<std::uint8_t> msg = random_bytes(rng, 64);
    timed("crypto.model_sign_ns", [&](std::size_t) {
      keep(signers[0]->partial_sign(shape.level, msg).data.front());
    });
    std::vector<icc::crypto::PartialSig> partials;
    for (const auto& signer : signers) partials.push_back(signer->partial_sign(shape.level, msg));
    timed("crypto.model_combine_ns", [&](std::size_t) {
      keep(scheme.combine(shape.level, msg, partials).has_value());
    });
    const icc::crypto::ThresholdSignature sig = *scheme.combine(shape.level, msg, partials);
    timed("crypto.model_verify_ns",
          [&](std::size_t) { keep(scheme.verify(msg, sig)); });
  }

  // Fusion: FT-cluster over one circle's readings (the node plus its mean
  // degree of neighbors), one of them an outlier, eta = 5 as in the sensor
  // study's time fusion.
  {
    std::vector<double> readings(degree + 1);
    for (double& r : readings) r = 100.0 + rng.uniform(-1.0, 1.0);
    readings.back() = 130.0;
    timed("fusion.ft_cluster_ns", [&](std::size_t) {
      keep(icc::fusion::ft_cluster(readings, 5.0).estimate);
    });
  }

  out.emplace_back("probe.mean_degree", mean_degree);
  return out;
}

}  // namespace perfbench
