#include "traffic/cbr.hpp"

namespace icc::traffic {

CbrConnection::CbrConnection(aodv::Aodv& source, sim::NodeId dest, Params params)
    : source_{source},
      dest_{dest},
      params_{params} {
  source_.node().clock().schedule_at(params_.start, [this] { send_next(); },
                                     net::EventTag::kTraffic);
}

void CbrConnection::send_next() {
  net::Host& host = source_.node();
  if (host.now() >= params_.stop) return;

  aodv::DataMsg data;
  data.app_uid = host.next_packet_uid();
  data.app_bytes = params_.packet_bytes;
  data.sent_at = host.now();
  ++sent_;
  host.metrics().add(m_sent_);
  source_.send_data(dest_, data);

  host.clock().schedule_in(1.0 / params_.rate_pps, [this] { send_next(); },
                           net::EventTag::kTraffic);
}

void CbrConnection::attach_sink(aodv::Aodv& aodv) {
  net::Host& host = aodv.node();
  const sim::MetricId latency = host.metrics().series_id("cbr.latency");
  aodv.set_deliver_handler([&host, received = sim::CounterHandle{"cbr.received"}, latency](
                               const aodv::DataMsg& data, sim::NodeId) mutable {
    host.metrics().add(received);
    host.metrics().sample(latency, host.now() - data.sent_at);
  });
}

}  // namespace icc::traffic
