#include "proxy/probe_log.hpp"

namespace fortress::proxy {

void ProbeLog::record(net::HostId source, sim::Time now) {
  if (source >= sources_.size()) {
    sources_.resize(static_cast<std::size_t>(source) + 1);
  }
  std::deque<sim::Time>& events = sources_[source];
  events.push_back(now);
  expire(events, now);
}

void ProbeLog::expire(std::deque<sim::Time>& events, sim::Time now) const {
  while (!events.empty() && events.front() < now - config_.window) {
    events.pop_front();
  }
}

std::uint32_t ProbeLog::score(net::HostId source, sim::Time now) const {
  if (source >= sources_.size()) return 0;
  std::deque<sim::Time>& events = sources_[source];
  expire(events, now);
  return static_cast<std::uint32_t>(events.size());
}

bool ProbeLog::flagged(net::HostId source, sim::Time now) const {
  return score(source, now) >= config_.threshold;
}

}  // namespace fortress::proxy
