#include "core/population.hpp"

#include <algorithm>
#include <charconv>

#include "common/check.hpp"

namespace fortress::core {

using replication::MessageView;
using replication::MsgType;

ClientPopulation::ClientPopulation(sim::Simulator& sim, net::Network& network,
                                   const crypto::KeyRegistry& registry,
                                   Directory directory,
                                   const net::PopulationSpec& spec,
                                   sim::Time horizon, std::uint64_t seed)
    : sim_(sim),
      network_(network),
      registry_(registry),
      directory_(std::move(directory)),
      spec_(spec) {
  build(horizon, seed);
}

ClientPopulation::~ClientPopulation() {
  for (net::HostId host : cohort_hosts_) network_.detach(host);
}

void ClientPopulation::reset(Directory directory,
                             const net::PopulationSpec& spec, sim::Time horizon,
                             std::uint64_t seed) {
  directory_ = std::move(directory);
  spec_ = spec;
  build(horizon, seed);
}

std::uint32_t ClientPopulation::cohort_end(std::size_t k) const {
  const std::uint64_t end =
      (static_cast<std::uint64_t>(k) + 1) * spec_.cohort_size;
  return static_cast<std::uint32_t>(std::min(end, spec_.clients));
}

void ClientPopulation::build(sim::Time horizon, std::uint64_t seed) {
  FORTRESS_EXPECTS(spec_.enabled());
  spec_.validate();
  FORTRESS_EXPECTS(directory_.fortified() || !directory_.server_addrs.empty());
  horizon_ = horizon;

  const std::size_t n = static_cast<std::size_t>(spec_.clients);
  submitted_at_.assign(n, 0.0);
  retry_at_.assign(n, 0.0);
  next_delay_.assign(n, 0.0f);
  counter_.assign(n, 0);
  key_.assign(n, 0);
  state_.assign(n, kIdle);
  retries_used_.assign(n, 0);

  const std::size_t cohorts = (n + spec_.cohort_size - 1) / spec_.cohort_size;
  cohort_hosts_.clear();
  cohort_addrs_.clear();
  cohort_rngs_.assign(cohorts, Rng{0});
  cursors_.assign(cohorts, 0);
  busy_.assign(cohorts, 0);
  host_to_cohort_.clear();
  cohort_hosts_.reserve(cohorts);
  cohort_addrs_.reserve(cohorts);
  host_to_cohort_.reserve(cohorts);
  for (std::size_t k = 0; k < cohorts; ++k) {
    cohort_addrs_.push_back("pop-c" + std::to_string(k));
    cohort_hosts_.push_back(network_.attach(cohort_addrs_.back(), *this));
    cohort_rngs_[k].reset_substream(seed, static_cast<std::uint64_t>(k));
    host_to_cohort_.emplace_back(cohort_hosts_[k],
                                 static_cast<std::uint32_t>(k));
  }
  std::sort(host_to_cohort_.begin(), host_to_cohort_.end());

  const auto& targets =
      directory_.fortified() ? directory_.proxies : directory_.server_addrs;
  target_ids_.clear();
  target_ids_.reserve(targets.size());
  for (const net::Address& target : targets) {
    target_ids_.push_back(network_.intern(target));
  }
  batch_.assign(target_ids_.size(), Bytes{});
  batch_counts_.assign(target_ids_.size(), 0);

  stats_ = PopulationStats{};

  // Staggered first ticks spread the cohort kernels evenly across one tick
  // interval: per-event work stays bounded by one cohort, and cohorts'
  // retry bursts never align (the plane's substitute for per-client
  // jitter).
  for (std::size_t k = 0; k < cohorts; ++k) {
    const sim::Time first = spec_.tick_interval *
                            (static_cast<double>(k) + 1.0) /
                            static_cast<double>(cohorts);
    if (first < horizon_) {
      sim_.schedule_at(first, [this, k] { tick(k); });
    }
  }
}

std::size_t ClientPopulation::table_bytes() const {
  return submitted_at_.size() * sizeof(double) +
         retry_at_.size() * sizeof(double) +
         next_delay_.size() * sizeof(float) +
         counter_.size() * sizeof(std::uint32_t) +
         key_.size() * sizeof(std::uint16_t) +
         state_.size() * sizeof(std::uint8_t) +
         retries_used_.size() * sizeof(std::uint8_t);
}

void ClientPopulation::tick(std::size_t k) {
  const sim::Time now = sim_.now();
  // Retries and expiries first: a slot whose request dies at this tick is
  // immediately available to this tick's arrivals.
  scan_busy(k, now);
  arrivals(k, now);
  flush_batches(k);
  if (now + spec_.tick_interval < horizon_) {
    sim_.schedule_after(spec_.tick_interval, [this, k] { tick(k); });
  }
}

void ClientPopulation::scan_busy(std::size_t k, sim::Time now) {
  if (busy_[k] == 0) return;
  const std::uint32_t b = cohort_begin(k);
  const std::uint32_t e = cohort_end(k);
  for (std::uint32_t slot = b; slot < e; ++slot) {
    if (state_[slot] == kIdle) continue;
    // Deadline beats budget, as in core::Client::schedule_retry.
    if (spec_.request_deadline > 0.0 &&
        now - submitted_at_[slot] >= spec_.request_deadline) {
      ++stats_.timed_out;
      state_[slot] = kIdle;
      --busy_[k];
      continue;
    }
    if (now < retry_at_[slot]) continue;
    if (spec_.retry_budget > 0 && retries_used_[slot] >= spec_.retry_budget) {
      ++stats_.gave_up;
      state_[slot] = kIdle;
      --busy_[k];
      continue;
    }
    ++retries_used_[slot];
    ++stats_.retries;
    encode_request(k, slot);
    append_to_batches(k);
    double d = static_cast<double>(next_delay_[slot]) * spec_.retry_multiplier;
    if (spec_.retry_cap > 0.0 && d > spec_.retry_cap) d = spec_.retry_cap;
    next_delay_[slot] = static_cast<float>(d);
    retry_at_[slot] = now + d;
  }
}

void ClientPopulation::arrivals(std::size_t k, sim::Time now) {
  const std::uint32_t b = cohort_begin(k);
  const std::uint32_t e = cohort_end(k);
  const std::uint32_t span = e - b;
  const double lambda = static_cast<double>(span) * spec_.request_rate;
  if (lambda <= 0.0) return;
  Rng& rng = cohort_rngs_[k];
  // Poisson arrivals over one tick window by exponential inter-arrival
  // accumulation: O(arrivals) draws and immune to the Knuth-product
  // underflow that caps direct Poisson sampling at large lambda.
  for (sim::Time t = rng.exponential(lambda); t < spec_.tick_interval;
       t += rng.exponential(lambda)) {
    std::uint32_t tried = 0;
    const std::uint32_t c = cursors_[k];
    for (; tried < span; ++tried) {
      if (state_[b + (c + tried) % span] == kIdle) break;
    }
    if (tried == span) {
      ++stats_.skipped_busy;
      continue;
    }
    const std::uint32_t slot = b + (c + tried) % span;
    cursors_[k] = (c + tried + 1) % span;
    const unsigned key = rng.below(spec_.distinct_keys);
    const bool write = rng.bernoulli(spec_.write_fraction);
    key_[slot] = static_cast<std::uint16_t>(key);
    state_[slot] = write ? kBusyWrite : kBusyRead;
    ++busy_[k];
    submitted_at_[slot] = now;
    next_delay_[slot] = static_cast<float>(spec_.retry_base);
    retry_at_[slot] = now + spec_.retry_base;
    retries_used_[slot] = 0;
    counter_[slot] = (counter_[slot] + 1) & 0xFFFFFFu;
    ++stats_.offered;
    encode_request(k, slot);
    append_to_batches(k);
  }
}

void ClientPopulation::encode_request(std::size_t k, std::uint32_t slot) {
  const bool write = state_[slot] == kBusyWrite;
  body_.clear();
  body_.append(write ? "PUT k" : "GET k");
  char digits[8];
  auto [end, ec] =
      std::to_chars(digits, digits + sizeof(digits), key_[slot]);
  FORTRESS_CHECK(ec == std::errc{});
  body_.append(digits, end);
  if (write) body_.append(" v");

  msg_.type = MsgType::Request;
  msg_.view = 0;
  msg_.seq = 0;
  msg_.sender_index = 0;
  msg_.request_id.client = cohort_addrs_[k];
  // (slot+1) << 24 | counter: globally unique per in-flight request, and
  // the response demux recovers the table row in O(1) from the echoed seq.
  msg_.request_id.seq =
      (static_cast<std::uint64_t>(slot) + 1) << 24 | counter_[slot];
  msg_.requester = cohort_addrs_[k];
  msg_.payload.assign(body_.begin(), body_.end());
  msg_.aux.clear();
  msg_.signature.reset();
  msg_.over_signature.reset();
  msg_.encode_into(wire_);
}

void ClientPopulation::append_to_batches(std::size_t) {
  for (std::size_t i = 0; i < target_ids_.size(); ++i) {
    Bytes& buf = batch_[i];
    if (batch_counts_[i] == 0) buf = network_.acquire_buffer();
    append_u32_be(buf, static_cast<std::uint32_t>(wire_.size()));
    buf.insert(buf.end(), wire_.begin(), wire_.end());
    ++batch_counts_[i];
  }
}

void ClientPopulation::flush_batches(std::size_t k) {
  for (std::size_t i = 0; i < target_ids_.size(); ++i) {
    if (batch_counts_[i] == 0) continue;
    network_.send_batch(cohort_hosts_[k], target_ids_[i], std::move(batch_[i]),
                        batch_counts_[i]);
    batch_[i] = Bytes{};
    batch_counts_[i] = 0;
  }
}

void ClientPopulation::on_message(const net::Envelope& env) {
  auto msg = MessageView::decode(env.payload);
  if (!msg) return;
  if (msg->type() != MsgType::Response &&
      msg->type() != MsgType::ProxyResponse) {
    return;
  }
  // Cohort demux by destination host, then table row from the echoed seq.
  auto it = std::lower_bound(
      host_to_cohort_.begin(), host_to_cohort_.end(), env.to,
      [](const auto& entry, net::HostId host) { return entry.first < host; });
  if (it == host_to_cohort_.end() || it->first != env.to) return;
  const std::size_t k = it->second;
  const std::uint64_t seq = msg->request_seq();
  const std::uint64_t row = seq >> 24;
  if (row == 0 || row > spec_.clients) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(row - 1);
  if (slot < cohort_begin(k) || slot >= cohort_end(k)) return;
  if (state_[slot] == kIdle) return;  // duplicate of a finished request
  if ((seq & 0xFFFFFFu) != counter_[slot]) return;  // answer to a past life
  if (msg->request_client() != cohort_addrs_[k]) return;
  // core::Client's acceptance without its SMR f+1 vote (see the header).
  if (!authentic_response(directory_, *msg, registry_)) {
    ++stats_.rejected_responses;
    return;
  }
  stats_.latency.add(sim_.now() - submitted_at_[slot]);
  ++stats_.completed;
  state_[slot] = kIdle;
  --busy_[k];
}

}  // namespace fortress::core
