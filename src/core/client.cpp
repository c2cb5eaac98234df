#include "core/client.hpp"

#include "common/check.hpp"

namespace fortress::core {

using replication::MessageView;
using replication::MsgType;

Client::Client(sim::Simulator& sim, net::Network& network,
               const crypto::KeyRegistry& registry, Directory directory,
               ClientConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      directory_(std::move(directory)),
      config_(std::move(config)) {
  FORTRESS_EXPECTS(directory_.fortified() || !directory_.server_addrs.empty());
  FORTRESS_EXPECTS(config_.retry_interval > 0.0);
  FORTRESS_EXPECTS(config_.retry_multiplier >= 1.0);
  FORTRESS_EXPECTS(config_.retry_cap >= 0.0);
  FORTRESS_EXPECTS(config_.retry_jitter >= 0.0 && config_.retry_jitter < 1.0);
  jitter_rng_.reset_substream(config_.seed, 0);
  id_ = network_.attach(config_.address, *this);
  const auto& targets =
      directory_.fortified() ? directory_.proxies : directory_.server_addrs;
  target_ids_.reserve(targets.size());
  for (const net::Address& target : targets) {
    target_ids_.push_back(network_.intern(target));
  }
}

Client::~Client() { network_.detach(id_); }

std::uint64_t Client::submit(Bytes request, ResponseCallback on_response) {
  std::uint64_t seq = ++next_seq_;
  Outstanding out;
  out.request = std::move(request);
  out.on_response = std::move(on_response);
  out.submitted_at = sim_.now();
  out.next_delay = config_.retry_interval;
  auto [it, inserted] = outstanding_.emplace(seq, std::move(out));
  FORTRESS_EXPECTS(inserted);
  ++stats_.submitted;
  broadcast_request(seq);
  schedule_retry(seq, it->second);
  return seq;
}

void Client::broadcast_request(std::uint64_t seq) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  // Encoded from borrowed fields: no Message copy of the request body or
  // the client's address per (re)send.
  Bytes wire = network_.acquire_buffer();
  replication::MessageCore{.type = MsgType::Request,
                           .client = config_.address,
                           .client_seq = seq,
                           .requester = config_.address,
                           .payload = it->second.request}
      .encode_into(wire);
  for (net::HostId target : target_ids_) {
    network_.send_copy(id_, target, wire);
  }
  network_.recycle_buffer(std::move(wire));
}

void Client::schedule_retry(std::uint64_t seq, Outstanding& out) {
  sim::Time delay = out.next_delay;
  if (config_.retry_jitter > 0.0) {
    // Deterministic jitter from the client's own stream: decorrelates retry
    // storms across clients without perturbing any other RNG consumer.
    delay *= 1.0 + config_.retry_jitter * (2.0 * jitter_rng_.uniform01() - 1.0);
  }
  bool at_deadline = false;
  if (config_.deadline > 0.0) {
    const sim::Time deadline_at = out.submitted_at + config_.deadline;
    if (sim_.now() + delay >= deadline_at) {
      delay = deadline_at - sim_.now();
      at_deadline = true;
    }
  }
  out.retry_event = sim_.schedule_after(delay, [this, seq, at_deadline] {
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;  // defensive: complete() cancels
    Outstanding& o = it->second;
    o.retry_event = 0;
    if (at_deadline) {
      ++stats_.expired;
      outstanding_.erase(it);
      return;
    }
    if (config_.retry_budget > 0 && o.retries_used >= config_.retry_budget) {
      ++stats_.gave_up;
      outstanding_.erase(it);
      return;
    }
    ++o.retries_used;
    ++stats_.retries;
    broadcast_request(seq);
    o.next_delay *= config_.retry_multiplier;
    if (config_.retry_cap > 0.0 && o.next_delay > config_.retry_cap) {
      o.next_delay = config_.retry_cap;
    }
    schedule_retry(seq, o);
  });
}

bool Client::acceptable(const MessageView& msg, Outstanding& out) {
  // All checks up to acceptance run on the borrowed view; nothing
  // allocates until a response is authentic.
  if (!authentic_response(directory_, msg, registry_)) return false;
  if (directory_.fortified() ||
      directory_.replication == ReplicationType::PrimaryBackup) {
    return true;  // one authentic response suffices under the crash model
  }

  // SMR: collect matching votes from f+1 distinct principals.
  std::string key = to_hex(msg.payload());
  std::set<std::string>& signers = out.votes[key];
  signers.insert(std::string(msg.signature()->signer));
  return signers.size() >= directory_.f + 1;
}

void Client::on_message(const net::Envelope& env) {
  // Zero-copy accept path: everything up to acceptance runs on the
  // borrowed view; only an accepted payload is materialized.
  auto msg = MessageView::decode(env.payload);
  if (!msg) return;
  if (msg->type() != MsgType::Response &&
      msg->type() != MsgType::ProxyResponse) {
    return;
  }
  if (msg->request_client() != config_.address) return;
  auto it = outstanding_.find(msg->request_seq());
  if (it == outstanding_.end()) return;  // duplicate of a completed request
  if (!acceptable(*msg, it->second)) {
    ++stats_.rejected_responses;
    return;
  }
  complete(msg->request_seq(),
           Bytes(msg->payload().begin(), msg->payload().end()));
}

void Client::complete(std::uint64_t seq, const Bytes& response) {
  auto it = outstanding_.find(seq);
  FORTRESS_EXPECTS(it != outstanding_.end());
  // Cancel the live retry/deadline timer: once a response completes the
  // request, no timeout can fire for it (the race the timer-per-retry
  // scheme left open — a stale timer observing a reused map slot).
  if (it->second.retry_event != 0) sim_.cancel(it->second.retry_event);
  latency_sum_ += sim_.now() - it->second.submitted_at;
  ++stats_.completed;
  auto cb = it->second.on_response;
  outstanding_.erase(it);
  if (cb) cb(seq, response);
}

double Client::mean_latency() const {
  if (stats_.completed == 0) return 0.0;
  return latency_sum_ / static_cast<double>(stats_.completed);
}

}  // namespace fortress::core
