#include "osl/machine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
// Layering note: osl is below replication, but the service queue needs the
// wire message CLASS (request vs response vs control) to pick a service-time
// distribution. MessageView::peek is a fixed-offset header check with no
// osl dependency, so this .cpp-only include creates no cycle.
#include "replication/message.hpp"

namespace fortress::osl {

Machine::Machine(net::Network& network, MachineConfig config)
    : network_(network), config_(std::move(config)) {
  FORTRESS_EXPECTS(config_.keyspace >= 2);
  FORTRESS_EXPECTS(!config_.address.empty());
  id_ = network_.intern(config_.address);
}

Machine::~Machine() {
  if (booted_) network_.detach(id_, net::CloseReason::LocalDetach);
}

void Machine::boot(RandKey key) {
  FORTRESS_EXPECTS(!booted_);
  FORTRESS_EXPECTS(key < config_.keyspace);
  key_ = key;
  booted_ = true;
  compromised_ = false;
  network_.attach(id_, *this);
}

void Machine::shutdown() {
  if (!booted_) return;
  network_.detach(id_, net::CloseReason::PeerClosed);
  booted_ = false;
  // The process is gone: the attacker's implant and sessions die with it —
  // and so does every request queued for service (surfaced in
  // dropped_on_reboot; the senders' retry loops are what recovers them).
  compromised_ = false;
  attacker_conns_.clear();
  clear_service_queue();
}

void Machine::revive() {
  boot(key_);
  if (app_ != nullptr) app_->handle_reboot();
}

void Machine::reboot_common() {
  FORTRESS_EXPECTS(booted_);
  // Reboot: all connections drop (clean close — peers see an orderly
  // restart, not a child crash), attacker sessions die with them.
  network_.detach(id_, net::CloseReason::PeerClosed);
  compromised_ = false;
  attacker_conns_.clear();  // the implant and its sessions die with the reboot
  clear_service_queue();    // queued work dies with the process image
  network_.attach(id_, *this);
  if (app_ != nullptr) app_->handle_reboot();
}

void Machine::rerandomize(RandKey fresh_key) {
  FORTRESS_EXPECTS(fresh_key < config_.keyspace);
  key_ = fresh_key;
  reboot_common();
}

void Machine::recover() { reboot_common(); }

void Machine::reset(std::uint64_t keyspace) {
  FORTRESS_EXPECTS(keyspace >= 2);
  config_.keyspace = keyspace;
  key_ = 0;
  booted_ = false;
  compromised_ = false;
  child_crashes_ = 0;
  times_compromised_ = 0;
  compromise_listeners_.clear();
  attacker_conns_.clear();
  tap_message_ = nullptr;
  tap_closed_ = nullptr;
  clear_service_queue();
  service_ = net::ServiceModel{};
  overload_stats_ = OverloadStats{};
}

void Machine::configure_service(const net::ServiceModel& model,
                                std::uint64_t seed) {
  model.validate();
  clear_service_queue();
  service_ = model;
  service_rng_.reset_substream(seed, 0);
  overload_stats_ = OverloadStats{};
}

void Machine::handle_probe(const net::Envelope& env, RandKey guess) {
  if (compromised_ || guess == key_) {
    if (!compromised_) {
      compromised_ = true;
      ++times_compromised_;
      FORTRESS_LOG_INFO("machine")
          << config_.address << " COMPROMISED by "
          << network_.address_of(env.from) << " (key=" << key_ << ")";
      for (const auto& listener : compromise_listeners_) listener(*this);
    }
    Bytes ack = network_.acquire_buffer();
    encode_owned_ack_into(ack, key_);
    if (env.connection) {
      network_.send_on(*env.connection, id_, std::move(ack));
    } else {
      network_.send(id_, env.from, std::move(ack));
    }
    return;
  }
  // Wrong guess: the forked child serving this request crashes. Only the
  // connection it served is affected; the forking daemon respawns the child,
  // so the machine stays attached and other sessions continue.
  ++child_crashes_;
  if (env.connection) {
    network_.abort(*env.connection, id_);
  }
  // A datagram probe produces no observable reaction at all.
}

void Machine::on_message(const net::Envelope& env) {
  // Replies on attacker-opened connections go to the attacker's tap.
  if (env.connection && attacker_conns_.contains(*env.connection)) {
    if (tap_message_) tap_message_(env);
    return;
  }
  // Direct attack: a raw probe on the wire.
  if (auto guess = decode_probe(env.payload)) {
    handle_probe(env, *guess);
    return;
  }
  // Indirect attack: a probe smuggled inside a service request (the exploit
  // fires while the child parses the request, before any application logic
  // can inspect it). Only machines that actually process request payloads
  // are vulnerable — proxies forward without parsing (§3). The scan hops
  // via memchr (see probe.cpp); the dispatch below hands the application
  // the same borrowed payload view, which replication::MessageView decodes
  // without copying — nothing on this path allocates.
  if (config_.processes_request_payloads) {
    if (auto embedded = probe_inside_request(env.payload)) {
      handle_probe(env, *embedded);
      return;
    }
  }
  if (app_ == nullptr) return;
  if (!service_.enabled) {  // the whole overload plane costs this one branch
    app_->handle_message(env);
    return;
  }
  const ServiceClass cls = classify_service(env.payload);
  if (cls == ServiceClass::Control && !service_.queue_control) {
    // Prioritized control plane: heartbeats/state updates/view changes are
    // handled synchronously so a request flood cannot starve failover
    // timers into a view-change storm.
    app_->handle_message(env);
    return;
  }
  enqueue_service(env, cls);
}

Machine::ServiceClass Machine::classify_service(BytesView payload) {
  auto header = replication::MessageView::peek(payload);
  if (!header) return ServiceClass::Control;
  switch (header->type) {
    case replication::MsgType::Request:
      return ServiceClass::Request;
    case replication::MsgType::Response:
    case replication::MsgType::ProxyResponse:
      return ServiceClass::Response;
    default:
      return ServiceClass::Control;
  }
}

Machine::QueuedMessage Machine::copy_message(const net::Envelope& env,
                                             ServiceClass cls) {
  QueuedMessage qm;
  qm.payload = network_.acquire_buffer();
  qm.payload.assign(env.payload.begin(), env.payload.end());
  qm.from = env.from;
  qm.connection = env.connection;
  qm.cls = cls;
  return qm;
}

void Machine::enqueue_service(const net::Envelope& env, ServiceClass cls) {
  if (service_queue_.size() >= service_.queue_capacity) {
    switch (service_.policy) {
      case net::OverloadPolicy::DropTail:
      case net::OverloadPolicy::DegradeUnsigned:
        ++overload_stats_.shed;
        return;  // dropped before any copy is made
      case net::OverloadPolicy::ShedNewest:
        // Evict the newest queued entry: oldest work keeps its place, so a
        // request that has waited is not starved by its own retries.
        network_.recycle_buffer(std::move(service_queue_.back().payload));
        service_queue_.pop_back();
        ++overload_stats_.shed;
        break;
      case net::OverloadPolicy::Backpressure:
        park_service(copy_message(env, cls));
        return;
    }
  }
  push_service(copy_message(env, cls));
}

void Machine::push_service(QueuedMessage&& qm) {
  qm.degraded = service_.policy == net::OverloadPolicy::DegradeUnsigned &&
                service_depth() >= service_.degrade_watermark;
  service_queue_.push_back(std::move(qm));
  ++overload_stats_.enqueued;
  overload_stats_.max_depth =
      std::max<std::uint64_t>(overload_stats_.max_depth, service_depth());
  if (!in_service_) begin_service();
}

void Machine::park_service(QueuedMessage&& qm) {
  ++overload_stats_.backpressured;
  const std::uint64_t epoch = service_epoch_;
  network_.simulator().schedule_after(
      service_.pushback_delay, [this, epoch, qm = std::move(qm)]() mutable {
        if (epoch != service_epoch_ || !booted_) {
          // The incarnation this message was parked against is gone.
          ++overload_stats_.dropped_on_reboot;
          network_.recycle_buffer(std::move(qm.payload));
          return;
        }
        if (service_queue_.size() >= service_.queue_capacity) {
          park_service(std::move(qm));  // still full: push back again
          return;
        }
        push_service(std::move(qm));
      });
}

void Machine::begin_service() {
  in_service_msg_ = std::move(service_queue_.front());
  service_queue_.pop_front();
  in_service_ = true;
  sim::Time service_time = 0.0;
  switch (in_service_msg_.cls) {
    case ServiceClass::Request:
      service_time = service_.request_service.sample(service_rng_);
      break;
    case ServiceClass::Response:
      service_time = service_.response_service.sample(service_rng_);
      break;
    case ServiceClass::Control:
      service_time = service_.other_service.sample(service_rng_);
      break;
  }
  if (!in_service_msg_.degraded) service_time += service_.verify_cost;
  service_event_ = network_.simulator().schedule_after(
      service_time, [this] { finish_service(); });
}

void Machine::finish_service() {
  service_event_ = 0;
  net::Envelope env{in_service_msg_.from, id_,
                    BytesView(in_service_msg_.payload),
                    in_service_msg_.connection, in_service_msg_.degraded};
  ++overload_stats_.served;
  if (env.degraded) ++overload_stats_.degraded;
  if (app_ != nullptr) app_->handle_message(env);
  network_.recycle_buffer(std::move(in_service_msg_.payload));
  in_service_ = false;
  if (!service_queue_.empty()) begin_service();
}

void Machine::clear_service_queue() {
  ++service_epoch_;  // parked Backpressure re-offers recognize the reboot
  if (service_event_ != 0) {
    network_.simulator().cancel(service_event_);
    service_event_ = 0;
  }
  if (in_service_) {
    network_.recycle_buffer(std::move(in_service_msg_.payload));
    in_service_ = false;
    ++overload_stats_.dropped_on_reboot;
  }
  overload_stats_.dropped_on_reboot += service_queue_.size();
  for (QueuedMessage& qm : service_queue_) {
    network_.recycle_buffer(std::move(qm.payload));
  }
  service_queue_.clear();
}

void Machine::on_connection_opened(net::ConnectionId id, net::HostId peer) {
  if (app_ != nullptr) app_->handle_connection_opened(id, peer);
}

void Machine::on_connection_closed(net::ConnectionId id, net::HostId peer,
                                   net::CloseReason reason) {
  if (attacker_conns_.erase(id) > 0) {
    if (tap_closed_) tap_closed_(id, reason);
    return;
  }
  if (app_ != nullptr) app_->handle_connection_closed(id, peer, reason);
}

std::optional<net::ConnectionId> Machine::attacker_connect(net::HostId to) {
  FORTRESS_EXPECTS(compromised_);
  auto conn = network_.connect(id_, to);
  if (conn) attacker_conns_.insert(*conn);
  return conn;
}

void Machine::set_attacker_taps(
    std::function<void(const net::Envelope&)> on_message,
    std::function<void(net::ConnectionId, net::CloseReason)> on_closed) {
  tap_message_ = std::move(on_message);
  tap_closed_ = std::move(on_closed);
}

bool Machine::attacker_send_on(net::ConnectionId id, Bytes payload) {
  FORTRESS_EXPECTS(compromised_);
  return network_.send_on(id, id_, std::move(payload));
}

void Machine::attacker_send(net::HostId to, Bytes payload) {
  FORTRESS_EXPECTS(compromised_);
  network_.send(id_, to, std::move(payload));
}

}  // namespace fortress::osl
