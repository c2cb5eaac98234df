// nameserver.hpp — the trusted, read-only name-server (§3).
//
// Serves Directory lookups over the network. It is trusted infrastructure:
// not an attack target in the paper's model, so it attaches directly to the
// network (no randomized Machine underneath) and its replies are signed so
// clients can authenticate the directory.
#pragma once

#include "core/directory.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"

namespace fortress::core {

/// Principal/address of the name-server in every deployment.
inline const char* kNameServerAddress = "nameserver";

class NameServer final : public net::Handler {
 public:
  NameServer(net::Network& network, crypto::KeyRegistry& registry,
             Directory directory);
  ~NameServer() override;
  NameServer(const NameServer&) = delete;
  NameServer& operator=(const NameServer&) = delete;

  const Directory& directory() const { return directory_; }

  /// Re-attach to the network after a Network::reset — the campaign
  /// trial-arena reuse path. The directory and signing key are structural
  /// and survive (the pooled stack keeps its PKI; see LiveSystem::reset).
  void reset();

  void on_message(const net::Envelope& env) override;

 private:
  net::Network& network_;
  crypto::SigningKey key_;
  Directory directory_;
  /// directory_.encode(), made once: the directory never changes.
  Bytes directory_wire_;
  net::HostId id_ = net::kInvalidHost;
};

}  // namespace fortress::core
