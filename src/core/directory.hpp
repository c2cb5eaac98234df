// directory.hpp — the trusted name-server's directory contents (§3).
//
// What a client may know: proxies' addresses and public identities, servers'
// INDICES and identities (never their addresses, in a fortified system), the
// replication type and the fault-tolerance degree. In 1-tier systems (S0,
// S1) server addresses are public, since clients talk to servers directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/network.hpp"

namespace fortress::crypto {
class KeyRegistry;
}
namespace fortress::replication {
class MessageView;
}

namespace fortress::core {

enum class ReplicationType : std::uint32_t {
  PrimaryBackup = 1,
  StateMachine = 2,
};

struct Directory {
  ReplicationType replication = ReplicationType::PrimaryBackup;
  std::uint32_t f = 0;  ///< meaningful for SMR (responses needed = f+1)
  /// Proxy addresses (empty in 1-tier deployments). Proxy principal names
  /// equal their addresses.
  std::vector<net::Address> proxies;
  /// Server principal names, by server index. In a 2-tier system this is
  /// all the client learns about servers.
  std::vector<std::string> server_principals;
  /// Server addresses; populated ONLY for 1-tier systems.
  std::vector<net::Address> server_addrs;

  /// True when clients must go through proxies.
  bool fortified() const { return !proxies.empty(); }

  Bytes encode() const;
  static std::optional<Directory> decode(BytesView data);

  bool operator==(const Directory&) const = default;
};

/// The client-side response-acceptance rule of `dir`'s deployment: the one
/// signature check every client model runs on a response view.
///  * Fortified (2-tier): a ProxyResponse whose inner signature is by a
///    known server principal and whose over-signature is by a known proxy,
///    both verifying (the double-signature rule).
///  * 1-tier: a Response signed by a known server principal that verifies.
/// Runs entirely on the borrowed view; nothing allocates. Callers layer
/// their own quorum rule on top (core::Client's SMR f+1 vote).
bool authentic_response(const Directory& dir,
                        const replication::MessageView& msg,
                        const crypto::KeyRegistry& registry);

}  // namespace fortress::core
