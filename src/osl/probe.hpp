// probe.hpp — wire format of de-randomization probes and their outcomes.
//
// A probe is the attacker's attempt to exploit a memory-error vulnerability
// using a guessed randomization key (§2.1). The simulated semantics follow
// [Shacham04, Sovarel05]:
//   * wrong key  -> the forked child process serving that connection
//                   crashes; the prober's TCP connection closes;
//   * right key  -> the malicious payload executes: the attacker receives a
//                   distinctive acknowledgement and controls the node.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace fortress::osl {

/// A randomization key: index into the keyspace {0..chi-1}.
using RandKey = std::uint64_t;

/// Magic prefixes of probe-related wire messages.
inline constexpr std::uint32_t kProbeMagic = 0x46505242;    // "FPRB"
inline constexpr std::uint32_t kProbeOwnedMagic = 0x4650574e;  // "FPWN"

/// Encode a probe carrying a guessed key.
Bytes encode_probe(RandKey guess);

/// Encode a probe into an existing (typically pooled) buffer, replacing its
/// contents — the allocation-free hot path of the attacker's probe loop.
void encode_probe_into(Bytes& out, RandKey guess);

/// Decode a probe; nullopt if `payload` is not a probe.
std::optional<RandKey> decode_probe(BytesView payload);

/// Scan an arbitrary request body for an embedded probe (an exploit smuggled
/// into a service request that a proxy forwarded): returns the guessed key
/// if the probe byte pattern occurs anywhere in `payload`. This models the
/// fact that the memory-error exploit fires during request parsing,
/// regardless of how the bytes reached the server.
std::optional<RandKey> probe_inside_request(BytesView payload);

/// Encode the attacker-visible acknowledgement of a successful probe into an
/// existing (typically pooled) buffer, replacing its contents.
void encode_owned_ack_into(Bytes& out, RandKey key);

/// True iff `payload` is a successful-probe acknowledgement.
bool is_owned_ack(BytesView payload);

}  // namespace fortress::osl
