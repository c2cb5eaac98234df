#include "crypto/signature.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"

namespace fortress::crypto {

Signature SigningKey::sign(BytesView message) const {
  Signature sig;
  sig.signer = id_;
  sig.tag = sign_tag(message);
  return sig;
}

KeyRegistry::KeyRegistry(std::uint64_t master_seed) {
  Bytes seed_bytes;
  append_u64_be(seed_bytes, master_seed);
  Digest master = Sha256::hash(seed_bytes);
  master_key_ = HmacKey(BytesView(master.data(), master.size()));
}

std::size_t KeyRegistry::find_slot(std::string_view name) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), name,
      [](const IndexEntry& e, std::string_view n) { return e.name < n; });
  if (it == index_.end() || it->name != name) {
    return static_cast<std::size_t>(-1);
  }
  return it->slot;
}

Digest KeyRegistry::secret_for(const std::string& name) const {
  Bytes label = bytes_of("fortress-principal:");
  append(label, bytes_view(name));
  return master_key_.mac(BytesView(label.data(), label.size()));
}

SigningKey KeyRegistry::enroll(const std::string& name) {
  Digest secret = secret_for(name);
  HmacKey mac(BytesView(secret.data(), secret.size()));
  const std::size_t slot = find_slot(name);
  if (slot != static_cast<std::size_t>(-1)) {
    // Idempotent re-enrollment: same derived secret, schedule refreshed in
    // place so schedule_for pointers stay valid.
    schedules_[slot] = mac;
  } else {
    schedules_.push_back(mac);
    IndexEntry entry{name,
                     static_cast<std::uint32_t>(schedules_.size() - 1)};
    auto it = std::lower_bound(
        index_.begin(), index_.end(), std::string_view(name),
        [](const IndexEntry& e, std::string_view n) { return e.name < n; });
    index_.insert(it, std::move(entry));
  }
  return SigningKey(PrincipalId{name}, mac);
}

const HmacKey* KeyRegistry::schedule_for(std::string_view name) const {
  const std::size_t slot = find_slot(name);
  // Deque blocks are stable: the pointer survives later enrollments.
  return slot != static_cast<std::size_t>(-1) ? &schedules_[slot] : nullptr;
}

bool KeyRegistry::verify_tag(BytesView message, std::string_view signer,
                             BytesView tag) const {
  const HmacKey* schedule = schedule_for(signer);
  if (schedule == nullptr) return false;
  return verify_tag_with(*schedule, message, tag);
}

bool KeyRegistry::verify_tag_with(const HmacKey& schedule, BytesView message,
                                  BytesView tag) {
  Digest expected = schedule.mac(message);
  return equal_constant_time(BytesView(expected.data(), expected.size()), tag);
}

bool KeyRegistry::is_enrolled(std::string_view name) const {
  return find_slot(name) != static_cast<std::size_t>(-1);
}

}  // namespace fortress::crypto
