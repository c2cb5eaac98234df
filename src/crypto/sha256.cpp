#include "crypto/sha256.hpp"

#include <cstring>

#include "common/check.hpp"
#include "crypto/sha256_kernel.hpp"

namespace fortress::crypto {

void Sha256::reset() {
  state_ = kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
  finished_ = false;
}

void Sha256::update(BytesView data) {
  FORTRESS_EXPECTS(!finished_);
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      kernel::compress_blocks(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    kernel::compress_blocks(state_.data(), data.data() + offset, whole);
    offset += whole * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Digest Sha256::finish() {
  FORTRESS_EXPECTS(!finished_);
  finished_ = true;
  compress_tail(state_.data(), BytesView(buffer_.data(), buffer_len_),
                total_len_);
  buffer_len_ = 0;
  return digest_of_state(state_.data());
}

void compress_tail(std::uint32_t state[8], BytesView tail,
                   std::uint64_t total_len) {
  FORTRESS_EXPECTS(tail.size() < Sha256::kBlockSize);
  // Buffered bytes, 0x80, zeros, 64-bit big-endian bit length: one or two
  // blocks, one compress call.
  constexpr std::size_t kBlock = Sha256::kBlockSize;
  std::uint8_t block[kBlock * 2] = {};
  if (!tail.empty()) std::memcpy(block, tail.data(), tail.size());
  block[tail.size()] = 0x80;
  const std::size_t blocks = (tail.size() < kBlock - 8) ? 1 : 2;
  detail::store_be64(block + blocks * kBlock - 8, total_len * 8);
  kernel::compress_blocks(state, block, blocks);
}

Digest digest_of_state(const std::uint32_t state[8]) {
  Digest out;
  for (int i = 0; i < 8; ++i) detail::store_be32(out.data() + i * 4, state[i]);
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace fortress::crypto
