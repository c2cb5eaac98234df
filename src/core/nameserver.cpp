#include "core/nameserver.hpp"

#include "replication/message.hpp"

namespace fortress::core {

using replication::MessageView;
using replication::MsgType;

NameServer::NameServer(net::Network& network, crypto::KeyRegistry& registry,
                       Directory directory)
    : network_(network),
      key_(registry.enroll(kNameServerAddress)),
      directory_(std::move(directory)),
      directory_wire_(directory_.encode()) {
  id_ = network_.attach(kNameServerAddress, *this);
}

NameServer::~NameServer() { network_.detach(id_); }

void NameServer::reset() { network_.attach(id_, *this); }

void NameServer::on_message(const net::Envelope& env) {
  // Lookups carry nothing the reply depends on: validate + type-check on
  // the borrowed view and drop everything else allocation-free.
  auto msg = MessageView::decode(env.payload);
  if (!msg || msg->type() != MsgType::NsLookup) return;
  Bytes wire = network_.acquire_buffer();
  replication::MessageCore{.type = MsgType::NsReply,
                           .requester = network_.address_of(env.from),
                           .aux = directory_wire_}
      .encode_signed_into(wire, key_);
  network_.send(id_, env.from, std::move(wire));
}

}  // namespace fortress::core
