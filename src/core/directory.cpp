#include "core/directory.hpp"

#include <algorithm>

#include "replication/message.hpp"

namespace fortress::core {

bool authentic_response(const Directory& dir,
                        const replication::MessageView& msg,
                        const crypto::KeyRegistry& registry) {
  auto signed_by = [](const std::optional<replication::SignatureView>& sig,
                      const std::vector<std::string>& principals) {
    return sig && std::find(principals.begin(), principals.end(),
                            sig->signer) != principals.end();
  };
  if (!dir.fortified()) {
    return msg.type() == replication::MsgType::Response &&
           signed_by(msg.signature(), dir.server_principals) &&
           replication::verify_message(msg, registry);
  }
  return msg.type() == replication::MsgType::ProxyResponse &&
         signed_by(msg.signature(), dir.server_principals) &&
         signed_by(msg.over_signature(), dir.proxies) &&
         replication::verify_message(msg, registry) &&
         replication::verify_over_signature(msg, registry);
}

}  // namespace fortress::core
