#include "core/directory.hpp"

#include <gtest/gtest.h>

#include "replication/message.hpp"

namespace fortress::core {
namespace {

Directory sample() {
  Directory d;
  d.replication = ReplicationType::StateMachine;
  d.f = 1;
  d.proxies = {"proxy-0", "proxy-1"};
  d.server_principals = {"server-0", "server-1", "server-2"};
  d.server_addrs = {};
  return d;
}

TEST(DirectoryTest, FortifiedPredicate) {
  Directory d = sample();
  EXPECT_TRUE(d.fortified());
  d.proxies.clear();
  EXPECT_FALSE(d.fortified());
}

// The client-side acceptance rule, case by case, for both deployment
// shapes. Each response is built, encoded and decoded as a client would
// receive it.
TEST(DirectoryTest, AuthenticResponseRule) {
  using replication::Message;
  using replication::MsgType;
  crypto::KeyRegistry registry(3);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  crypto::SigningKey rogue_server = registry.enroll("server-9");
  crypto::SigningKey rogue_proxy = registry.enroll("proxy-9");
  crypto::KeyRegistry other(4);
  crypto::SigningKey forger = other.enroll("server-0");

  auto accepts = [&](const Directory& dir, const Message& m) {
    const Bytes wire = m.encode();
    auto view = replication::MessageView::decode(wire);
    return view.has_value() && authentic_response(dir, *view, registry);
  };
  auto response = [](MsgType type) {
    Message m;
    m.type = type;
    m.request_id = {"client", 1};
    m.payload = bytes_of("OK");
    return m;
  };
  auto signed_by = [](Message m, const crypto::SigningKey& inner,
                      const crypto::SigningKey* over) {
    replication::sign_message(m, inner);
    if (over != nullptr) replication::over_sign_message(m, *over);
    return m;
  };

  Directory fortified = sample();
  fortified.proxies = {"proxy-0"};
  fortified.server_principals = {"server-0"};
  const Message proxied = response(MsgType::ProxyResponse);
  EXPECT_TRUE(accepts(fortified, signed_by(proxied, server, &proxy)));
  EXPECT_FALSE(accepts(fortified, proxied));
  EXPECT_FALSE(accepts(fortified, signed_by(proxied, server, nullptr)));
  EXPECT_FALSE(accepts(fortified, signed_by(proxied, server, &rogue_proxy)));
  EXPECT_FALSE(accepts(fortified, signed_by(proxied, rogue_server, &proxy)));
  EXPECT_FALSE(accepts(fortified, signed_by(proxied, forger, &proxy)));
  EXPECT_FALSE(accepts(fortified, signed_by(response(MsgType::Response),
                                            server, &proxy)));

  Directory one_tier = fortified;
  one_tier.proxies.clear();
  one_tier.server_addrs = {"server-0"};
  const Message direct = response(MsgType::Response);
  EXPECT_TRUE(accepts(one_tier, signed_by(direct, server, nullptr)));
  EXPECT_FALSE(accepts(one_tier, direct));
  EXPECT_FALSE(accepts(one_tier, signed_by(direct, rogue_server, nullptr)));
  EXPECT_FALSE(accepts(one_tier, signed_by(direct, forger, nullptr)));
  EXPECT_FALSE(accepts(one_tier, signed_by(proxied, server, &proxy)));
}

}  // namespace
}  // namespace fortress::core
