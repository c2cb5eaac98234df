// bench_codec — what decoding one protocol message costs, at the two
// depths a handler can choose from:
//
//  * BM_MessageHeaderPeek — MessageView::peek: magic + fixed header only
//    (the cheapest route/drop decision);
//  * BM_MessageViewDecode — MessageView::decode: full structural validation
//    with every field borrowed from the wire (what every protocol handler
//    dispatches on).
//
// The workload is a signed StateUpdate-sized record (the universal record
// with every field populated — the shape replicas exchange). Writes
// BenchRecorder JSON (default BENCH_codec.json, argv[1] overrides); the
// `bench_diff` CMake target gates these entries against bench/baseline.json.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "replication/message.hpp"

using namespace fortress;
using namespace fortress::bench;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_codec.json";
  BenchRecorder recorder;

  crypto::KeyRegistry registry(7);
  crypto::SigningKey key = registry.enroll("s1-server-0");
  replication::Message msg;
  msg.type = replication::MsgType::StateUpdate;
  msg.view = 3;
  msg.seq = 1234;
  msg.sender_index = 0;
  msg.request_id = {"client-17", 42};
  msg.requester = "s2-proxy-1";
  msg.payload = bytes_of("VALUE some-kv-response-body");
  msg.aux = Bytes(96, 0xa5);  // snapshot-ish blob
  replication::sign_message(msg, key);
  const Bytes wire = msg.encode();

  constexpr int kBatch = 10000;
  // Sink the decoded bits so the optimizer cannot drop the decode.
  std::uint64_t sink = 0;

  const double peek_ns =
      recorder.time_and_add("codec_header_peek", /*iters=*/2000,
                            static_cast<double>(kBatch), [&] {
                              for (int i = 0; i < kBatch; ++i) {
                                auto h = replication::MessageView::peek(wire);
                                sink += static_cast<std::uint64_t>(h->type) +
                                        h->seq;
                              }
                            }) /
      kBatch;

  const double view_ns =
      recorder.time_and_add("codec_view_decode", /*iters=*/500,
                            static_cast<double>(kBatch), [&] {
                              for (int i = 0; i < kBatch; ++i) {
                                auto v = replication::MessageView::decode(wire);
                                sink += v->payload().size() +
                                        v->request_client().size();
                              }
                            }) /
      kBatch;

  std::printf("BM_MessageHeaderPeek  %8.1f ns/msg\n", peek_ns);
  std::printf("BM_MessageViewDecode  %8.1f ns/msg (sink %llu)\n", view_ns,
              static_cast<unsigned long long>(sink));

  recorder.write_json(out_path);
  return 0;
}
