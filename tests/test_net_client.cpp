// net/client: pipelined out-of-order response reassociation, retry and
// backoff determinism, and deadline behavior — driven against a raw
// scripted socket so the tests control exactly what crosses the wire.
#include "net/client.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pslocal::net {
namespace {

service::Request tiny_request() {
  service::Request req;
  req.kind = service::RequestKind::kGreedyMaxis;
  req.instance = std::make_shared<Hypergraph>(
      5, std::vector<std::vector<VertexId>>{{0, 1}, {1, 2, 3}, {3, 4}});
  req.instance_hash = hash_hypergraph(*req.instance);
  req.k = 2;
  return req;
}

/// A blocking loopback server whose behavior is the `script` callback:
/// it gets the accepted connection fd and does whatever the test needs
/// (read frames, answer out of order, NACK, stay silent...).
class FakeServer {
 public:
  explicit FakeServer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        script(fd);
        ::close(fd);
      }
    });
  }

  ~FakeServer() {
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Read exactly `n` complete frames off a blocking fd.
std::vector<wire::Frame> read_frames(int fd, std::size_t n) {
  std::vector<wire::Frame> frames;
  wire::FrameDecoder dec;
  char buf[16 * 1024];
  while (frames.size() < n) {
    wire::Frame frame;
    const auto r = dec.next(frame);
    if (r == wire::FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(frame));
      continue;
    }
    if (r == wire::FrameDecoder::Result::kCorrupt) {
      ADD_FAILURE() << "fake server saw corrupt stream: " << dec.error();
      return frames;
    }
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got <= 0) {
      ADD_FAILURE() << "fake server: client hung up early";
      return frames;
    }
    dec.feed(buf, static_cast<std::size_t>(got));
  }
  return frames;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return;
    written += static_cast<std::size_t>(n);
  }
}

/// Wire bytes of a server frame of `kind` answering request `id`.
std::string server_frame(wire::FrameKind kind, std::uint64_t id,
                         std::string payload) {
  wire::Frame frame;
  frame.kind = kind;
  frame.request_id = id;
  frame.payload = std::move(payload);
  return wire::encode_frame(frame);
}

std::string ok_response_frame(std::uint64_t id, const std::string& result) {
  service::Response resp;
  resp.status = service::Response::Status::kOk;
  resp.key = 77;
  resp.result = result;
  return server_frame(wire::FrameKind::kResponse, id,
                      wire::encode_response(resp));
}

Client connect_client(std::uint16_t port) {
  Client::Config cc;
  cc.port = port;
  cc.io_timeout_ms = 5000;
  Client client(cc);
  client.connect();
  return client;
}

TEST(NetClientTest, ReassociatesOutOfOrderResponses) {
  // The server answers the two pipelined requests in REVERSE order; each
  // wait(id) must still get its own response, whichever wait runs first.
  FakeServer server([](int fd) {
    const auto frames = read_frames(fd, 2);
    ASSERT_EQ(frames.size(), 2u);
    send_all(fd, ok_response_frame(frames[1].request_id, "second"));
    send_all(fd, ok_response_frame(frames[0].request_id, "first"));
  });

  Client client = connect_client(server.port());
  const service::Request req = tiny_request();
  const std::uint64_t id_a = client.send(req);
  const std::uint64_t id_b = client.send(req);
  ASSERT_NE(id_a, id_b);
  EXPECT_EQ(client.inflight(), 2u);

  // Wait in send order even though arrival order is b-then-a: the b
  // frame is parked while wait(id_a) runs, then claimed by wait(id_b).
  const Client::Result ra = client.wait(id_a);
  ASSERT_EQ(ra.outcome, Client::Outcome::kOk) << ra.error;
  EXPECT_EQ(ra.response.result, "first");
  EXPECT_EQ(ra.response.id, id_a);
  EXPECT_EQ(client.parked(), 1u);

  const Client::Result rb = client.wait(id_b);
  ASSERT_EQ(rb.outcome, Client::Outcome::kOk) << rb.error;
  EXPECT_EQ(rb.response.result, "second");
  EXPECT_EQ(rb.response.id, id_b);
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(client.parked(), 0u);
}

TEST(NetClientTest, BackoffScheduleIsDeterministicUnderFixedSeed) {
  Client::RetryPolicy policy;
  policy.base_delay_us = 200;
  policy.max_delay_us = 100000;
  policy.seed = 9;

  const auto a = Client::backoff_delays_us(policy, 10);
  const auto b = Client::backoff_delays_us(policy, 10);
  EXPECT_EQ(a, b);  // same policy -> byte-identical schedule

  // The schedule is exactly the documented formula over the policy Rng.
  Rng rng(policy.seed);
  for (std::size_t r = 0; r < a.size(); ++r) {
    std::uint64_t d = policy.base_delay_us << r;
    if (d > policy.max_delay_us) d = policy.max_delay_us;
    const std::uint64_t expected = d / 2 + rng.next_below(d / 2 + 1);
    EXPECT_EQ(a[r], expected) << "retry " << r;
    EXPECT_GE(a[r], d / 2);
    EXPECT_LE(a[r], d);
  }

  Client::RetryPolicy other = policy;
  other.seed = 10;
  EXPECT_NE(Client::backoff_delays_us(other, 10), a)
      << "different seed produced the same jitter";
}

TEST(NetClientTest, BackoffScheduleIsPureAcrossClientInstances) {
  // The schedule is a pure function of the policy seed: no connection
  // state, request-id counter, or prior retry activity feeds the
  // jitter.  Two separate clients each burn two queue-full retries;
  // the schedule queried before, between, and after is byte-identical.
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_us = 50;
  policy.max_delay_us = 200;
  policy.seed = 31;
  const auto pristine = Client::backoff_delays_us(policy, 8);

  const auto nack_twice_then_serve = [](int fd) {
    for (int i = 0; i < 2; ++i) {
      const auto frames = read_frames(fd, 1);
      ASSERT_EQ(frames.size(), 1u);
      send_all(fd, server_frame(wire::FrameKind::kNack, frames[0].request_id,
                                wire::encode_nack(wire::NackCode::kQueueFull)));
    }
    const auto frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    send_all(fd, ok_response_frame(frames[0].request_id, "served"));
  };

  std::vector<std::size_t> attempts;
  for (int instance = 0; instance < 2; ++instance) {
    FakeServer server(nack_twice_then_serve);
    Client client = connect_client(server.port());
    const Client::Result r = client.call_with_retry(tiny_request(), policy);
    ASSERT_EQ(r.outcome, Client::Outcome::kOk) << r.error;
    attempts.push_back(r.attempts);
    EXPECT_EQ(Client::backoff_delays_us(policy, 8), pristine)
        << "client activity perturbed the schedule";
  }
  EXPECT_EQ(attempts[0], attempts[1])
      << "same policy, same script, different retry behavior";
}

TEST(NetClientTest, CallWithRetryResendsAfterQueueFullNacks) {
  // NACK the first two sends, serve the third: call_with_retry must
  // come back with kOk and an attempt count of exactly 3.
  FakeServer server([](int fd) {
    for (int i = 0; i < 2; ++i) {
      const auto frames = read_frames(fd, 1);
      ASSERT_EQ(frames.size(), 1u);
      send_all(fd, server_frame(wire::FrameKind::kNack, frames[0].request_id,
                                wire::encode_nack(wire::NackCode::kQueueFull)));
    }
    const auto frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    send_all(fd, ok_response_frame(frames[0].request_id, "served"));
  });

  Client client = connect_client(server.port());
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_us = 50;  // keep the test fast
  policy.max_delay_us = 200;
  const Client::Result r = client.call_with_retry(tiny_request(), policy);
  ASSERT_EQ(r.outcome, Client::Outcome::kOk) << r.error;
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.response.result, "served");
}

TEST(NetClientTest, ShutdownNackIsNotRetried) {
  FakeServer server([](int fd) {
    const auto frames = read_frames(fd, 1);
    ASSERT_EQ(frames.size(), 1u);
    send_all(fd, server_frame(wire::FrameKind::kNack, frames[0].request_id,
                              wire::encode_nack(wire::NackCode::kShutdown)));
  });

  Client client = connect_client(server.port());
  Client::RetryPolicy policy;
  policy.max_attempts = 5;
  const Client::Result r = client.call_with_retry(tiny_request(), policy);
  EXPECT_EQ(r.outcome, Client::Outcome::kNack);
  EXPECT_EQ(r.nack_code, wire::NackCode::kShutdown);
  EXPECT_EQ(r.attempts, 1u) << "shutdown NACKs must not be retried";
}

TEST(NetClientTest, WaitTimesOutInsteadOfHanging) {
  // The server reads the request and goes silent; the signal that
  // releases it is the client closing after its timeout.
  FakeServer server([](int fd) {
    (void)read_frames(fd, 1);
    char buf[64];
    (void)::recv(fd, buf, sizeof buf, 0);  // blocks until client closes
  });
  {
    Client client = connect_client(server.port());
    const std::uint64_t id = client.send(tiny_request());
    const Client::Result r = client.wait(id, /*timeout_ms=*/100);
    EXPECT_EQ(r.outcome, Client::Outcome::kTimeout);
    EXPECT_EQ(client.inflight(), 1u) << "timed-out id remains in flight";
  }  // destructor closes the socket, unblocking the fake server
}

}  // namespace
}  // namespace pslocal::net
