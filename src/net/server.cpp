#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "service/stages.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pslocal::net {

namespace {

const obs::Counter g_accepted("net.accepted");
const obs::Counter g_frames_rx("net.frames_rx");
const obs::Counter g_frames_tx("net.frames_tx");
const obs::Counter g_bytes_rx("net.bytes_rx");
const obs::Counter g_bytes_tx("net.bytes_tx");
const obs::Counter g_nack_queue_full("net.nack_queue_full");
const obs::Counter g_nack_shed("net.nack_shed");
const obs::Counter g_decode_errors("net.decode_errors");
const obs::Gauge g_conn_active("net.conn_active");

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PSL_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "net: fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

std::size_t resolve_loop_count(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  return std::min<std::size_t>(cores, 8);
}

}  // namespace

struct Server::Impl {
  explicit Impl(service::ServiceEngine& engine_in, Config config_in)
      : engine(engine_in), config(std::move(config_in)) {
    if (config.max_payload == 0) config.max_payload = wire::kMaxPayload;
    loop_count = resolve_loop_count(config.io_threads);
  }

  service::ServiceEngine& engine;
  Config config;
  std::size_t loop_count = 1;

  // One queued output frame.  Response frames carry their request kind
  // and trace id so the moment the last byte is handed to the socket
  // can be attributed as the wire_write stage (docs/tracing.md).
  struct QueuedWrite {
    std::string bytes;
    std::uint8_t stage_kind = kNoStageKind;  // RequestKind, or none
    std::uint64_t trace_id = 0;
    std::uint64_t enqueue_ns = 0;
  };
  static constexpr std::uint8_t kNoStageKind = 0xff;

  struct Connection {
    int fd = -1;
    std::uint64_t gen = 0;  // unique per accept; survives fd reuse
    wire::FrameDecoder decoder;
    std::deque<QueuedWrite> write_queue;
    std::size_t write_offset = 0;  // into write_queue.front()
    std::size_t queued_bytes = 0;
    bool want_write = false;  // EPOLLOUT currently registered

    Connection(int fd_in, std::uint64_t gen_in, std::size_t max_payload)
        : fd(fd_in), gen(gen_in), decoder(max_payload) {}
  };

  // Encoded response frames headed back to an io loop.
  struct OutFrame {
    std::uint64_t conn_gen = 0;
    QueuedWrite write;
    bool shed_nack = false;  // a deadline shed; counted when drained
  };

  /// The frames completions post to one io loop, and the write end of
  /// its wake pipe.  The engine outlives the server and may answer after
  /// stop(), so each completion shares ownership of this and touches
  /// nothing else of the server: stop() closes it (and the pipe) under
  /// `mu`, and later posts are dropped.
  struct Outbox {
    std::mutex mu;
    std::vector<OutFrame> frames;  // guarded by mu
    bool closed = false;           // guarded by mu
    std::thread::id loop_thread;   // guarded by mu; set as the loop starts
    int wake_wr = -1;

    void wake() const {
      const char b = 'x';
      // The pipe being full already guarantees a pending wakeup.
      [[maybe_unused]] const ssize_t n = ::write(wake_wr, &b, 1);
    }
    void post(OutFrame frame) {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
      // A non-empty outbox has its wakeup pending already.  The loop's
      // own posts (cache hits answered as it submits them) need none:
      // it drains its outbox after every batch of events.
      if (frames.empty() && std::this_thread::get_id() != loop_thread)
        wake();
      frames.push_back(std::move(frame));
    }
    void close() {
      std::lock_guard<std::mutex> lock(mu);
      closed = true;
      frames.clear();
      if (wake_wr >= 0) ::close(wake_wr);
      wake_wr = -1;
    }
  };

  /// One epoll event loop: private acceptor (SO_REUSEPORT sibling of the
  /// others), wake pipe, and an exclusive connection set.  Only `outbox`
  /// is touched by other threads (the serving lanes, engine.stop()).
  struct Loop {
    std::size_t index = 0;
    int epoll_fd = -1;
    int listen_fd = -1;
    int wake_rd = -1;
    std::thread thread;
    std::unordered_map<int, Connection> conns;           // fd -> state
    std::unordered_map<std::uint64_t, int> gen_to_fd;    // gen -> fd
    const std::shared_ptr<Outbox> outbox = std::make_shared<Outbox>();

    // Live gauges readable from ANY loop (the stats request is answered
    // on whichever loop read it, and sibling connection maps are
    // thread-private — these atomics are the cross-loop view).
    std::atomic<std::size_t> conn_gauge{0};
    std::atomic<std::size_t> queued_bytes_gauge{0};
  };
  std::vector<std::unique_ptr<Loop>> loops;
  std::atomic<std::uint64_t> next_gen{1};
  std::atomic<std::size_t> conn_count{0};  // across all loops

  // Tallies (relaxed atomics; written by the io loops).
  std::atomic<std::uint64_t> accepted{0}, closed{0};
  std::atomic<std::uint64_t> frames_rx{0}, frames_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0}, bytes_tx{0};
  std::atomic<std::uint64_t> requests_dispatched{0};
  std::atomic<std::uint64_t> nacks_queue_full{0}, nacks_shutdown{0};
  std::atomic<std::uint64_t> nacks_shed{0};
  std::atomic<std::uint64_t> decode_errors{0}, overflow_closes{0};

  void enqueue_frame(Loop& loop, Connection& conn, QueuedWrite write) {
    conn.queued_bytes += write.bytes.size();
    loop.queued_bytes_gauge.fetch_add(write.bytes.size(),
                                      std::memory_order_relaxed);
    if (write.enqueue_ns == 0) write.enqueue_ns = now_ns();
    conn.write_queue.push_back(std::move(write));
  }

  /// True if the connection exceeded its output bound and must close.
  [[nodiscard]] bool over_output_bound(const Connection& conn) const {
    return conn.queued_bytes > config.max_output_bytes;
  }

  /// Keep EPOLLOUT interest in sync with whether output is pending, so
  /// a level-triggered loop never spins on a writable idle socket.
  void update_write_interest(Loop& loop, Connection& conn) {
    const bool want = !conn.write_queue.empty();
    if (want == conn.want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    PSL_CHECK_MSG(
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0,
        "net: epoll_ctl(MOD) failed: " << std::strerror(errno));
    conn.want_write = want;
  }

  /// Close and forget a connection (closing the fd also deregisters it
  /// from the loop's epoll set).
  void close_conn(Loop& loop, int fd) {
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) return;
    loop.gen_to_fd.erase(it->second.gen);
    loop.queued_bytes_gauge.fetch_sub(it->second.queued_bytes,
                                      std::memory_order_relaxed);
    loop.conn_gauge.fetch_sub(1, std::memory_order_relaxed);
    loop.conns.erase(it);
    ::close(fd);
    conn_count.fetch_sub(1, std::memory_order_relaxed);
    closed.fetch_add(1, std::memory_order_relaxed);
    g_conn_active.add(-1);
  }

  /// Decode every complete frame buffered on `conn` and dispatch it.
  /// Returns false when the connection must be closed.
  bool drain_decoder(Loop& loop, Connection& conn) {
    PSL_OBS_SPAN("net.decode");
    wire::Frame frame;
    for (;;) {
      const auto result = conn.decoder.next(frame);
      if (result == wire::FrameDecoder::Result::kNeedMore) return true;
      if (result == wire::FrameDecoder::Result::kCorrupt) {
        decode_errors.fetch_add(1, std::memory_order_relaxed);
        g_decode_errors.add();
        return false;
      }
      frames_rx.fetch_add(1, std::memory_order_relaxed);
      g_frames_rx.add();
      if (frame.kind == wire::FrameKind::kStatsRequest) {
        // Telemetry scrape: answered right here on the io loop, never
        // enqueued into the engine — a scrape cannot pause serving.
        answer_stats(loop, conn, frame);
        continue;
      }
      if (frame.kind != wire::FrameKind::kRequest) {
        // Clients have no business sending response/nack frames.
        decode_errors.fetch_add(1, std::memory_order_relaxed);
        g_decode_errors.add();
        return false;
      }
      if (!dispatch_request(loop, conn, frame)) return false;
    }
  }

  /// Deterministic JSON for the live telemetry plane: the process-wide
  /// obs snapshot, this engine's stats, and per-loop gauges.  Key order
  /// is fixed (alphabetical at the top level: engine, obs, server).
  [[nodiscard]] std::string stats_payload() {
    std::string out = "{\"engine\":";
    out += service::stats_json(engine.stats());
    out += ",\"obs\":";
    out += obs::snapshot_json(obs::snapshot());
    out += ",\"server\":{\"name\":\"";
    out += config.name;
    out += "\",\"io_loops\":";
    out += std::to_string(loop_count);
    out += ",\"queue_depth\":";
    out += std::to_string(engine.queue_depth());
    out += ",\"connections\":";
    out += std::to_string(conn_count.load(std::memory_order_relaxed));
    out += ",\"loops\":[";
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"connections\":";
      out += std::to_string(loops[i]->conn_gauge.load(std::memory_order_relaxed));
      out += ",\"queued_bytes\":";
      out += std::to_string(
          loops[i]->queued_bytes_gauge.load(std::memory_order_relaxed));
      out += '}';
    }
    out += "]}}";
    return out;
  }

  void answer_stats(Loop& loop, Connection& conn, const wire::Frame& frame) {
    PSL_OBS_SPAN("net.stats");
    wire::Frame reply;
    reply.kind = wire::FrameKind::kStatsResponse;
    reply.request_id = frame.request_id;
    reply.payload = stats_payload();
    reply.trace_id = frame.trace_id;
    reply.parent_span_id = frame.parent_span_id;
    enqueue_frame(loop, conn,
                  QueuedWrite{wire::encode_frame(reply), kNoStageKind,
                              frame.trace_id, 0});
  }

  /// Decode the request payload and submit it to the engine; queues a
  /// NACK on admission rejection.  Returns false on a malformed payload
  /// (the connection is closed — framing held but content did not).
  bool dispatch_request(Loop& loop, Connection& conn,
                        const wire::Frame& frame) {
    // Adopt the wire trace context so the dispatch span (and every
    // stage recorded downstream on this thread) nests under the
    // client's root span in the stitched trace.
    obs::ScopedTraceContext trace_ctx(frame.trace_id, frame.parent_span_id);
    PSL_OBS_SPAN("net.dispatch");
    service::Request request;
    std::string error;
    if (!wire::decode_request(frame.payload, request, &error)) {
      decode_errors.fetch_add(1, std::memory_order_relaxed);
      g_decode_errors.add();
      return false;
    }
    request.id = frame.request_id;
    request.trace_id = frame.trace_id;
    request.parent_span_id = frame.parent_span_id;
    request.tenant = frame.tenant;
    const auto kind = request.kind;
    const service::AdmissionVerdict verdict = engine.submit(
        std::move(request), answer_to(loop.outbox, conn.gen, frame, kind));
    switch (verdict.admission) {
      case service::Admission::kAccepted: {
        requests_dispatched.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case service::Admission::kQueueFull: {
        nacks_queue_full.fetch_add(1, std::memory_order_relaxed);
        g_nack_queue_full.add();
        enqueue_frame(loop, conn, nack_write(frame, wire::NackCode::kQueueFull));
        break;
      }
      case service::Admission::kShutdown: {
        nacks_shutdown.fetch_add(1, std::memory_order_relaxed);
        enqueue_frame(loop, conn, nack_write(frame, wire::NackCode::kShutdown));
        break;
      }
      case service::Admission::kShed: {
        nacks_shed.fetch_add(1, std::memory_order_relaxed);
        g_nack_shed.add();
        enqueue_frame(loop, conn,
                      nack_write(frame, wire::NackCode::kShedRetryAfter,
                                 verdict.retry_after_us));
        break;
      }
    }
    return true;
  }

  /// NACK frames echo the request's trace ids, so even a rejected
  /// request resolves to a complete span tree for the client.
  [[nodiscard]] static QueuedWrite nack_write(const wire::Frame& frame,
                                              wire::NackCode code,
                                              std::uint64_t retry_after_us = 0) {
    wire::Frame reply;
    reply.kind = wire::FrameKind::kNack;
    reply.request_id = frame.request_id;
    reply.payload = wire::encode_nack(code, retry_after_us);
    reply.trace_id = frame.trace_id;
    reply.parent_span_id = frame.parent_span_id;
    return QueuedWrite{wire::encode_frame(reply), kNoStageKind, frame.trace_id,
                       0};
  }

  /// The completion of one admitted request.  It runs on the thread that
  /// answers (this io loop for a cache hit, inside engine.submit(); else
  /// a serving lane, or the one in engine.stop()), encodes the response
  /// there under the request's trace context, and posts the frame to the
  /// owning loop's outbox.
  static service::Completion answer_to(std::shared_ptr<Outbox> outbox,
                                       std::uint64_t conn_gen,
                                       const wire::Frame& frame,
                                       service::RequestKind kind) {
    wire::Frame header;
    header.request_id = frame.request_id;
    header.trace_id = frame.trace_id;
    header.parent_span_id = frame.parent_span_id;
    return [outbox = std::move(outbox), conn_gen, header,
            kind](const service::Response& response) {
      obs::ScopedTraceContext trace_ctx(header.trace_id,
                                        header.parent_span_id);
      const std::uint64_t serialize_start = now_ns();
      // A deadline shed surfaces as a kRejected("shed") response from a
      // serving lane; on the wire it is a typed NACK with the backoff
      // hint, same contract as an admission-time shed.
      const bool shed =
          response.status == service::Response::Status::kRejected &&
          response.reason == "shed";
      std::string bytes;
      {
        PSL_OBS_SPAN("net.serialize");
        wire::Frame reply = header;
        reply.kind = shed ? wire::FrameKind::kNack : wire::FrameKind::kResponse;
        reply.payload =
            shed ? wire::encode_nack(wire::NackCode::kShedRetryAfter,
                                     response.retry_after_us)
                 : wire::encode_response(response);
        bytes = wire::encode_frame(reply);
      }
      service::stages::record(service::stages::Stage::kSerialize, kind,
                              now_ns() - serialize_start, header.trace_id);
      outbox->post({conn_gen,
                    QueuedWrite{std::move(bytes),
                                static_cast<std::uint8_t>(kind),
                                header.trace_id, now_ns()},
                    shed});
    };
  }

  /// Move completed response frames from the loop's outbox into their
  /// connections' write queues (dropping frames whose connection died),
  /// then flush.
  void drain_outbox(Loop& loop) {
    std::vector<OutFrame> batch;
    {
      std::lock_guard<std::mutex> lock(loop.outbox->mu);
      batch.swap(loop.outbox->frames);
    }
    for (OutFrame& out : batch) {
      if (out.shed_nack) {
        nacks_shed.fetch_add(1, std::memory_order_relaxed);
        g_nack_shed.add();
      }
      const auto it = loop.gen_to_fd.find(out.conn_gen);
      if (it == loop.gen_to_fd.end()) continue;
      Connection& conn = loop.conns.at(it->second);
      enqueue_frame(loop, conn, std::move(out.write));
      bool alive = flush_writes(loop, conn);
      if (alive && over_output_bound(conn)) {
        overflow_closes.fetch_add(1, std::memory_order_relaxed);
        alive = false;
      }
      if (!alive) {
        close_conn(loop, conn.fd);
      } else {
        update_write_interest(loop, conn);
      }
    }
  }

  /// Write as much queued output as the socket accepts.  Returns false
  /// when the connection must be closed.
  bool flush_writes(Loop& loop, Connection& conn) {
    while (!conn.write_queue.empty()) {
      const QueuedWrite& front = conn.write_queue.front();
      const char* data = front.bytes.data() + conn.write_offset;
      const std::size_t len = front.bytes.size() - conn.write_offset;
      const ssize_t n = ::send(conn.fd, data, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      bytes_tx.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
      g_bytes_tx.add(static_cast<std::uint64_t>(n));
      conn.write_offset += static_cast<std::size_t>(n);
      conn.queued_bytes -= static_cast<std::size_t>(n);
      loop.queued_bytes_gauge.fetch_sub(static_cast<std::size_t>(n),
                                        std::memory_order_relaxed);
      if (conn.write_offset == front.bytes.size()) {
        // Last byte handed to the kernel: close out the wire_write
        // stage for response frames (enqueue -> socket accepted all).
        if (front.stage_kind != kNoStageKind) {
          service::stages::record(
              service::stages::Stage::kWireWrite,
              static_cast<service::RequestKind>(front.stage_kind),
              now_ns() - front.enqueue_ns, front.trace_id);
        }
        conn.write_queue.pop_front();
        conn.write_offset = 0;
        frames_tx.fetch_add(1, std::memory_order_relaxed);
        g_frames_tx.add();
      }
    }
    return true;
  }

  /// Read everything available on `conn`.  Returns false on EOF/error
  /// or when the decoded stream demands closing.
  bool handle_readable(Loop& loop, Connection& conn) {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n == 0) return false;  // peer closed
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      bytes_rx.fetch_add(static_cast<std::uint64_t>(n),
                         std::memory_order_relaxed);
      g_bytes_rx.add(static_cast<std::uint64_t>(n));
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      if (!drain_decoder(loop, conn)) return false;
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
    }
  }

  void accept_ready(Loop& loop) {
    for (;;) {
      const int fd = ::accept(loop.listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient error; epoll will re-arm
      }
      if (conn_count.load(std::memory_order_relaxed) >=
          config.max_connections) {
        ::close(fd);  // at capacity: refuse outright, never half-serve
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const std::uint64_t gen =
          next_gen.fetch_add(1, std::memory_order_relaxed);
      loop.conns.emplace(fd, Connection(fd, gen, config.max_payload));
      loop.gen_to_fd.emplace(gen, fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      PSL_CHECK_MSG(::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0,
                    "net: epoll_ctl(ADD) failed: " << std::strerror(errno));
      conn_count.fetch_add(1, std::memory_order_relaxed);
      loop.conn_gauge.fetch_add(1, std::memory_order_relaxed);
      accepted.fetch_add(1, std::memory_order_relaxed);
      g_accepted.add();
      g_conn_active.add(1);
    }
  }

  void loop_main(Loop& loop, const std::atomic<bool>& stop_flag) {
    obs::set_thread_label(config.name + ".loop" + std::to_string(loop.index));
    {
      std::lock_guard<std::mutex> lock(loop.outbox->mu);
      loop.outbox->loop_thread = std::this_thread::get_id();
    }
    std::vector<epoll_event> events(128);
    while (!stop_flag.load(std::memory_order_acquire)) {
      const int ready = ::epoll_wait(loop.epoll_fd, events.data(),
                                     static_cast<int>(events.size()), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        PSL_CHECK_MSG(false,
                      "net: epoll_wait failed: " << std::strerror(errno));
      }
      for (int i = 0; i < ready; ++i) {
        const int fd = events[static_cast<std::size_t>(i)].data.fd;
        const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
        if (fd == loop.listen_fd) {
          accept_ready(loop);
          continue;
        }
        if (fd == loop.wake_rd) {
          char drain[256];
          for (;;) {
            const ssize_t n = ::read(loop.wake_rd, drain, sizeof drain);
            if (n > 0) continue;
            if (n < 0 && errno == EINTR) continue;
            break;  // EAGAIN (drained) or EOF
          }
          continue;
        }
        auto it = loop.conns.find(fd);
        if (it == loop.conns.end()) continue;  // closed earlier this batch
        Connection& conn = it->second;
        bool alive = true;
        if (ev & (EPOLLERR | EPOLLHUP)) alive = false;
        if (alive && (ev & EPOLLIN)) alive = handle_readable(loop, conn);
        if (alive) alive = flush_writes(loop, conn);
        if (alive && over_output_bound(conn)) {
          overflow_closes.fetch_add(1, std::memory_order_relaxed);
          alive = false;
        }
        if (!alive) {
          close_conn(loop, fd);
        } else {
          update_write_interest(loop, conn);
        }
      }
      // Woken or not: lanes may have posted while we handled io, and
      // this loop posts the hits it answered without a wakeup.
      drain_outbox(loop);
    }
    while (!loop.conns.empty()) close_conn(loop, loop.conns.begin()->first);
  }
};

Server::Server(service::ServiceEngine& engine, Config config)
    : impl_(new Impl(engine, std::move(config))) {}

Server::~Server() {
  stop();
  delete impl_;
}

void Server::start() {
  if (started_.exchange(true)) return;
  Impl& im = *impl_;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.config.port);
  PSL_CHECK_MSG(
      ::inet_pton(AF_INET, im.config.host.c_str(), &addr.sin_addr) == 1,
      "net: invalid host '" << im.config.host << "'");

  im.loops.reserve(im.loop_count);
  for (std::size_t i = 0; i < im.loop_count; ++i) {
    auto loop = std::make_unique<Impl::Loop>();
    loop->index = i;

    int pipe_fds[2];
    PSL_CHECK_MSG(::pipe(pipe_fds) == 0,
                  "net: pipe failed: " << std::strerror(errno));
    loop->wake_rd = pipe_fds[0];
    loop->outbox->wake_wr = pipe_fds[1];
    set_nonblocking(pipe_fds[0]);
    set_nonblocking(pipe_fds[1]);

    // Every loop binds its own SO_REUSEPORT listener to the same
    // address; the kernel spreads incoming connections across them.
    // Loop 0 resolves an ephemeral port; siblings reuse the answer.
    loop->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    PSL_CHECK_MSG(loop->listen_fd >= 0,
                  "net: socket failed: " << std::strerror(errno));
    const int one = 1;
    ::setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    PSL_CHECK_MSG(::setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEPORT,
                               &one, sizeof one) == 0,
                  "net: setsockopt(SO_REUSEPORT) failed: "
                      << std::strerror(errno));
    PSL_CHECK_MSG(::bind(loop->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof addr) == 0,
                  "net: bind " << im.config.host << ":"
                               << ntohs(addr.sin_port)
                               << " failed: " << std::strerror(errno));
    PSL_CHECK_MSG(::listen(loop->listen_fd, im.config.backlog) == 0,
                  "net: listen failed: " << std::strerror(errno));
    set_nonblocking(loop->listen_fd);

    if (i == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof bound;
      PSL_CHECK_MSG(
          ::getsockname(loop->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0,
          "net: getsockname failed: " << std::strerror(errno));
      port_ = ntohs(bound.sin_port);
      addr.sin_port = bound.sin_port;
    }

    loop->epoll_fd = ::epoll_create1(0);
    PSL_CHECK_MSG(loop->epoll_fd >= 0,
                  "net: epoll_create1 failed: " << std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->listen_fd;
    PSL_CHECK_MSG(::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd,
                              &ev) == 0,
                  "net: epoll_ctl(listen) failed: " << std::strerror(errno));
    ev.data.fd = loop->wake_rd;
    PSL_CHECK_MSG(::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_rd,
                              &ev) == 0,
                  "net: epoll_ctl(wake) failed: " << std::strerror(errno));

    im.loops.push_back(std::move(loop));
  }

  for (auto& loop : im.loops) {
    Impl::Loop* lp = loop.get();
    lp->thread = std::thread([this, lp] { impl_->loop_main(*lp, stopped_); });
  }
}

void Server::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  Impl& im = *impl_;
  for (auto& loop : im.loops) loop->outbox->wake();
  for (auto& loop : im.loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : im.loops) {
    loop->outbox->close();
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->listen_fd >= 0) ::close(loop->listen_fd);
    if (loop->wake_rd >= 0) ::close(loop->wake_rd);
    loop->epoll_fd = loop->listen_fd = loop->wake_rd = -1;
  }
}

Server::Stats Server::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.accepted = im.accepted.load(std::memory_order_relaxed);
  s.closed = im.closed.load(std::memory_order_relaxed);
  s.frames_rx = im.frames_rx.load(std::memory_order_relaxed);
  s.frames_tx = im.frames_tx.load(std::memory_order_relaxed);
  s.bytes_rx = im.bytes_rx.load(std::memory_order_relaxed);
  s.bytes_tx = im.bytes_tx.load(std::memory_order_relaxed);
  s.requests_dispatched =
      im.requests_dispatched.load(std::memory_order_relaxed);
  s.nacks_queue_full = im.nacks_queue_full.load(std::memory_order_relaxed);
  s.nacks_shutdown = im.nacks_shutdown.load(std::memory_order_relaxed);
  s.nacks_shed = im.nacks_shed.load(std::memory_order_relaxed);
  s.decode_errors = im.decode_errors.load(std::memory_order_relaxed);
  s.overflow_closes = im.overflow_closes.load(std::memory_order_relaxed);
  s.io_loops = static_cast<std::uint64_t>(im.loop_count);
  return s;
}

}  // namespace pslocal::net
