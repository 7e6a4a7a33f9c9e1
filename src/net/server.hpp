// Non-blocking TCP front end of the ServiceEngine (src/net/).
//
// Threading model — one epoll event loop per core, none per connection,
// and no thread of its own between the engine and the loops:
//
//   io loops (N)       Each loop owns a private epoll instance, its own
//                      SO_REUSEPORT listen socket bound to the shared
//                      address (the kernel shards incoming connections
//                      across the acceptors), a wake pipe, and an
//                      exclusive set of connections.  A loop accepts,
//                      reads bytes into each connection's FrameDecoder,
//                      decodes requests, submits to the engine, and
//                      writes queued output frames (partial writes
//                      resume where they left off; EPOLLOUT interest is
//                      registered only while output is pending).
//                      Admission rejections (kQueueFull / kShutdown)
//                      become typed NACK frames immediately — the byte
//                      is never dropped and the client decides when to
//                      retry.  A cache hit is answered inside submit(),
//                      so the loop that decoded it also encodes and
//                      writes it.  Connections never migrate between
//                      loops, so no connection state is ever shared or
//                      locked.
//
//   serving lanes      Each admitted request carries a completion.  The
//                      thread that answers it (the io loop for a hit,
//                      else the engine lane that computed or parked it)
//                      encodes the Response there and posts the frame to
//                      the owning loop's outbox, waking that loop unless
//                      it is the poster.  So a connection's responses
//                      leave in completion order (a hit at once, a miss
//                      when its compute ends), never held behind a
//                      slower one admitted earlier; clients match them
//                      to requests by request id.
//
// config.io_threads picks the loop count (0 = one per core, capped at
// 8).  With one loop this is exactly the previous single-poll-loop
// behavior; with more, a single shard saturates the machine before a
// deployment adds machines (docs/shard.md).  Every blocking syscall in
// the loops retries on EINTR — a signal never kills a healthy server.
//
// Backpressure contract (docs/net.md):
//  * engine queue full        -> NACK(queue_full), retryable, nothing
//                                computed; counted in net.nack_queue_full.
//  * engine stopping          -> NACK(shutdown), not retryable.
//  * slow-reading client      -> per-connection output queue grows to
//                                config.max_output_bytes, then the
//                                connection is closed (the one case
//                                where bytes are dropped — the peer
//                                stopped draining them).
//  * corrupt frame            -> connection closed; other connections
//                                unaffected.
//
// Live telemetry (docs/tracing.md): a kStatsRequest frame is answered
// inline on the io loop that read it — obs::snapshot_json + the
// engine's stats_json + per-loop connection/queued-bytes gauges as one
// deterministic JSON object — without ever touching the engine queue,
// so scraping a busy shard never pauses it.
//
// Every connection is independent: one client sending garbage or
// stalling cannot delay decode, dispatch or answers for the others
// (solver-side ordering is the engine's FIFO, as for in-process callers).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "service/engine.hpp"

namespace pslocal::net {

class Server {
 public:
  struct Config {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; port() reports the choice
    int backlog = 64;
    std::size_t max_connections = 64;
    std::size_t max_payload = 0;  // frame payload bound; 0 = wire default
    /// Output-queue bound per connection; exceeded = connection closed.
    std::size_t max_output_bytes = 8u << 20;
    /// epoll event loops (each with its own SO_REUSEPORT acceptor);
    /// 0 = one per core, capped at 8.
    std::size_t io_threads = 1;
    /// Identity in traces and the stats JSON: io-loop threads are
    /// labelled "<name>.loop<i>" (Perfetto track names) and the stats
    /// response reports it, so a multi-shard scrape tells shards apart.
    std::string name = "server";
  };

  /// The engine must outlive the server and should be start()ed by the
  /// caller (an un-started engine NACKs once its queue fills — the
  /// admission-probe setup).
  Server(service::ServiceEngine& engine, Config config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and launch the io loops.  Throws ContractViolation on
  /// bind/listen failure.  Idempotent.
  void start();

  /// Stop accepting, close every connection, join the io loops.  The
  /// engine still answers every admitted request; an answer that comes
  /// after stop() is dropped, since its connection is gone.
  /// Idempotent; also called by the destructor.
  void stop();

  /// The bound TCP port (valid after start(); resolves port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  struct Stats {
    std::uint64_t accepted = 0;          // connections accepted
    std::uint64_t closed = 0;            // connections closed (any cause)
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t bytes_rx = 0;
    std::uint64_t bytes_tx = 0;
    std::uint64_t requests_dispatched = 0;  // admitted into the engine
    std::uint64_t nacks_queue_full = 0;
    std::uint64_t nacks_shutdown = 0;
    std::uint64_t nacks_shed = 0;  // kShedRetryAfter (QoS load sheds)
    std::uint64_t decode_errors = 0;  // corrupt streams / bad payloads
    std::uint64_t overflow_closes = 0;  // output-bound violations
    std::uint64_t io_loops = 0;         // resolved event-loop count
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  Impl* impl_;  // pimpl keeps <sys/epoll.h> and socket state out of the header

  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace pslocal::net
