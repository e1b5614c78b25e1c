// TCP socket backend for the ITransport seam.
//
// One SocketTransport is one process's endpoint in a cluster described by a
// ClusterConfig.  Connection topology: every endpoint binds a listener and
// *dials* every peer; the dialing side's connection carries its outbound
// traffic (after a HELLO frame identifying the dialer), and accepted
// connections are read-only inbound.  Using one direction per ordered pair
// sidesteps simultaneous-open dedup entirely.  Inbound connections close
// with RST, not FIN: the reader has nothing left to send, and a torn-down
// endpoint then leaves no TIME_WAIT socket behind on its listening port.
//
// The loop is epoll-based and single-threaded: one thread owns one
// transport and drives poll()/run_until(); send() may only be called from
// that thread (typically from inside the delivery sink — exactly how Node
// reacts to packets).  The one exception is wake(), which any thread may
// call to cut the owner's current epoll wait short.  Outbound frames
// buffer per peer and survive reconnects: a dial that fails retries with
// exponential backoff (100ms doubling to 2s), and everything not yet
// written flushes once the connection lands.  Self-sends go through a
// local queue drained by the poll loop, so a delivery cascade cannot
// recurse.
//
// Metering is the sim engine's: every packet the send hook lets through
// goes to the shared Metrics::note_send, which counts the
// Packet::wire_size() model, not the frame bytes (the equivalence tests
// compare these counters against a sim run of the same protocol).
// broadcast is ITransport's send loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/endpoint.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"

namespace svss::net {

// Process-wide SIGTERM/SIGINT plumbing for socket daemons.  The handler
// only sets a sig_atomic_t flag (async-signal-safe); run_until() polls it
// and returns early, so the daemon's main loop regains control and can
// shut down cleanly — close the listener, flush metrics, exit 0 — instead
// of dying mid-write when a supervisor (or the smoke script's cleanup
// trap) kills the fleet.  Handlers install without SA_RESTART so a
// blocked epoll_wait wakes with EINTR immediately.
void install_stop_handlers();
[[nodiscard]] bool stop_requested();
// Resets the sticky stop flag (tests that raise() a signal and then keep
// running; a real daemon never needs this).
void clear_stop_request();

class SocketTransport final : public ITransport {
 public:
  SocketTransport(int self, ClusterConfig cfg);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // --- ITransport ---
  void send(int to, Packet p) override;
  void set_delivery(Delivery sink) override { sink_ = std::move(sink); }
  void set_send_hook(SendHook hook) override { hook_ = std::move(hook); }
  [[nodiscard]] int self() const override { return self_; }
  [[nodiscard]] int n() const override { return cfg_.n(); }

  // --- lifecycle ---
  // Binds the listener (port 0 = kernel-assigned) and creates the epoll
  // instance and its wake eventfd.  Returns false on any socket-level
  // failure.
  bool open();
  // The one member safe to call from a thread other than the owner's: it
  // touches only the eventfd, fixed by open() and closed only by the
  // destructor, so a wake that races shutdown() is harmless.  The owner's
  // pending or next poll() returns at once; wakes issued before that poll
  // coalesce into one.  Cross-thread completion (LoopbackCluster) uses it
  // so a worker re-checks a shared predicate the moment it flips instead
  // of at its next tick.
  void wake();
  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }
  // Replaces a peer's endpoint before dialing starts (loopback clusters
  // learn kernel-assigned ports only after every listener is open).
  void set_peer(int id, Endpoint ep);
  // Live endpoint replacement (epoch reconfiguration: a slot's process was
  // swapped for one at a new address).  Drops the current connection,
  // resets the backoff, and redials the new endpoint on the next poll;
  // queued frames survive and flush to the replacement.
  void rebind_peer(int id, Endpoint ep);
  // Per-peer cap on unflushed outbound bytes.  While a peer is down its
  // queue would otherwise grow without bound; past the cap the *oldest*
  // complete unflushed frames are shed (never a frame the kernel already
  // holds part of) and counted in metrics().out_dropped_*.  A single frame
  // larger than the cap is kept — the cap bounds queue growth, it does not
  // reject traffic outright.
  void set_out_buffer_cap(std::size_t bytes) { out_buf_cap_ = bytes; }
  // Unflushed outbound bytes queued toward `id` (tests pin the cap).
  [[nodiscard]] std::size_t pending_out_bytes(int id) const;
  // Current reconnect backoff tier for `id` (tests pin the resolve-failure
  // fast path to the capped tier).
  [[nodiscard]] int peer_backoff_ms(int id) const;

  // One event-loop iteration: flushes writable peers, waits at most
  // `wait_ms` for readiness, processes events, drains local deliveries.
  void poll(int wait_ms);
  // Drives poll() until done(), `timeout_ms` elapsed, or stop_requested();
  // true iff done().  done() is re-checked after every poll(): a predicate
  // another thread flips must be followed by wake().  Each poll waits at
  // most 50 ms, a backstop that only bounds how late the deadline and the
  // stop flag are noticed.
  bool run_until(const std::function<bool()>& done, int timeout_ms);
  // Clean teardown: best-effort flush of pending outbound frames, then
  // closes the listener and every connection.  After shutdown() the
  // transport is inert — poll()/run_until() return without redialing, so
  // the port is free the moment this returns, not at destructor time.
  void shutdown();

  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  // Outbound leg toward one peer.
  struct OutPeer {
    int fd = -1;
    bool connecting = false;    // nonblocking connect() in flight
    Bytes buf;                  // frames queued (survives reconnects)
    std::size_t pos = 0;        // flushed prefix of buf
    // Offset of the first frame not yet *completely* flushed.  `pos` may
    // sit mid-frame after a partial write; resuming a new connection from
    // there would replay a frame tail the receiver parses as a fresh
    // length prefix (desync -> stream-error latch).  Reconnects therefore
    // rewind pos to this boundary and resend the whole frame.
    std::size_t frame_base = 0;
    int backoff_ms = 100;
    Clock::time_point next_attempt{};  // earliest (re)dial time
    // A bad endpoint is logged once, not once per retry (set_peer resets).
    bool resolve_logged = false;
  };
  // Accepted inbound connection; peer is learned from its HELLO frame.
  struct InConn {
    int fd = -1;
    int peer = -1;
    FrameDecoder decoder;
  };

  void start_connect(int peer);
  void update_out_events(int peer, bool want_write);
  void finish_connect(int peer);
  void drop_out(int peer);
  static void advance_frame_base(OutPeer& o);
  void trim_out(int peer);
  void flush_out(int peer);
  void handle_accept();
  void handle_inbound(std::size_t idx);
  void close_inbound(std::size_t idx);
  void drain_local();
  void deliver(int from, const Packet& p);
  [[nodiscard]] int epoll_timeout(int wait_ms) const;

  int self_;
  ClusterConfig cfg_;
  Delivery sink_;
  SendHook hook_;
  Metrics metrics_;

  std::size_t out_buf_cap_ = std::size_t{16} << 20;  // per peer
  int epfd_ = -1;
  int wake_fd_ = -1;  // eventfd behind wake(); lives until the destructor
  int listen_fd_ = -1;
  bool closed_ = false;                   // shutdown() latched
  std::uint16_t bound_port_ = 0;
  std::vector<OutPeer> out_;              // index = peer id (self unused)
  std::vector<InConn> in_;                // accepted connections
  std::deque<Packet> local_;              // self-sends awaiting delivery
};

}  // namespace svss::net
