#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

namespace svss::net {

namespace {

volatile std::sig_atomic_t g_stop_flag = 0;

void on_stop_signal(int) { g_stop_flag = 1; }

}  // namespace

void install_stop_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked epoll_wait must wake
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

bool stop_requested() { return g_stop_flag != 0; }

void clear_stop_request() { g_stop_flag = 0; }

namespace {

// Reconnect backoff ceiling (the 100ms-doubling ladder tops out here).
constexpr int kMaxBackoffMs = 2000;

// epoll_event.data.u64 tag: role in the high bits, index in the low.  The
// wake eventfd is the one registration with tag value 0.
constexpr std::uint64_t kTagWake = 0;
constexpr std::uint64_t kTagListen = 1ull << 62;
constexpr std::uint64_t kTagOut = 2ull << 62;
constexpr std::uint64_t kTagIn = 3ull << 62;
constexpr std::uint64_t kTagMask = 3ull << 62;

bool resolve(const Endpoint& ep, sockaddr_in& addr) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  const char* host = ep.host == "localhost" ? "127.0.0.1" : ep.host.c_str();
  return inet_pton(AF_INET, host, &addr.sin_addr) == 1;
}

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Inbound connections are read-only, so closing one with RST instead of
// FIN loses nothing the peer could still receive (unread bytes are lost
// either way).  It keeps the closing side out of TIME_WAIT: a graceful
// close parks a TIME_WAIT socket on this endpoint's listening port for
// 60 s, and clusters rebuilt back to back pile enough of them onto the
// ephemeral range to make every later bind(port 0) search for a port.
void set_abortive_close(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace

SocketTransport::SocketTransport(int self, ClusterConfig cfg)
    : self_(self), cfg_(std::move(cfg)),
      out_(static_cast<std::size_t>(cfg_.n())) {}

SocketTransport::~SocketTransport() {
  for (auto& o : out_) {
    if (o.fd >= 0) ::close(o.fd);
  }
  for (auto& c : in_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

bool SocketTransport::open() {
  epfd_ = epoll_create1(0);
  if (epfd_ < 0) return false;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return false;
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.u64 = kTagWake;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &wev) < 0) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  if (!resolve(cfg_.peers[static_cast<std::size_t>(self_)], addr)) return false;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return false;
  }
  if (::listen(listen_fd_, 128) < 0) return false;
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return false;
  }
  bound_port_ = ntohs(bound.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagListen;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) return false;
  // Dial everyone on the first poll.
  for (int p = 0; p < cfg_.n(); ++p) {
    out_[static_cast<std::size_t>(p)].next_attempt = Clock::now();
  }
  return true;
}

void SocketTransport::wake() {
  // Counter overflow (EAGAIN) still leaves the fd readable, so a failed
  // write loses nothing.
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t wrote = ::write(wake_fd_, &one, sizeof(one));
}

void SocketTransport::set_peer(int id, Endpoint ep) {
  cfg_.peers.at(static_cast<std::size_t>(id)) = std::move(ep);
  out_[static_cast<std::size_t>(id)].resolve_logged = false;
}

void SocketTransport::rebind_peer(int id, Endpoint ep) {
  set_peer(id, std::move(ep));
  OutPeer& o = out_[static_cast<std::size_t>(id)];
  if (o.fd >= 0) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, o.fd, nullptr);
    ::close(o.fd);
    o.fd = -1;
  }
  o.connecting = false;
  o.pos = o.frame_base;  // same discipline as drop_out
  o.backoff_ms = 100;    // fresh endpoint, fresh backoff ladder
  o.next_attempt = Clock::now();
}

std::size_t SocketTransport::pending_out_bytes(int id) const {
  const OutPeer& o = out_[static_cast<std::size_t>(id)];
  return o.buf.size() - o.frame_base;
}

int SocketTransport::peer_backoff_ms(int id) const {
  return out_[static_cast<std::size_t>(id)].backoff_ms;
}

// ----------------------------------------------------------------------
// Sending
// ----------------------------------------------------------------------

void SocketTransport::send(int to, Packet p) {
  if (hook_ && !hook_(to, p)) return;
  metrics_.note_send(p);
  if (to == self_) {
    local_.push_back(std::move(p));
    return;
  }
  append_packet_frame(out_[static_cast<std::size_t>(to)].buf, p);
  trim_out(to);
}

// ----------------------------------------------------------------------
// Outbound connections
// ----------------------------------------------------------------------

void SocketTransport::start_connect(int peer) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  sockaddr_in addr;
  if (!resolve(cfg_.peers[static_cast<std::size_t>(peer)], addr)) {
    // A bad endpoint will not fix itself at dial cadence: a refused dial
    // climbs the backoff ladder, but an unresolvable one used to restart
    // it at 100 ms and log nothing, which is a silent retry storm.  Jump
    // straight to the capped tier and say so once.
    if (!o.resolve_logged) {
      o.resolve_logged = true;
      std::fprintf(stderr,
                   "svss-net[%d]: cannot resolve peer %d endpoint %s:%u; "
                   "retrying at capped backoff\n",
                   self_, peer,
                   cfg_.peers[static_cast<std::size_t>(peer)].host.c_str(),
                   cfg_.peers[static_cast<std::size_t>(peer)].port);
    }
    o.backoff_ms = kMaxBackoffMs;
    drop_out(peer);
    return;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    drop_out(peer);
    return;
  }
  set_nodelay(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    drop_out(peer);
    return;
  }
  o.fd = fd;
  o.connecting = rc < 0;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = kTagOut | static_cast<std::uint64_t>(peer);
  epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  if (!o.connecting) finish_connect(peer);
}

// Level-triggered EPOLLOUT on an idle connected socket would wake every
// epoll_wait immediately, so write-interest is armed only while the
// connect is in flight or a flush hit EAGAIN.
void SocketTransport::update_out_events(int peer, bool want_write) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  if (o.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = kTagOut | static_cast<std::uint64_t>(peer);
  epoll_ctl(epfd_, EPOLL_CTL_MOD, o.fd, &ev);
}

void SocketTransport::finish_connect(int peer) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  o.connecting = false;
  o.backoff_ms = 100;
  update_out_events(peer, false);
  // On a fresh connection nothing is flushed past the last frame boundary
  // (drop_out rewinds pos there), so the HELLO slots in right at it and
  // precedes every frame this connection will carry.
  assert(o.pos == o.frame_base);
  Bytes hello;
  append_hello_frame(hello, self_);
  o.buf.insert(o.buf.begin() + static_cast<std::ptrdiff_t>(o.frame_base),
               hello.begin(), hello.end());
  flush_out(peer);
}

void SocketTransport::drop_out(int peer) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  if (o.fd >= 0) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, o.fd, nullptr);
    ::close(o.fd);
    o.fd = -1;
  }
  o.connecting = false;
  // A partial write leaves pos mid-frame.  The next connection's receiver
  // starts a fresh frame stream, so resend must restart at a frame
  // boundary — resuming mid-frame would feed it a frame *tail* as a
  // length prefix and latch a stream error.
  o.pos = o.frame_base;
  o.next_attempt = Clock::now() + std::chrono::milliseconds(o.backoff_ms);
  o.backoff_ms = std::min(o.backoff_ms * 2, kMaxBackoffMs);
}

// Advances frame_base past every completely flushed frame.  Frames are
// self-delimiting ([u32 len][len bytes]), so the boundary is recoverable
// from buf alone.
void SocketTransport::advance_frame_base(OutPeer& o) {
  while (o.frame_base + 4 <= o.pos) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(o.buf[o.frame_base +
                                              static_cast<std::size_t>(i)])
             << (8 * i);
    }
    std::size_t frame = 4 + static_cast<std::size_t>(len);
    if (o.frame_base + frame > o.pos) break;
    o.frame_base += frame;
  }
}

// Enforces the per-peer cap on unflushed outbound bytes, shedding whole
// frames oldest-first.  Only frames entirely beyond `pos` are candidates:
// anything at or before `pos` is (partially) in the kernel already, and
// cutting mid-frame would desync the receiver's length-prefixed stream —
// the same discipline frame_base preserves across reconnects.  The HELLO
// a dead connection may have left at frame_base is skipped so the next
// successful dial still opens with it.
void SocketTransport::trim_out(int peer) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  if (o.buf.size() - o.frame_base <= out_buf_cap_) return;
  auto frame_len = [&o](std::size_t off) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(o.buf[off + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    return 4 + static_cast<std::size_t>(len);
  };
  // First frame boundary at or past the flushed prefix.
  std::size_t cut = o.frame_base;
  while (cut < o.pos) cut += frame_len(cut);
  if (cut + 5 <= o.buf.size() &&
      o.buf[cut + 4] == static_cast<std::uint8_t>(FrameKind::kHello)) {
    cut += frame_len(cut);
  }
  // Shed oldest droppable frames until under the cap, but never the newest
  // frame: a single frame bigger than the cap stays queued (soft bound).
  std::size_t cut_end = cut;
  std::uint64_t shed_frames = 0;
  while (o.buf.size() - o.frame_base - (cut_end - cut) > out_buf_cap_) {
    std::size_t next = cut_end + frame_len(cut_end);
    if (next >= o.buf.size()) break;
    cut_end = next;
    ++shed_frames;
  }
  if (cut_end == cut) return;
  metrics_.out_dropped_frames += shed_frames;
  metrics_.out_dropped_bytes += cut_end - cut;
  o.buf.erase(o.buf.begin() + static_cast<std::ptrdiff_t>(cut),
              o.buf.begin() + static_cast<std::ptrdiff_t>(cut_end));
}

void SocketTransport::flush_out(int peer) {
  OutPeer& o = out_[static_cast<std::size_t>(peer)];
  if (o.fd < 0 || o.connecting) return;
  while (o.pos < o.buf.size()) {
    ssize_t wrote = ::write(o.fd, o.buf.data() + o.pos, o.buf.size() - o.pos);
    if (wrote > 0) {
      o.pos += static_cast<std::size_t>(wrote);
      advance_frame_base(o);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_out_events(peer, true);
      return;
    }
    if (wrote < 0 && errno == EINTR) continue;
    // Connection died: unflushed frames stay in buf and go out on the
    // next successful dial.
    drop_out(peer);
    return;
  }
  if (o.pos == o.buf.size()) {
    update_out_events(peer, false);
    if (o.pos > (1u << 16)) {
      o.buf.clear();
      o.pos = 0;
      o.frame_base = 0;
    }
  }
}

// ----------------------------------------------------------------------
// Inbound connections
// ----------------------------------------------------------------------

void SocketTransport::handle_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: accept again later
    set_nodelay(fd);
    set_abortive_close(fd);
    std::size_t idx = in_.size();
    for (std::size_t i = 0; i < in_.size(); ++i) {
      if (in_[i].fd < 0) {
        idx = i;
        break;
      }
    }
    if (idx == in_.size()) in_.emplace_back();
    in_[idx] = InConn{};
    in_[idx].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagIn | static_cast<std::uint64_t>(idx);
    epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketTransport::close_inbound(std::size_t idx) {
  InConn& c = in_[idx];
  if (c.fd >= 0) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
  }
  c = InConn{};
  c.fd = -1;
}

void SocketTransport::handle_inbound(std::size_t idx) {
  InConn& c = in_[idx];
  std::uint8_t chunk[65536];
  for (;;) {
    ssize_t got = ::read(c.fd, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got <= 0) {
      close_inbound(idx);
      return;
    }
    c.decoder.feed(chunk, static_cast<std::size_t>(got));
    while (auto frame = c.decoder.next()) {
      if (c.peer < 0) {
        // First frame must identify the dialer; anything else is a
        // protocol violation and the connection is refused.
        auto id = decode_hello(*frame, cfg_.n());
        if (!id || *id == self_) {
          close_inbound(idx);
          return;
        }
        c.peer = *id;
        continue;
      }
      if (auto p = decode_packet(*frame)) {
        deliver(c.peer, *p);
      }
      // Well-framed garbage: dropped alone, stream continues.
    }
    if (c.decoder.broken()) {
      // Undelimitable stream: reset the connection (the peer re-dials).
      close_inbound(idx);
      return;
    }
  }
}

// ----------------------------------------------------------------------
// Delivery and the loop
// ----------------------------------------------------------------------

void SocketTransport::deliver(int from, const Packet& p) {
  metrics_.packets_delivered++;
  if (sink_) sink_(from, p);
}

void SocketTransport::drain_local() {
  // Deliveries may enqueue further self-sends; drain until quiescent.
  while (!local_.empty()) {
    Packet p = std::move(local_.front());
    local_.pop_front();
    deliver(self_, p);
  }
}

int SocketTransport::epoll_timeout(int wait_ms) const {
  auto now = Clock::now();
  int timeout = wait_ms;
  for (int p = 0; p < cfg_.n(); ++p) {
    if (p == self_) continue;
    const OutPeer& o = out_[static_cast<std::size_t>(p)];
    if (o.fd >= 0) continue;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  o.next_attempt - now)
                  .count();
    timeout = std::min<long long>(timeout, std::max<long long>(ms, 0));
  }
  return timeout;
}

void SocketTransport::shutdown() {
  if (closed_) return;
  // Give each live connection one last chance to drain its queue — a
  // decided replica often holds the tail of its final RB echoes here.
  for (int p = 0; p < cfg_.n(); ++p) {
    OutPeer& o = out_[static_cast<std::size_t>(p)];
    if (o.fd >= 0 && !o.connecting && o.pos < o.buf.size()) flush_out(p);
  }
  closed_ = true;  // after the flush: flush_out may drop_out -> redial arm
  for (auto& o : out_) {
    if (o.fd >= 0) {
      ::close(o.fd);  // close() detaches the fd from epfd_ too
      o.fd = -1;
    }
  }
  for (auto& c : in_) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  local_.clear();
}

void SocketTransport::poll(int wait_ms) {
  if (closed_) return;
  drain_local();
  auto now = Clock::now();
  for (int p = 0; p < cfg_.n(); ++p) {
    if (p == self_) continue;
    OutPeer& o = out_[static_cast<std::size_t>(p)];
    if (o.fd < 0 && now >= o.next_attempt) start_connect(p);
    if (o.fd >= 0 && !o.connecting && o.pos < o.buf.size()) flush_out(p);
  }
  epoll_event evs[64];
  int k = epoll_wait(epfd_, evs, 64, epoll_timeout(wait_ms));
  for (int i = 0; i < k; ++i) {
    std::uint64_t tag = evs[i].data.u64 & kTagMask;
    auto idx = evs[i].data.u64 & ~kTagMask;
    if (evs[i].data.u64 == kTagWake) {
      // One read resets the counter: any number of wakes cost one event.
      std::uint64_t count = 0;
      [[maybe_unused]] ssize_t got = ::read(wake_fd_, &count, sizeof(count));
    } else if (tag == kTagListen) {
      handle_accept();
    } else if (tag == kTagOut) {
      int peer = static_cast<int>(idx);
      OutPeer& o = out_[static_cast<std::size_t>(peer)];
      if (o.fd < 0) continue;
      if (evs[i].events & (EPOLLERR | EPOLLHUP)) {
        drop_out(peer);
        continue;
      }
      if (o.connecting && (evs[i].events & EPOLLOUT)) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(o.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          drop_out(peer);
          continue;
        }
        finish_connect(peer);
      } else if (evs[i].events & EPOLLOUT) {
        flush_out(peer);
      }
      if (o.fd >= 0 && (evs[i].events & EPOLLIN)) {
        // Peers never send data on our dialed connections; readable here
        // means FIN or error.
        std::uint8_t sink[4096];
        ssize_t got = ::read(o.fd, sink, sizeof(sink));
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                         errno != EINTR)) {
          drop_out(peer);
        }
      }
    } else if (tag == kTagIn) {
      if (in_[idx].fd >= 0) handle_inbound(idx);
    }
  }
  drain_local();
}

bool SocketTransport::run_until(const std::function<bool()>& done,
                                int timeout_ms) {
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    drain_local();
    if (done()) return true;
    if (closed_ || stop_requested()) return false;
    auto now = Clock::now();
    if (now >= deadline) return done();
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
    poll(static_cast<int>(std::min<long long>(left, 50)));
  }
}

}  // namespace svss::net
