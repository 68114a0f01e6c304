#include "src/agent/udp_socket.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "src/agent/chaos.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

// recvmmsg/sendmmsg are Linux syscalls; everywhere else (and for batches of
// one, the measured per-datagram baseline) the same API degrades to one
// recvmsg/sendmsg per datagram. UDP GSO/GRO (UDP_SEGMENT / UDP_GRO) are also
// Linux-only; pre-4.18 kernels reject the setsockopt/cmsg at runtime and the
// code falls back to the mmsg paths.
#if defined(__linux__)
#define SWIFT_UDP_HAVE_MMSG 1
#include <netinet/udp.h>
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#endif

namespace swift {

namespace {
constexpr uint32_t kLoopbackHost = 0x7F000001;
// Largest encoded message: header+fields (<128) + 8 KiB payload.
constexpr size_t kMaxDatagram = 16 * 1024;
// One GRO-coalesced train: the kernel merges at most one max-size UDP
// datagram's worth (65507 bytes) of equal-size segments.
constexpr size_t kGroSlot = 64 * 1024;
// Kernel caps on a UDP_SEGMENT send: UDP_MAX_SEGMENTS segments, one UDP
// datagram's payload in total.
constexpr size_t kMaxGsoSegments = 64;
constexpr size_t kMaxUdpPayload = 65507;
// Minimum slots per receive-arena block. Payload slices pin the whole block,
// so a bigger arena lets one long-lived slice hold more dead datagrams
// alive; batch receives trade that for allocator traffic with a few batches
// worth of slots per block (a full-rate batched receiver would otherwise
// burn a block per recvmmsg call).
constexpr size_t kMinArenaSlots = 4;
constexpr size_t kBatchesPerArenaBlock = 4;

// Registry metrics shared by every socket in the process: how full the
// batches ran, and the failure modes the batched converters must not hide.
struct SocketMetrics {
  HistogramMetric* recv_batch_size;
  HistogramMetric* send_batch_size;
  Counter* truncated_datagrams;
  Counter* send_errors;
};

const SocketMetrics& Metrics() {
  static const SocketMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return SocketMetrics{
        registry.GetHistogram("swift_socket_recv_batch_size"),
        registry.GetHistogram("swift_socket_send_batch_size"),
        registry.GetCounter("swift_socket_truncated_datagrams_total"),
        registry.GetCounter("swift_socket_send_errors_total"),
    };
  }();
  return metrics;
}

size_t Align8(size_t n) { return (n + 7) & ~size_t{7}; }

// One surviving (not loss-injected) datagram of a SendBatch, with enough
// shape to find GSO-coalescible runs: consecutive entries with equal `bytes`
// and `dst` can ride one UDP_SEGMENT send.
struct LiveDatagram {
  size_t addr_index;
  size_t iov_start;
  size_t iov_count;
  size_t bytes;
  UdpEndpoint dst;
};
}  // namespace

sockaddr_in UdpEndpoint::ToSockaddr() const {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ipv4_host);
  addr.sin_port = htons(port);
  return addr;
}

UdpEndpoint UdpEndpoint::FromSockaddr(const sockaddr_in& addr) {
  return UdpEndpoint{ntohl(addr.sin_addr.s_addr), ntohs(addr.sin_port)};
}

UdpEndpoint UdpEndpoint::Loopback(uint16_t port) { return UdpEndpoint{kLoopbackHost, port}; }

UdpSocket::~UdpSocket() { CloseFd(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_),
      local_port_(other.local_port_),
      loss_probability_(other.loss_probability_),
      loss_rng_(std::move(other.loss_rng_)),
      recv_arena_(std::move(other.recv_arena_)),
      recv_arena_used_(other.recv_arena_used_),
      gro_attempted_(other.gro_attempted_),
      gro_enabled_(other.gro_enabled_),
      gso_send_disabled_(other.gso_send_disabled_),
      pending_rx_(std::move(other.pending_rx_)),
      pending_rx_next_(other.pending_rx_next_),
      chaos_(std::move(other.chaos_)),
      chaos_held_(std::move(other.chaos_held_)) {
  other.fd_ = -1;
  other.local_port_ = 0;
  other.recv_arena_ = Buffer();
  other.recv_arena_used_ = 0;
  other.pending_rx_.clear();
  other.pending_rx_next_ = 0;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    CloseFd();
    fd_ = other.fd_;
    local_port_ = other.local_port_;
    loss_probability_ = other.loss_probability_;
    loss_rng_ = std::move(other.loss_rng_);
    recv_arena_ = std::move(other.recv_arena_);
    recv_arena_used_ = other.recv_arena_used_;
    gro_attempted_ = other.gro_attempted_;
    gro_enabled_ = other.gro_enabled_;
    gso_send_disabled_ = other.gso_send_disabled_;
    pending_rx_ = std::move(other.pending_rx_);
    pending_rx_next_ = other.pending_rx_next_;
    chaos_ = std::move(other.chaos_);
    chaos_held_ = std::move(other.chaos_held_);
    other.fd_ = -1;
    other.local_port_ = 0;
    other.recv_arena_ = Buffer();
    other.recv_arena_used_ = 0;
    other.pending_rx_.clear();
    other.pending_rx_next_ = 0;
  }
  return *this;
}

void UdpSocket::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status UdpSocket::BindLoopback(uint16_t port, bool reuseport) {
  CloseFd();
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  // Generous buffers: a striped write bursts many 8 KiB datagrams — the very
  // SunOS limitation §3.1 fought ("we often ran out of buffer space").
  const int kBufferBytes = 1 << 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kBufferBytes, sizeof(kBufferBytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kBufferBytes, sizeof(kBufferBytes));
  if (reuseport) {
#ifdef SO_REUSEPORT
    const int one = 1;
    if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      Status status = IoError(std::string("setsockopt(SO_REUSEPORT): ") + std::strerror(errno));
      CloseFd();
      return status;
    }
#else
    CloseFd();
    return UnimplementedError("SO_REUSEPORT not available on this platform");
#endif
  }

  sockaddr_in addr = UdpEndpoint::Loopback(port).ToSockaddr();
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = IoError(std::string("bind: ") + std::strerror(errno));
    CloseFd();
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status = IoError(std::string("getsockname: ") + std::strerror(errno));
    CloseFd();
    return status;
  }
  local_port_ = ntohs(addr.sin_port);
  return OkStatus();
}

bool UdpSocket::LoseOutgoing() {
  ++datagrams_sent_;
  if (loss_probability_ > 0 && loss_rng_.has_value() &&
      loss_rng_->Bernoulli(loss_probability_)) {
    ++datagrams_dropped_;
    return true;
  }
  return false;
}

bool UdpSocket::ChaosDropOutgoing(const UdpEndpoint& dst) {
  if (chaos_ == nullptr ||
      chaos_->OnSend(dst.port).action != ChaosDirector::Action::kDrop) {
    return false;
  }
  ++datagrams_dropped_;
  return true;
}

Status UdpSocket::SendTo(const UdpEndpoint& dst, std::span<const uint8_t> data) {
  if (fd_ < 0) {
    return UnavailableError("socket closed");
  }
  if (LoseOutgoing() || ChaosDropOutgoing(dst)) {
    return OkStatus();  // silently "lost on the wire"
  }
  sockaddr_in addr = dst.ToSockaddr();
  const ssize_t n = ::sendto(fd_, data.data(), data.size(), 0,
                             reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (n < 0) {
    if (errno == EMSGSIZE) {
      return MessageTooLargeError("sendto: datagram exceeds the transmit limit");
    }
    return IoError(std::string("sendto: ") + std::strerror(errno));
  }
  if (static_cast<size_t>(n) != data.size()) {
    return IoError("short sendto");
  }
  return OkStatus();
}

Status UdpSocket::SendTo(const UdpEndpoint& dst, std::span<const uint8_t> head,
                         std::span<const uint8_t> payload) {
  if (payload.empty()) {
    return SendTo(dst, head);
  }
  if (fd_ < 0) {
    return UnavailableError("socket closed");
  }
  if (LoseOutgoing() || ChaosDropOutgoing(dst)) {
    return OkStatus();  // silently "lost on the wire"
  }
  sockaddr_in addr = dst.ToSockaddr();
  iovec iov[2];
  iov[0].iov_base = const_cast<uint8_t*>(head.data());
  iov[0].iov_len = head.size();
  iov[1].iov_base = const_cast<uint8_t*>(payload.data());
  iov[1].iov_len = payload.size();
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  const ssize_t n = ::sendmsg(fd_, &msg, 0);
  if (n < 0) {
    if (errno == EMSGSIZE) {
      return MessageTooLargeError("sendmsg: datagram exceeds the transmit limit");
    }
    return IoError(std::string("sendmsg: ") + std::strerror(errno));
  }
  if (static_cast<size_t>(n) != head.size() + payload.size()) {
    return IoError("short sendmsg");
  }
  return OkStatus();
}

Status UdpSocket::SendBatch(std::span<const OutgoingDatagram> batch) {
  if (fd_ < 0) {
    return UnavailableError("socket closed");
  }
  if (batch.empty()) {
    return OkStatus();
  }
  Metrics().send_batch_size->Record(static_cast<double>(batch.size()));

  // Loss injection happens here, per datagram, so the surviving set can be
  // handed to the kernel contiguously. Scratch is per-thread and reused —
  // callers flush from a single thread per socket, and the hot path must not
  // allocate per batch.
  static thread_local std::vector<sockaddr_in> addrs;
  static thread_local std::vector<iovec> iovs;
  static thread_local std::vector<LiveDatagram> live;
  addrs.clear();
  iovs.clear();
  live.clear();
  addrs.reserve(batch.size());
  iovs.reserve(batch.size() * 2);
  for (const OutgoingDatagram& d : batch) {
    if (LoseOutgoing() || ChaosDropOutgoing(d.dst)) {
      continue;
    }
    addrs.push_back(d.dst.ToSockaddr());
    const size_t iov_start = iovs.size();
    if (!d.head.empty() || d.payload.empty()) {
      iovs.push_back({const_cast<uint8_t*>(d.head.data()), d.head.size()});
    }
    if (!d.payload.empty()) {
      iovs.push_back({const_cast<uint8_t*>(d.payload.data()), d.payload.size()});
    }
    live.push_back({addrs.size() - 1, iov_start, iovs.size() - iov_start,
                    d.head.size() + d.payload.size(), d.dst});
  }
  if (live.empty()) {
    return OkStatus();
  }

#ifdef SWIFT_UDP_HAVE_MMSG
  // GSO path: a run of equal-size datagrams to one destination becomes a
  // single sendmsg whose UDP_SEGMENT cmsg tells the kernel where to split —
  // the UDP stack is traversed once per run instead of once per datagram
  // (syscall entry is cheap on modern kernels; the stack traversal is not).
  // Runs arise naturally: striped data bursts, retransmit bursts, ACK trains.
  // Only worth entering when some adjacent pair actually coalesces; an
  // all-singletons batch does better in one sendmmsg below.
  if (!gso_send_disabled_ && live.size() > 1) {
    bool any_run = false;
    for (size_t i = 0; i + 1 < live.size() && !any_run; ++i) {
      any_run = live[i].bytes == live[i + 1].bytes && live[i].dst == live[i + 1].dst &&
                live[i].bytes > 0 && live[i].bytes * 2 <= kMaxUdpPayload;
    }
    if (any_run) {
      size_t i = 0;
      while (i < live.size()) {
        const size_t run_bytes = live[i].bytes;
        const size_t max_run =
            run_bytes > 0 && run_bytes <= kMaxUdpPayload
                ? std::min(kMaxGsoSegments, kMaxUdpPayload / run_bytes)
                : 1;
        size_t j = i + 1;
        while (j < live.size() && j - i < max_run && live[j].bytes == run_bytes &&
               live[j].dst == live[i].dst) {
          ++j;
        }
        const size_t run = j - i;
        msghdr msg{};
        msg.msg_name = &addrs[live[i].addr_index];
        msg.msg_namelen = sizeof(sockaddr_in);
        msg.msg_iov = &iovs[live[i].iov_start];
        msg.msg_iovlen = live[j - 1].iov_start + live[j - 1].iov_count - live[i].iov_start;
        char control[CMSG_SPACE(sizeof(uint16_t))] = {};
        if (run > 1) {
          msg.msg_control = control;
          msg.msg_controllen = sizeof(control);
          cmsghdr* cm = CMSG_FIRSTHDR(&msg);
          cm->cmsg_level = SOL_UDP;
          cm->cmsg_type = UDP_SEGMENT;
          cm->cmsg_len = CMSG_LEN(sizeof(uint16_t));
          const uint16_t segment = static_cast<uint16_t>(run_bytes);
          std::memcpy(CMSG_DATA(cm), &segment, sizeof(segment));
        }
        ssize_t n;
        do {
          n = ::sendmsg(fd_, &msg, 0);
        } while (n < 0 && errno == EINTR);
        if (n < 0) {
          if (run > 1 && (errno == EINVAL || errno == ENOTSUP || errno == EOPNOTSUPP)) {
            // Pre-GSO kernel: remember, and hand this batch's remainder (from
            // the failed run onward — nothing of it was sent) to the plain
            // sendmmsg/sendmsg machinery by re-entering without offload.
            gso_send_disabled_ = true;
            live.erase(live.begin(), live.begin() + static_cast<ssize_t>(i));
            break;
          }
          // The kernel refused the run (EMSGSIZE, transient ENOBUFS): to the
          // protocol that is wire loss of `run` datagrams; retransmission
          // recovers, the batch keeps moving.
          Metrics().send_errors->Increment(run);
        }
        i = j;
      }
      if (!gso_send_disabled_) {
        return OkStatus();
      }
    }
  }

  if (live.size() > 1) {
    static thread_local std::vector<mmsghdr> hdrs;
    hdrs.resize(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      msghdr& msg = hdrs[i].msg_hdr;
      msg = msghdr{};
      msg.msg_name = &addrs[live[i].addr_index];
      msg.msg_namelen = sizeof(sockaddr_in);
      msg.msg_iov = &iovs[live[i].iov_start];
      msg.msg_iovlen = live[i].iov_count;
      hdrs[i].msg_len = 0;
    }
    size_t done = 0;
    while (done < hdrs.size()) {
      const int n = ::sendmmsg(fd_, hdrs.data() + done, hdrs.size() - done, 0);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        // The error names hdrs[done] only (sendmmsg sends nothing on -1).
        // A datagram the kernel refuses — EMSGSIZE, a transient ENOBUFS —
        // is indistinguishable from wire loss to the protocol, whose
        // retransmission machinery recovers; skip it and keep the batch
        // moving rather than stalling every datagram behind it.
        Metrics().send_errors->Increment();
        ++done;
        continue;
      }
      done += static_cast<size_t>(n);
    }
    return OkStatus();
  }
#endif

  // Fallback (and single-datagram) path: one sendmsg per datagram, same
  // treat-errors-as-loss policy as the batched path.
  for (const LiveDatagram& d : live) {
    msghdr msg{};
    msg.msg_name = &addrs[d.addr_index];
    msg.msg_namelen = sizeof(sockaddr_in);
    msg.msg_iov = &iovs[d.iov_start];
    msg.msg_iovlen = d.iov_count;
    ssize_t n;
    do {
      n = ::sendmsg(fd_, &msg, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      Metrics().send_errors->Increment();
    }
  }
  return OkStatus();
}

size_t UdpSocket::EnsureArenaSlots(size_t wanted) {
  // Land datagrams in the shared arena; earlier slices pin the old block,
  // so refilling just drops our reference and lets them age out naturally.
  // Once GRO is on, a slot holds a whole coalesced train instead of one
  // datagram (leftover sub-train space in the old block simply goes unused
  // across the switch).
  const size_t slot_bytes = gro_enabled_ ? kGroSlot : kMaxDatagram;
  size_t free_slots =
      recv_arena_.valid() ? (recv_arena_.size() - recv_arena_used_) / slot_bytes : 0;
  if (free_slots == 0) {
    const size_t slots = std::max(wanted * kBatchesPerArenaBlock, kMinArenaSlots);
    recv_arena_ = Buffer::Allocate(slots * slot_bytes);
    recv_arena_used_ = 0;
    free_slots = slots;
  }
  return free_slots;
}

size_t UdpSocket::TakePending(size_t max_batch, std::vector<ReceivedDatagram>& out) {
  size_t taken = 0;
  while (pending_rx_next_ < pending_rx_.size() && taken < max_batch) {
    out.push_back(std::move(pending_rx_[pending_rx_next_]));
    ++pending_rx_next_;
    ++taken;
  }
  if (pending_rx_next_ >= pending_rx_.size()) {
    pending_rx_.clear();
    pending_rx_next_ = 0;
  }
  return taken;
}

#ifdef SWIFT_UDP_HAVE_MMSG
Result<size_t> UdpSocket::RecvGroTrain(int timeout_ms) {
  // One recvmsg returns one kernel-coalesced train: up to 64 equal-size
  // datagrams from one sender, contiguous in the slot, stride announced by
  // the UDP_GRO cmsg. Carving the segments as slices keeps them zero-copy —
  // they alias the train's bytes exactly where the kernel wrote them.
  EnsureArenaSlots(1);
  const size_t base = recv_arena_used_;
  sockaddr_in addr{};
  iovec iov{recv_arena_.data() + base, kGroSlot};
  char control[CMSG_SPACE(sizeof(int))];
  msghdr msg{};
  ssize_t n;
  // Optimistic order, as in the recvmmsg path: drain first, poll only when
  // the queue is empty, then try once more.
  for (bool waited = false;; waited = true) {
    do {
      msg = msghdr{};
      msg.msg_name = &addr;
      msg.msg_namelen = sizeof(addr);
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      n = ::recvmsg(fd_, &msg, MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      break;
    }
    if (waited) {
      return TimedOutError("no datagram within the timeout");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      return IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (ready == 0) {
      return TimedOutError("no datagram within the timeout");
    }
  }
  if (n < 0) {
    return UnavailableError(std::string("recvmsg: ") + std::strerror(errno));
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    return UnavailableError("socket shut down");
  }
  int gro_segment = 0;
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr; cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
      std::memcpy(&gro_segment, CMSG_DATA(cm), sizeof(gro_segment));
    }
  }
  const size_t len = static_cast<size_t>(n);
  const size_t stride = gro_segment > 0 ? static_cast<size_t>(gro_segment)
                                        : std::max<size_t>(len, 1);
  const size_t count = std::max<size_t>(1, (len + stride - 1) / stride);
  const bool kernel_truncated = (msg.msg_flags & MSG_TRUNC) != 0;
  const UdpEndpoint from = UdpEndpoint::FromSockaddr(addr);
  Metrics().recv_batch_size->Record(static_cast<double>(count));
  const uint64_t recv_ns = TraceNowNs();
  for (size_t i = 0; i < count; ++i) {
    const size_t offset = i * stride;
    ReceivedDatagram d;
    d.data = recv_arena_.Slice(base + offset, std::min(stride, len - offset));
    d.from = from;
    d.recv_ns = recv_ns;
    // The slot fits any UDP datagram, so kernel truncation is out of the
    // picture in practice — but a single datagram over the protocol's
    // per-datagram limit must surface exactly as it did when the 16 KiB
    // buffer cut it: flagged garbage, never a short payload.
    d.truncated = kernel_truncated || d.data.size() > kMaxDatagram;
    if (d.truncated) {
      Metrics().truncated_datagrams->Increment();
    }
    pending_rx_.push_back(std::move(d));
  }
  recv_arena_used_ = base + Align8(len);
  return count;
}
#else
Result<size_t> UdpSocket::RecvGroTrain(int) {
  return UnimplementedError("UDP GRO requires Linux");
}
#endif

Result<UdpSocket::ReceivedDatagram> UdpSocket::RecvFromKernel(int timeout_ms) {
  if (fd_ < 0 || shutdown_.load(std::memory_order_acquire)) {
    return UnavailableError("socket closed");
  }
  // A batched receive may have queued more of a GRO train than its caller
  // took; hand those out (in arrival order) before touching the kernel, and
  // keep using the train path once GRO is on — the plain 16 KiB recvmsg
  // below would mis-flag a coalesced train as one truncated datagram.
  for (;;) {
    static thread_local std::vector<ReceivedDatagram> scratch;
    scratch.clear();
    if (TakePending(1, scratch) > 0) {
      ReceivedDatagram d = std::move(scratch.front());
      if (d.truncated) {
        return MessageTooLargeError("datagram exceeded the receive limit (truncated)");
      }
      return d;
    }
    if (!gro_enabled_) {
      break;
    }
    auto train = RecvGroTrain(timeout_ms);
    if (!train.ok()) {
      return train.status();
    }
  }
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    return IoError(std::string("poll: ") + std::strerror(errno));
  }
  if (ready == 0) {
    return TimedOutError("no datagram within the timeout");
  }
  EnsureArenaSlots(1);
  sockaddr_in addr{};
  iovec iov{recv_arena_.data() + recv_arena_used_, kMaxDatagram};
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  const ssize_t n = ::recvmsg(fd_, &msg, 0);
  if (n < 0) {
    return UnavailableError(std::string("recvmsg: ") + std::strerror(errno));
  }
  if (shutdown_.load(std::memory_order_acquire)) {
    return UnavailableError("socket shut down");
  }
  Metrics().recv_batch_size->Record(1.0);
  if (msg.msg_flags & MSG_TRUNC) {
    // The kernel cut the datagram to fit our buffer. Delivering the short
    // payload silently would hand reassembly a plausible-looking fragment;
    // surface it as a distinct, ignorable error instead.
    Metrics().truncated_datagrams->Increment();
    return MessageTooLargeError("datagram exceeded the receive buffer (truncated)");
  }
  ReceivedDatagram out;
  out.data = recv_arena_.Slice(recv_arena_used_, static_cast<size_t>(n));
  // Keep successive datagrams' payloads 8-byte aligned within the block.
  recv_arena_used_ += Align8(static_cast<size_t>(n));
  out.from = UdpEndpoint::FromSockaddr(addr);
  out.recv_ns = TraceNowNs();
  return out;
}

Result<size_t> UdpSocket::RecvBatchKernel(int timeout_ms, size_t max_batch,
                                          std::vector<ReceivedDatagram>& out) {
  out.clear();
  if (fd_ < 0 || shutdown_.load(std::memory_order_acquire)) {
    return UnavailableError("socket closed");
  }
  if (max_batch == 0) {
    max_batch = 1;
  }
  // Overflow from an earlier GRO train first — those datagrams already
  // arrived and must be delivered in order.
  if (TakePending(max_batch, out) > 0) {
    return out.size();
  }

#ifdef SWIFT_UDP_HAVE_MMSG
  // Try GRO exactly once, on the first genuinely batched receive: sockets
  // whose callers only ever ask for one datagram at a time (the measured
  // per-datagram baseline, the mediator's request loop) keep the plain
  // kernel path.
  if (!gro_attempted_ && max_batch > 1) {
    gro_attempted_ = true;
    const int one = 1;
    gro_enabled_ = ::setsockopt(fd_, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
  }
  if (gro_enabled_) {
    auto train = RecvGroTrain(timeout_ms);
    if (!train.ok()) {
      return train.status();
    }
    TakePending(max_batch, out);
    return out.size();
  }
  if (max_batch > 1) {
    // Carve one fixed slot per datagram up front: recvmmsg needs every iovec
    // before any length is known. The tail of the last slot is reclaimed
    // below; the gap inside earlier slots is the price of one syscall for
    // the whole batch, bounded by the block size and freed with the block.
    const size_t slots = std::min({max_batch, kMaxBatch, EnsureArenaSlots(max_batch)});
    const size_t base = recv_arena_used_;
    // Scratch is reused across calls and sockets: one thread owns the
    // receive side of any socket, so per-thread reuse is race-free and the
    // hot path does no allocation.
    static thread_local std::vector<mmsghdr> hdrs;
    static thread_local std::vector<iovec> iovs;
    static thread_local std::vector<sockaddr_in> addrs;
    if (hdrs.size() < slots) {
      hdrs.resize(slots);
      iovs.resize(slots);
      addrs.resize(slots);
    }
    for (size_t i = 0; i < slots; ++i) {
      iovs[i] = {recv_arena_.data() + base + i * kMaxDatagram, kMaxDatagram};
      hdrs[i].msg_hdr = msghdr{};
      hdrs[i].msg_hdr.msg_name = &addrs[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
      hdrs[i].msg_len = 0;
    }
    // Optimistic order: try the non-blocking drain first — under load data
    // is already queued and the whole batch costs one syscall. Fall back to
    // one poll() wait, then try once more (MSG_DONTWAIT throughout so a
    // spurious or raced wakeup cannot block waiting to fill the batch).
    int n;
    for (bool waited = false;; waited = true) {
      do {
        n = ::recvmmsg(fd_, hdrs.data(), slots, MSG_DONTWAIT, nullptr);
      } while (n < 0 && errno == EINTR);
      if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        break;
      }
      if (waited) {
        return TimedOutError("no datagram within the timeout");
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready < 0) {
        return IoError(std::string("poll: ") + std::strerror(errno));
      }
      if (ready == 0) {
        return TimedOutError("no datagram within the timeout");
      }
    }
    if (n < 0) {
      return UnavailableError(std::string("recvmmsg: ") + std::strerror(errno));
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return UnavailableError("socket shut down");
    }
    Metrics().recv_batch_size->Record(static_cast<double>(n));
    out.reserve(static_cast<size_t>(n));
    const uint64_t recv_ns = TraceNowNs();
    for (int i = 0; i < n; ++i) {
      ReceivedDatagram d;
      d.data = recv_arena_.Slice(base + static_cast<size_t>(i) * kMaxDatagram, hdrs[i].msg_len);
      d.from = UdpEndpoint::FromSockaddr(addrs[i]);
      d.recv_ns = recv_ns;
      d.truncated = (hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
      if (d.truncated) {
        Metrics().truncated_datagrams->Increment();
      }
      out.push_back(std::move(d));
    }
    // All but the last slot stay carved at full stride (their slices pin the
    // block anyway); the unused tail of the last slot is reusable.
    recv_arena_used_ =
        base + (static_cast<size_t>(n) - 1) * kMaxDatagram + Align8(hdrs[n - 1].msg_len);
    return static_cast<size_t>(n);
  }
#endif

  // Fallback / batch-of-one path: exactly the per-datagram baseline, one
  // recvmsg per datagram, truncation surfaced via the flag for API parity.
  auto received = RecvFromKernel(timeout_ms);
  if (!received.ok()) {
    if (received.code() == StatusCode::kMessageTooLarge) {
      ReceivedDatagram d;
      d.truncated = true;
      out.push_back(std::move(d));
      return size_t{1};
    }
    return received.status();
  }
  out.push_back(*std::move(received));
  return size_t{1};
}

bool UdpSocket::TakeDueHeld(ReceivedDatagram* out) {
  if (chaos_held_.empty()) {
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < chaos_held_.size(); ++i) {
    if (chaos_held_[i].release <= now) {
      *out = std::move(chaos_held_[i].datagram);
      // The datagram "arrives" now: chaos models network delay, so the
      // kernel-exit stamp moves to the release instant (queueing before the
      // fault does not count against server-side budgets).
      out->recv_ns = TraceNowNs();
      chaos_held_[i] = std::move(chaos_held_.back());
      chaos_held_.pop_back();
      return true;
    }
  }
  return false;
}

bool UdpSocket::NextChaosWaitMs(std::chrono::steady_clock::time_point start, int timeout_ms,
                                int* wait_ms) const {
  const auto now = std::chrono::steady_clock::now();
  int64_t wait = -1;  // forever
  if (timeout_ms >= 0) {
    const int64_t elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start).count();
    wait = static_cast<int64_t>(timeout_ms) - elapsed;
    if (wait <= 0) {
      return false;  // the caller's budget is spent; held datagrams keep
    }
  }
  for (const HeldDatagram& held : chaos_held_) {
    // +1 rounds up so the poll does not wake a hair before the release.
    const int64_t until = std::max<int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(held.release - now).count() + 1,
        0);
    if (wait < 0 || until < wait) {
      wait = until;
    }
  }
  *wait_ms = static_cast<int>(std::min<int64_t>(wait, INT_MAX));
  return true;
}

int UdpSocket::NextChaosReleaseMs() const {
  if (chaos_held_.empty()) {
    return -1;
  }
  const auto now = std::chrono::steady_clock::now();
  int64_t nearest = INT_MAX;
  for (const HeldDatagram& held : chaos_held_) {
    const int64_t until = std::max<int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(held.release - now).count() + 1,
        0);
    nearest = std::min(nearest, until);
  }
  return static_cast<int>(nearest);
}

Result<UdpSocket::ReceivedDatagram> UdpSocket::RecvFrom(int timeout_ms) {
  if (chaos_ == nullptr) {
    return RecvFromKernel(timeout_ms);
  }
  const auto start = std::chrono::steady_clock::now();
  bool swept_kernel = false;
  for (;;) {
    ReceivedDatagram held;
    if (TakeDueHeld(&held)) {
      return held;
    }
    int wait_ms = 0;
    if (!NextChaosWaitMs(start, timeout_ms, &wait_ms)) {
      // A zero (or spent) budget still gets one nonblocking kernel sweep —
      // event-loop callers poll(2) first and drain with timeout 0, and the
      // kernel path honours that contract.
      if (swept_kernel) {
        return TimedOutError("no datagram within the timeout");
      }
      wait_ms = 0;
    }
    swept_kernel = true;
    auto received = RecvFromKernel(wait_ms);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut) {
        continue;  // a held release may be due, or the caller's budget spent
      }
      return received.status();
    }
    const ChaosDirector::Verdict verdict = chaos_->OnRecv(received->from.port);
    switch (verdict.action) {
      case ChaosDirector::Action::kDrop:
        continue;
      case ChaosDirector::Action::kDelay:
        chaos_held_.push_back({*std::move(received),
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(verdict.delay_ms)});
        continue;
      case ChaosDirector::Action::kDuplicate: {
        // The copy aliases the same arena block — no payload bytes move.
        ReceivedDatagram copy = *received;
        chaos_held_.push_back({std::move(copy), std::chrono::steady_clock::now()});
        return *std::move(received);
      }
      case ChaosDirector::Action::kDeliver:
        return *std::move(received);
    }
  }
}

Result<size_t> UdpSocket::RecvBatch(int timeout_ms, size_t max_batch,
                                    std::vector<ReceivedDatagram>& out) {
  if (chaos_ == nullptr) {
    return RecvBatchKernel(timeout_ms, max_batch, out);
  }
  out.clear();
  if (max_batch == 0) {
    max_batch = 1;
  }
  const auto start = std::chrono::steady_clock::now();
  // Chaos classification re-batches through scratch so drops and delays
  // never leave holes in the caller's vector.
  static thread_local std::vector<ReceivedDatagram> raw;
  bool swept_kernel = false;
  for (;;) {
    ReceivedDatagram held;
    while (out.size() < max_batch && TakeDueHeld(&held)) {
      out.push_back(std::move(held));
    }
    if (!out.empty()) {
      return out.size();
    }
    int wait_ms = 0;
    if (!NextChaosWaitMs(start, timeout_ms, &wait_ms)) {
      // One nonblocking kernel sweep even on a zero/spent budget (see
      // RecvFrom): timeout-0 drains from an event loop must not go deaf.
      if (swept_kernel) {
        return TimedOutError("no datagram within the timeout");
      }
      wait_ms = 0;
    }
    swept_kernel = true;
    auto received = RecvBatchKernel(wait_ms, max_batch, raw);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut) {
        continue;
      }
      return received.status();
    }
    for (ReceivedDatagram& d : raw) {
      if (d.truncated) {
        // Flagged garbage either way; chaos adds nothing to it.
        out.push_back(std::move(d));
        continue;
      }
      const ChaosDirector::Verdict verdict = chaos_->OnRecv(d.from.port);
      switch (verdict.action) {
        case ChaosDirector::Action::kDrop:
          break;
        case ChaosDirector::Action::kDelay:
          chaos_held_.push_back({std::move(d),
                                 std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(verdict.delay_ms)});
          break;
        case ChaosDirector::Action::kDuplicate:
          out.push_back(d);
          out.push_back(std::move(d));
          break;
        case ChaosDirector::Action::kDeliver:
          out.push_back(std::move(d));
          break;
      }
    }
    raw.clear();
    if (!out.empty()) {
      return out.size();
    }
  }
}

void UdpSocket::SetChaos(std::shared_ptr<ChaosDirector> chaos) { chaos_ = std::move(chaos); }

void UdpSocket::Shutdown() {
  // shutdown(2) does not wake pollers on unconnected UDP sockets; instead
  // set the poison flag and kick the socket with a self-addressed datagram.
  shutdown_.store(true, std::memory_order_release);
  if (fd_ >= 0 && local_port_ != 0) {
    sockaddr_in self = UdpEndpoint::Loopback(local_port_).ToSockaddr();
    uint8_t wake = 0;
    (void)::sendto(fd_, &wake, 1, 0, reinterpret_cast<sockaddr*>(&self), sizeof(self));
  }
}

void UdpSocket::SetLossProbability(double p, uint64_t seed) {
  loss_probability_ = p;
  loss_rng_.emplace(seed);
}

}  // namespace swift
