#include "src/agent/udp_agent_server.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/proto/packetizer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"
#include "src/util/wire_buffer.h"

namespace swift {

namespace {

// Shard and session threads poll with a short timeout so Stop() is prompt
// even if the wake datagram races.
constexpr int kSessionPollMs = 200;

Message ErrorReply(const Message& request, const Status& status) {
  Message reply;
  reply.type = MessageType::kError;
  reply.handle = request.handle;
  reply.request_id = request.request_id;
  reply.status_code = static_cast<uint32_t>(status.code());
  return reply;
}

// Wire-level registry metrics shared by every agent server in the process.
struct ServerMetrics {
  Counter* datagrams_in;
  Counter* datagrams_out;
  Counter* nacks_sent;
  Counter* stats_requests;
  Counter* trace_requests;
  Counter* overload_sheds;
  HistogramMetric* read_service_us;
  HistogramMetric* write_service_us;
};

const ServerMetrics& Metrics() {
  static const ServerMetrics metrics = [] {
    MetricRegistry& registry = MetricRegistry::Global();
    return ServerMetrics{
        registry.GetCounter("swift_agent_datagrams_in_total"),
        registry.GetCounter("swift_agent_datagrams_out_total"),
        registry.GetCounter("swift_agent_nacks_sent_total"),
        registry.GetCounter("swift_agent_stats_requests_total"),
        registry.GetCounter("swift_agent_trace_requests_total"),
        registry.GetCounter("swift_agent_overload_shed_total"),
        registry.GetHistogram("swift_agent_read_service_us"),
        registry.GetHistogram("swift_agent_write_service_us"),
    };
  }();
  return metrics;
}

// True when the request's deadline budget (a RELATIVE µs value — clocks are
// never compared across nodes) expired while the datagram sat in kernel
// socket buffers or the receive batch. The client has already written this
// attempt off, so serving it is pure waste ahead of fresher work: the server
// sheds it with kOverloaded, which the client treats as backpressure (jitter
// retry, no congestion-window decrease). recv_ns is the kernel-drain stamp
// on the TraceNowNs clock; 0 (untracked) never sheds.
bool BudgetExpired(const Message& m, uint64_t recv_ns) {
  if (m.deadline_us == 0 || recv_ns == 0) {
    return false;
  }
  const uint64_t now_ns = TraceNowNs();
  return now_ns > recv_ns && (now_ns - recv_ns) / 1000 > m.deadline_us;
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Starts a server-side span as the child of the context a request carried.
// `shard_tag` is 1-based (0 = unsharded) so merged timelines attribute shard
// 0's work distinguishably from an unsharded server.
Span NewServerSpan(const Message& m, uint32_t shard_tag, uint64_t recv_ns) {
  Span span;
  span.trace_id = m.trace.trace_id;
  span.parent_span_id = m.trace.parent_span_id;
  span.span_id = NextSpanId();
  span.node = TraceNodeId();
  span.shard = shard_tag;
  span.request_id = m.request_id;
  span.op = static_cast<uint8_t>(m.type);
  span.sampled = m.trace.sampled();
  span.start_ns = recv_ns != 0 ? recv_ns : TraceNowNs();
  return span;
}

// Encodes `message` for `to` and appends it to the reply queue; the caller
// flushes the queue with one SendBatch per drained receive batch.
// `echo_ts_us` is the request's tx timestamp: when nonzero the reply carries
// the timestamp-echo extension (DESIGN.md §15) — the client's stamp
// reflected for RTT, plus this server's own send instant for one-way delay.
void QueueReply(std::vector<OutgoingDatagram>& replies, const UdpEndpoint& to, Message message,
                uint64_t echo_ts_us) {
  if (echo_ts_us != 0) {
    message.echo_ts_us = echo_ts_us;
    message.tx_ts_us = std::max<uint64_t>(1, TraceNowNs() / 1000);
  }
  Metrics().datagrams_out->Increment();
  if (message.type == MessageType::kWriteNack) {
    Metrics().nacks_sent->Increment();
  }
  // Header + payload stay two separate pieces: a DATA reply's payload goes
  // from the block-cache slice into sendmmsg(2)'s iovec without ever being
  // flattened.
  Message::Encoded parts = message.EncodeParts();
  replies.push_back(OutgoingDatagram{to, std::move(parts.header), std::move(parts.payload)});
}

// Flushes the reply queue in chunks of `batch_limit` datagrams, so batch=1
// stays an honest per-datagram baseline (one syscall per reply). Send errors
// are absorbed as wire loss in the socket layer; clients retransmit.
void FlushReplies(UdpSocket& socket, const std::vector<OutgoingDatagram>& replies,
                  size_t batch_limit) {
  const std::span<const OutgoingDatagram> all(replies);
  for (size_t off = 0; off < all.size(); off += batch_limit) {
    (void)socket.SendBatch(all.subspan(off, std::min(batch_limit, all.size() - off)));
  }
}

}  // namespace

UdpAgentServer::UdpAgentServer(StorageAgentCore* core, Options options)
    : core_(core), options_(options) {}

UdpAgentServer::~UdpAgentServer() { Stop(); }

Status UdpAgentServer::Start() {
  const uint32_t wanted = std::max<uint32_t>(1, options_.shards);
  auto first = std::make_unique<Shard>();
  first->index = 0;
  // SO_REUSEPORT must be set on the very first bind too, or later shards
  // cannot join the port.
  SWIFT_RETURN_IF_ERROR(first->socket.BindLoopback(options_.port, /*reuseport=*/wanted > 1));
  port_ = first->socket.local_port();
  shards_.push_back(std::move(first));
  for (uint32_t i = 1; i < wanted; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    Status bound = shard->socket.BindLoopback(port_, /*reuseport=*/true);
    if (!bound.ok()) {
      // Platform can't deliver the full shard count (no SO_REUSEPORT, fd
      // limits): degrade to what bound rather than failing the server.
      SWIFT_LOG(WARNING) << "shard " << i << " bind failed (" << bound.message()
                      << "); running with " << shards_.size() << " shard(s)";
      break;
    }
    shards_.push_back(std::move(shard));
  }
  MetricRegistry& registry = MetricRegistry::Global();
  for (auto& shard : shards_) {
    shard->registry_datagrams = registry.GetCounter(
        "swift_agent_shard" + std::to_string(shard->index) + "_datagrams_total");
    if (options_.loss_probability > 0) {
      // Decorrelate the shards' drop patterns.
      shard->socket.SetLossProbability(options_.loss_probability,
                                       options_.loss_seed + shard->index * 1000003ULL);
    }
    shard->socket.SetChaos(options_.chaos);
  }
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { ShardLoop(raw); });
  }
  SWIFT_LOG(INFO) << "storage agent listening on udp port " << port_ << " with "
                  << shards_.size() << " shard(s)";
  return OkStatus();
}

void UdpAgentServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  for (auto& shard : shards_) {
    shard->socket.Shutdown();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  for (auto& shard : shards_) {
    std::vector<std::unique_ptr<Session>> sessions;
    {
      std::lock_guard<std::mutex> lock(shard->sessions_mutex);
      sessions = std::move(shard->sessions);
      shard->sessions.clear();
    }
    for (auto& session : sessions) {
      session->socket->Shutdown();
      if (session->thread.joinable()) {
        session->thread.join();
      }
    }
  }
}

size_t UdpAgentServer::active_session_count() {
  size_t total = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->sessions_mutex);
    total += shard->sessions.size();
  }
  return total;
}

std::vector<uint64_t> UdpAgentServer::shard_datagram_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->datagrams.load(std::memory_order_relaxed));
  }
  return counts;
}

void UdpAgentServer::ShardLoop(Shard* shard) {
  const size_t batch_limit = std::max<uint32_t>(1, options_.socket_batch);
  std::vector<UdpSocket::ReceivedDatagram> batch;
  std::vector<OutgoingDatagram> replies;
  while (running_.load(std::memory_order_acquire)) {
    auto received = shard->socket.RecvBatch(kSessionPollMs, batch_limit, batch);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut) {
        continue;
      }
      break;  // socket shut down
    }
    replies.clear();
    for (const auto& datagram : batch) {
      if (datagram.truncated) {
        continue;  // kernel cut it: garbage, behave as if lost
      }
      auto message = Message::Decode(datagram.data);
      if (!message.ok()) {
        continue;  // corrupted or stray datagram: behave as if lost
      }
      Metrics().datagrams_in->Increment();
      shard->datagrams.fetch_add(1, std::memory_order_relaxed);
      shard->registry_datagrams->Increment();
      if (BudgetExpired(*message, datagram.recv_ns)) {
        Metrics().overload_sheds->Increment();
        QueueReply(replies, datagram.from,
                   ErrorReply(*message, OverloadedError("deadline expired in queue")),
                   message->tx_ts_us);
        continue;
      }
      // Well-known-port requests are single datagrams; a traced one gets a
      // self-contained span (recv-batch wait + handler time) right here.
      const bool traced = message->trace.sampled() && GetTraceMode() != TraceMode::kOff;
      const uint64_t proc_ns = traced ? TraceNowNs() : 0;
      if (message->type == MessageType::kOpen) {
        HandleOpen(shard, *message, datagram.from, replies);
      } else if (message->type == MessageType::kStats) {
        Metrics().stats_requests->Increment();
        // The full registry, packetized: STATS_REPLY is a bulk reply family,
        // so a many-KiB snapshot ships as a seq/total train instead of being
        // truncated to one datagram.
        const std::string text = MetricRegistry::Global().RenderText();
        for (const Message& packet :
             SplitIntoPackets(MessageType::kStatsReply, 0, message->request_id, 0,
                              BufferSlice::CopyOf(text))) {
          QueueReply(replies, datagram.from, packet, message->tx_ts_us);
        }
      } else if (message->type == MessageType::kTrace) {
        Metrics().trace_requests->Increment();
        // `size` carries the trace-id filter (0 = all recent spans).
        const std::vector<Span> spans = SpanStore::Global().Snapshot(message->size);
        for (const Message& packet :
             SplitIntoPackets(MessageType::kTraceReply, 0, message->request_id, 0,
                              BufferSlice::FromVector(SerializeSpans(spans)))) {
          QueueReply(replies, datagram.from, packet, message->tx_ts_us);
        }
      } else if (message->type == MessageType::kRemove) {
        Message reply;
        reply.request_id = message->request_id;
        Status status = core_->Remove(message->object_name);
        if (status.ok()) {
          reply.type = MessageType::kRemoveAck;
        } else {
          reply.type = MessageType::kError;
          reply.status_code = static_cast<uint32_t>(status.code());
        }
        QueueReply(replies, datagram.from, reply, message->tx_ts_us);
      } else if (message->type == MessageType::kScrub) {
        Message reply;
        reply.type = MessageType::kScrubReply;
        reply.request_id = message->request_id;
        auto report = core_->Scrub(message->object_name);
        if (!report.ok()) {
          reply.status_code = static_cast<uint32_t>(report.code());
        } else {
          reply.size = report->blocks_checked;
          // Payload: (u64 offset, u64 length) per corrupt range, then a u8
          // truncation flag. Clip to one datagram; the client re-scrubs after
          // repairing what fit.
          constexpr size_t kMaxRanges = (kMaxPacketPayload - 1) / 16;
          const size_t count = std::min(report->corrupt_ranges.size(), kMaxRanges);
          WireWriter w(count * 16 + 1);
          for (size_t i = 0; i < count; ++i) {
            w.PutU64(report->corrupt_ranges[i].offset);
            w.PutU64(report->corrupt_ranges[i].length);
          }
          const bool truncated = report->truncated || count < report->corrupt_ranges.size();
          w.PutU8(truncated ? 1 : 0);
          reply.payload = BufferSlice::FromVector(w.Take());
        }
        QueueReply(replies, datagram.from, reply, message->tx_ts_us);
      }
      if (traced) {
        Span span = NewServerSpan(*message, shard->index + 1,
                                  datagram.recv_ns != 0 ? datagram.recv_ns : proc_ns);
        if (datagram.recv_ns != 0 && proc_ns > datagram.recv_ns) {
          span.events.push_back(
              {SpanStage::kRecvBatch, datagram.recv_ns, proc_ns - datagram.recv_ns, 0});
        }
        span.end_ns = TraceNowNs();
        span.events.push_back({SpanStage::kService, proc_ns, span.end_ns - proc_ns, 0});
        SpanStore::Global().Submit(std::move(span));
      }
    }
    if (!replies.empty()) {
      FlushReplies(shard->socket, replies, batch_limit);
    }
  }
}

void UdpAgentServer::HandleOpen(Shard* shard, const Message& request,
                                const UdpEndpoint& client,
                                std::vector<OutgoingDatagram>& replies) {
  for (const RecentOpen& recent : shard->recent_opens) {
    if (recent.request_id == request.request_id && recent.client == client &&
        recent.object_name == request.object_name &&
        !recent.session->closed.load(std::memory_order_acquire)) {
      QueueReply(replies, client, recent.reply, request.tx_ts_us);
      return;
    }
  }

  Message reply;
  reply.type = MessageType::kOpenReply;
  reply.request_id = request.request_id;

  auto opened = core_->Open(request.object_name, request.open_flags);
  if (!opened.ok()) {
    reply.status_code = static_cast<uint32_t>(opened.code());
    QueueReply(replies, client, reply, request.tx_ts_us);
    return;
  }

  // Private port + dedicated thread for this file (§3.1). The session lives
  // on the shard whose listener accepted the open, so its bookkeeping never
  // crosses shards.
  auto session = std::make_unique<Session>();
  session->socket = std::make_unique<UdpSocket>();
  Status bind_status = session->socket->BindLoopback(0);
  if (!bind_status.ok()) {
    (void)core_->Close(opened->handle);
    reply.status_code = static_cast<uint32_t>(bind_status.code());
    QueueReply(replies, client, reply, request.tx_ts_us);
    return;
  }
  if (options_.loss_probability > 0) {
    session->socket->SetLossProbability(options_.loss_probability,
                                        options_.loss_seed * 31 + opened->handle);
  }
  session->socket->SetChaos(options_.chaos);

  reply.status_code = 0;
  reply.handle = opened->handle;
  reply.data_port = session->socket->local_port();
  reply.size = opened->size;

  Session* raw = session.get();
  const uint32_t handle = opened->handle;
  const uint32_t shard_index = shard->index;
  session->thread = std::thread(
      [this, raw, handle, shard_index] { SessionLoop(raw, handle, shard_index); });
  {
    std::lock_guard<std::mutex> lock(shard->sessions_mutex);
    shard->sessions.push_back(std::move(session));
  }
  constexpr size_t kRecentOpens = 64;
  shard->recent_opens.push_back({client, request.request_id, request.object_name, raw, reply});
  if (shard->recent_opens.size() > kRecentOpens) {
    shard->recent_opens.pop_front();
  }
  QueueReply(replies, client, reply, request.tx_ts_us);
}

void UdpAgentServer::SessionLoop(Session* session, uint32_t handle, uint32_t shard_index) {
  UdpSocket* socket = session->socket.get();
  // In-progress write requests on this file, keyed by request id.
  struct PendingWrite {
    std::unique_ptr<Reassembler> reassembler;
    uint64_t offset = 0;
    bool committed = false;
  };
  std::map<uint32_t, PendingWrite> writes;

  // A client op (one request id) arrives as many datagrams spread across
  // receive batches; its server-side story is aggregated here and submitted
  // as ONE span — per-stage sums, not one span per datagram. Submission
  // happens when the session goes idle (poll timeout), when the map is
  // culled, or when the session closes; timestamps inside the span are
  // recorded live, so late submission costs nothing.
  struct RequestTrace {
    Span span;
    uint64_t recv_wait_ns = 0;      // sum: kernel receive → processing start
    uint64_t service_start_ns = 0;  // first handler start
    uint64_t service_ns = 0;        // sum of handler time minus store time
    uint64_t store_start_ns = 0;    // first backing-store call start
    uint64_t store_ns = 0;          // sum of backing-store call time
    uint64_t reply_start_ns = 0;    // first reply-flush start
    uint64_t reply_ns = 0;          // sum of reply-flush time
  };
  std::map<uint32_t, RequestTrace> traces;
  std::vector<uint32_t> touched;  // request ids handled in this batch

  auto submit_trace = [](RequestTrace& t) {
    Span& s = t.span;
    if (t.recv_wait_ns != 0) {
      s.events.push_back({SpanStage::kRecvBatch, s.start_ns, t.recv_wait_ns, 0});
    }
    if (t.service_ns != 0) {
      s.events.push_back({SpanStage::kService, t.service_start_ns, t.service_ns, 0});
    }
    if (t.store_ns != 0) {
      s.events.push_back({SpanStage::kStore, t.store_start_ns, t.store_ns, 0});
    }
    if (t.reply_ns != 0) {
      s.events.push_back({SpanStage::kReply, t.reply_start_ns, t.reply_ns, 0});
    }
    SpanStore::Global().Submit(std::move(s));
  };
  auto submit_all_traces = [&] {
    for (auto& [id, t] : traces) {
      submit_trace(t);
    }
    traces.clear();
  };

  const size_t batch_limit = std::max<uint32_t>(1, options_.socket_batch);
  std::vector<UdpSocket::ReceivedDatagram> batch;
  std::vector<OutgoingDatagram> replies;

  auto commit_if_complete = [&](uint32_t request_id, PendingWrite& pending,
                                const UdpEndpoint& client, RequestTrace* trace,
                                uint64_t echo_ts_us) {
    if (!pending.reassembler->complete() || pending.committed) {
      return;
    }
    const auto service_start = std::chrono::steady_clock::now();
    const uint64_t store_begin_ns = trace != nullptr ? TraceNowNs() : 0;
    Status status = core_->Write(handle, pending.offset, pending.reassembler->data());
    if (trace != nullptr) {
      trace->store_ns += TraceNowNs() - store_begin_ns;
      if (trace->store_start_ns == 0) {
        trace->store_start_ns = store_begin_ns;
      }
    }
    Metrics().write_service_us->Record(ElapsedUs(service_start));
    Message reply;
    reply.handle = handle;
    reply.request_id = request_id;
    if (status.ok()) {
      pending.committed = true;
      reply.type = MessageType::kWriteAck;
    } else {
      reply.type = MessageType::kError;
      reply.status_code = static_cast<uint32_t>(status.code());
    }
    QueueReply(replies, client, reply, echo_ts_us);
  };

  bool closing = false;
  while (!closing && running_.load(std::memory_order_acquire)) {
    auto received = socket->RecvBatch(kSessionPollMs, batch_limit, batch);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut) {
        // Idle: every in-flight request has gone quiet for a poll interval;
        // ship its aggregated span so collectors see it promptly.
        submit_all_traces();
        continue;
      }
      break;
    }
    replies.clear();
    touched.clear();
    for (const auto& datagram : batch) {
      if (datagram.truncated) {
        continue;  // garbage: behave as if lost, the client retransmits
      }
      auto decoded = Message::Decode(datagram.data);
      if (!decoded.ok()) {
        continue;  // treat as lost
      }
      Metrics().datagrams_in->Increment();
      const Message& m = *decoded;
      const UdpEndpoint& client = datagram.from;

      // Shed expired queued work before any service or trace accounting.
      // kClose is exempt (releasing the handle must always go through), and
      // an expired WRITE_DATA packet is dropped silently — the write op's
      // query/NACK cycle resynchronizes, and one kOverloaded on the query
      // beats a reply storm mirroring the whole burst.
      if (m.type != MessageType::kClose && BudgetExpired(m, datagram.recv_ns)) {
        Metrics().overload_sheds->Increment();
        if (m.type != MessageType::kWriteData) {
          QueueReply(replies, client,
                     ErrorReply(m, OverloadedError("deadline expired in queue")), m.tx_ts_us);
        }
        continue;
      }

      RequestTrace* trace = nullptr;
      uint64_t handler_begin_ns = 0;
      uint64_t store_before_ns = 0;
      if (m.trace.sampled() && GetTraceMode() != TraceMode::kOff) {
        handler_begin_ns = TraceNowNs();
        auto [slot, fresh] = traces.try_emplace(m.request_id);
        trace = &slot->second;
        if (fresh) {
          trace->span = NewServerSpan(
              m, shard_index + 1,
              datagram.recv_ns != 0 ? datagram.recv_ns : handler_begin_ns);
        }
        if (datagram.recv_ns != 0 && handler_begin_ns > datagram.recv_ns) {
          trace->recv_wait_ns += handler_begin_ns - datagram.recv_ns;
        }
        if (trace->service_start_ns == 0) {
          trace->service_start_ns = handler_begin_ns;
        }
        store_before_ns = trace->store_ns;
        touched.push_back(m.request_id);
      }

      switch (m.type) {
        case MessageType::kReadReq: {
          // One DATA packet per request, served immediately.
          const auto service_start = std::chrono::steady_clock::now();
          const uint64_t store_begin_ns = trace != nullptr ? TraceNowNs() : 0;
          auto data = core_->Read(handle, m.offset, m.read_length);
          if (trace != nullptr) {
            trace->store_ns += TraceNowNs() - store_begin_ns;
            if (trace->store_start_ns == 0) {
              trace->store_start_ns = store_begin_ns;
            }
          }
          Metrics().read_service_us->Record(ElapsedUs(service_start));
          if (!data.ok()) {
            QueueReply(replies, client, ErrorReply(m, data.status()), m.tx_ts_us);
            break;
          }
          Message reply;
          reply.type = MessageType::kData;
          reply.handle = handle;
          reply.request_id = m.request_id;
          reply.seq = m.seq;
          reply.total = m.total;
          reply.offset = m.offset;
          reply.payload = std::move(*data);
          QueueReply(replies, client, reply, m.tx_ts_us);
          break;
        }
        case MessageType::kWriteReq: {
          auto it = writes.find(m.request_id);
          if (it == writes.end()) {
            PendingWrite pending;
            pending.offset = m.offset;
            pending.reassembler =
                std::make_unique<Reassembler>(m.request_id, m.offset, m.read_length, m.total);
            it = writes.emplace(m.request_id, std::move(pending)).first;
          }
          if (m.window == 1) {  // query
            if (it->second.reassembler->complete()) {
              commit_if_complete(m.request_id, it->second, client, trace, m.tx_ts_us);
              if (it->second.committed) {
                Message ack;
                ack.type = MessageType::kWriteAck;
                ack.handle = handle;
                ack.request_id = m.request_id;
                QueueReply(replies, client, ack, m.tx_ts_us);
              }
            } else {
              Message nack;
              nack.type = MessageType::kWriteNack;
              nack.handle = handle;
              nack.request_id = m.request_id;
              nack.missing_seqs = it->second.reassembler->MissingSeqs();
              QueueReply(replies, client, nack, m.tx_ts_us);
            }
          }
          break;
        }
        case MessageType::kWriteData: {
          auto it = writes.find(m.request_id);
          if (it == writes.end()) {
            break;  // data before announce: client's query will resynchronize
          }
          if (it->second.reassembler->Accept(m).ok()) {
            commit_if_complete(m.request_id, it->second, client, trace, m.tx_ts_us);
          }
          // Bound session memory: drop committed requests once a newer request
          // id appears (duplicated ACKs are regenerated from the query path).
          if (writes.size() > 8) {
            for (auto drop = writes.begin(); drop != writes.end();) {
              if (drop->second.committed && drop->first != m.request_id) {
                drop = writes.erase(drop);
              } else {
                ++drop;
              }
            }
          }
          break;
        }
        case MessageType::kStat: {
          auto size = core_->Stat(handle);
          if (!size.ok()) {
            QueueReply(replies, client, ErrorReply(m, size.status()), m.tx_ts_us);
            break;
          }
          Message reply;
          reply.type = MessageType::kStatReply;
          reply.handle = handle;
          reply.request_id = m.request_id;
          reply.size = *size;
          QueueReply(replies, client, reply, m.tx_ts_us);
          break;
        }
        case MessageType::kTruncate: {
          Status status = core_->Truncate(handle, m.size);
          if (!status.ok()) {
            QueueReply(replies, client, ErrorReply(m, status), m.tx_ts_us);
            break;
          }
          Message reply;
          reply.type = MessageType::kTruncateAck;
          reply.handle = handle;
          reply.request_id = m.request_id;
          QueueReply(replies, client, reply, m.tx_ts_us);
          break;
        }
        case MessageType::kClose: {
          Message reply;
          reply.type = MessageType::kCloseAck;
          reply.handle = handle;
          reply.request_id = m.request_id;
          QueueReply(replies, client, reply, m.tx_ts_us);
          (void)core_->Close(handle);
          // Extinguish this thread after the ACK flushes; the port dies with
          // the session. Later datagrams in this batch belong to a dead
          // handle and are dropped, exactly as if they had raced the close.
          closing = true;
          break;
        }
        default:
          break;
      }
      if (trace != nullptr) {
        const uint64_t handler_end_ns = TraceNowNs();
        const uint64_t handler_ns = handler_end_ns - handler_begin_ns;
        const uint64_t store_ns = trace->store_ns - store_before_ns;
        trace->service_ns += handler_ns > store_ns ? handler_ns - store_ns : 0;
        trace->span.end_ns = handler_end_ns;
      }
      if (closing) {
        break;
      }
    }
    if (!replies.empty()) {
      const uint64_t flush_begin_ns = touched.empty() ? 0 : TraceNowNs();
      FlushReplies(*socket, replies, batch_limit);
      if (!touched.empty()) {
        // Charge the batch's reply flush to every traced request it served;
        // the intervals overlap, which the timeline's union-based attribution
        // handles (replies for concurrent requests really do share syscalls).
        const uint64_t flush_end_ns = TraceNowNs();
        for (uint32_t request_id : touched) {
          auto it = traces.find(request_id);
          if (it == traces.end()) {
            continue;
          }
          it->second.reply_ns += flush_end_ns - flush_begin_ns;
          if (it->second.reply_start_ns == 0) {
            it->second.reply_start_ns = flush_begin_ns;
          }
          it->second.span.end_ns = flush_end_ns;
        }
      }
    }
    // Bound span-aggregation memory the same way `writes` is bounded: once
    // the map outgrows the in-flight window, ship everything except the
    // requests this batch touched (they may still be receiving datagrams).
    if (traces.size() > 32) {
      for (auto it = traces.begin(); it != traces.end();) {
        if (std::find(touched.begin(), touched.end(), it->first) == touched.end()) {
          submit_trace(it->second);
          it = traces.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  submit_all_traces();
  session->closed.store(true, std::memory_order_release);
}

}  // namespace swift
