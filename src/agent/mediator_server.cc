#include "src/agent/mediator_server.h"

#include <string>

#include "src/core/mediator_wire.h"
#include "src/proto/packetizer.h"
#include "src/util/logging.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace swift {

namespace {

// The service thread polls with a short timeout so the liveness/lease sweep
// runs even when no traffic arrives, and Stop() stays prompt.
constexpr int kServicePollMs = 50;

constexpr size_t kReplyCacheEntries = 64;

// A snapshot must fit one datagram; truncate on a line boundary and mark the
// cut (same convention as the agent's STATS reply).
void FitTextPayload(std::string& text) {
  if (text.size() <= kMaxPacketPayload) {
    return;
  }
  static constexpr char kMarker[] = "# truncated\n";
  size_t cut = text.rfind('\n', kMaxPacketPayload - sizeof(kMarker));
  text.resize(cut == std::string::npos ? 0 : cut + 1);
  text += kMarker;
}

// State-changing RPCs go through the reply cache; read-only ones do not.
bool Cacheable(MessageType type) {
  switch (type) {
    case MessageType::kRegisterAgent:
    case MessageType::kOpenSession:
    case MessageType::kCloseSession:
    case MessageType::kReportFailure:
    case MessageType::kRenewLease:
      return true;
    default:
      return false;
  }
}

}  // namespace

UdpMediatorServer::UdpMediatorServer(Options options)
    : options_(options), mediator_(options.mediator) {}

UdpMediatorServer::~UdpMediatorServer() { Stop(); }

Status UdpMediatorServer::Start() {
  SWIFT_RETURN_IF_ERROR(socket_.BindLoopback(options_.port));
  socket_.SetChaos(options_.chaos);
  port_ = socket_.local_port();
  epoch_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServiceLoop(); });
  SWIFT_LOG(INFO) << "storage mediator listening on udp port " << port_;
  return OkStatus();
}

void UdpMediatorServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  socket_.Shutdown();
  if (thread_.joinable()) {
    thread_.join();
  }
}

uint64_t UdpMediatorServer::NowMs() const {
  if (options_.now_ms) {
    return options_.now_ms();
  }
  // +1 so a registration in the very first millisecond still has a nonzero
  // heartbeat timestamp.
  return 1 + static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                       std::chrono::steady_clock::now() - epoch_)
                                       .count());
}

void UdpMediatorServer::ServiceLoop() {
  while (running_.load(std::memory_order_acquire)) {
    mediator_.AdvanceTime(NowMs());
    auto received = socket_.RecvFrom(kServicePollMs);
    if (!received.ok()) {
      if (received.code() == StatusCode::kTimedOut ||
          received.code() == StatusCode::kMessageTooLarge) {
        continue;  // timeout, or a truncated datagram treated as lost
      }
      break;  // socket shut down
    }
    auto message = Message::Decode(received->data);
    if (!message.ok()) {
      continue;  // corrupted or stray datagram: behave as if lost
    }

    // A traced control RPC gets a mediator-side span: recv wait + service.
    const bool traced = message->trace.sampled() && GetTraceMode() != TraceMode::kOff;
    const uint64_t proc_ns = traced ? TraceNowNs() : 0;
    auto record_span = [&] {
      if (!traced) {
        return;
      }
      Span span;
      span.trace_id = message->trace.trace_id;
      span.parent_span_id = message->trace.parent_span_id;
      span.span_id = NextSpanId();
      span.node = TraceNodeId();
      span.request_id = message->request_id;
      span.op = static_cast<uint8_t>(message->type);
      span.sampled = message->trace.sampled();
      span.start_ns = received->recv_ns != 0 ? received->recv_ns : proc_ns;
      if (received->recv_ns != 0 && proc_ns > received->recv_ns) {
        span.events.push_back(
            {SpanStage::kRecvBatch, received->recv_ns, proc_ns - received->recv_ns, 0});
      }
      span.end_ns = TraceNowNs();
      span.events.push_back({SpanStage::kService, proc_ns, span.end_ns - proc_ns, 0});
      SpanStore::Global().Submit(std::move(span));
    };

    if (message->type == MessageType::kStats || message->type == MessageType::kTrace) {
      // Bulk read-only replies ship packetized (seq/total trains reassembled
      // by the client) and bypass the reply cache: each request re-renders.
      BufferSlice body =
          message->type == MessageType::kStats
              ? BufferSlice::CopyOf(MetricRegistry::Global().RenderText())
              : BufferSlice::FromVector(
                    SerializeSpans(SpanStore::Global().Snapshot(message->size)));
      const MessageType reply_type = message->type == MessageType::kStats
                                         ? MessageType::kStatsReply
                                         : MessageType::kTraceReply;
      for (const Message& packet :
           SplitIntoPackets(reply_type, 0, message->request_id, 0, std::move(body))) {
        Message::Encoded parts = packet.EncodeParts();
        (void)socket_.SendTo(received->from, parts.header, parts.payload.span());
      }
      record_span();
      continue;
    }

    const bool cacheable = Cacheable(message->type);
    if (cacheable) {
      bool replayed = false;
      for (const CachedReply& cached : reply_cache_) {
        if (cached.ipv4_host == received->from.ipv4_host && cached.port == received->from.port &&
            cached.request_id == message->request_id) {
          (void)socket_.SendTo(received->from, cached.datagram);
          replayed = true;
          break;
        }
      }
      if (replayed) {
        continue;
      }
    }

    Message reply = Dispatch(*message, NowMs());
    reply.request_id = message->request_id;
    std::vector<uint8_t> datagram = reply.Encode();
    (void)socket_.SendTo(received->from, datagram);
    if (cacheable) {
      if (reply_cache_.size() >= kReplyCacheEntries) {
        reply_cache_.pop_front();
      }
      reply_cache_.push_back(CachedReply{received->from.ipv4_host, received->from.port,
                                         message->request_id, std::move(datagram)});
    }
    record_span();
  }
}

Message UdpMediatorServer::Dispatch(const Message& request, uint64_t now_ms) {
  Message reply;

  auto fail = [&reply](MessageType type, const Status& status) {
    reply.type = type;
    reply.status_code = static_cast<uint32_t>(status.code());
  };
  auto grant_for = [this](const TransferPlan& plan) {
    SessionGrant grant;
    grant.plan = plan;
    grant.agent_ports.reserve(plan.agent_ids.size());
    for (uint32_t id : plan.agent_ids) {
      grant.agent_ports.push_back(mediator_.AgentPort(id));
    }
    grant.lease_ms = mediator_.SessionLeaseMs(plan.session_id);
    // Coarse admission knob: the session's reserved rate, split evenly
    // across its stripe columns, seeds each channel's congestion window and
    // bounds its pacer on the client side.
    if (plan.reserved_rate > 0 && !plan.agent_ids.empty()) {
      grant.channel_rate_cap =
          plan.reserved_rate / static_cast<double>(plan.agent_ids.size());
    }
    return grant;
  };

  switch (request.type) {
    case MessageType::kRegisterAgent: {
      AgentCapacity capacity;
      capacity.data_rate = request.rate;
      capacity.storage_bytes = request.size;
      const uint32_t agent_id = mediator_.RegisterAgent(capacity, request.data_port, now_ms);
      reply.type = MessageType::kRegisterAgentAck;
      reply.handle = agent_id;
      SWIFT_LOG(INFO) << "agent " << agent_id << " registered (port " << request.data_port
                      << ", " << request.rate << " B/s, " << request.size << " B)";
      break;
    }
    case MessageType::kHeartbeat: {
      Status status = mediator_.NoteHeartbeat(request.handle, request.rate, now_ms);
      reply.type = MessageType::kHeartbeatAck;
      reply.status_code = static_cast<uint32_t>(status.code());
      break;
    }
    case MessageType::kOpenSession: {
      auto decoded = DecodeSessionRequest(request.payload);
      if (!decoded.ok()) {
        fail(MessageType::kSessionPlan, decoded.status());
        break;
      }
      auto plan = mediator_.OpenSession(*decoded, now_ms);
      if (!plan.ok()) {
        fail(MessageType::kSessionPlan, plan.status());
        break;
      }
      reply.type = MessageType::kSessionPlan;
      reply.payload = BufferSlice::FromVector(EncodeSessionGrant(grant_for(*plan)));
      SWIFT_LOG(INFO) << "session " << plan->session_id << " opened for '"
                      << decoded->object_name << "' across " << plan->agent_ids.size()
                      << " agents";
      break;
    }
    case MessageType::kCloseSession: {
      Status status = mediator_.CloseSession(request.size);
      reply.type = MessageType::kCloseSessionAck;
      reply.status_code = static_cast<uint32_t>(status.code());
      break;
    }
    case MessageType::kRenewLease: {
      Status status = mediator_.RenewLease(request.size, now_ms);
      reply.type = MessageType::kRenewLeaseAck;
      reply.status_code = static_cast<uint32_t>(status.code());
      if (status.ok()) {
        reply.size = mediator_.SessionLeaseMs(request.size);
      }
      break;
    }
    case MessageType::kReportFailure: {
      uint32_t failed_agent = request.handle;
      if (request.data_port != 0) {
        auto by_port = mediator_.AgentByPort(request.data_port);
        if (!by_port.ok()) {
          fail(MessageType::kRevisedPlan, by_port.status());
          break;
        }
        failed_agent = *by_port;
      }
      auto revised = mediator_.ReplanSession(request.size, failed_agent);
      if (!revised.ok()) {
        fail(MessageType::kRevisedPlan, revised.status());
        break;
      }
      reply.type = MessageType::kRevisedPlan;
      reply.payload = BufferSlice::FromVector(EncodeSessionGrant(grant_for(*revised)));
      SWIFT_LOG(INFO) << "session " << request.size << " replanned around dead agent "
                      << failed_agent;
      break;
    }
    case MessageType::kListSessions: {
      std::string text;
      for (const auto& info : mediator_.ListSessions(now_ms)) {
        text += "session=" + std::to_string(info.session_id) + " object=" + info.object_name +
                " agents=";
        for (size_t i = 0; i < info.agent_ids.size(); ++i) {
          text += (i ? "," : "") + std::to_string(info.agent_ids[i]);
        }
        text += " k=" + std::to_string(info.data_agents) +
                " m=" + std::to_string(info.parity_units);
        text += " rate_bps=" + std::to_string(static_cast<uint64_t>(info.reserved_rate));
        text += info.leased ? " lease_ms=" + std::to_string(info.lease_remaining_ms)
                            : " lease_ms=-";
        text += "\n";
      }
      FitTextPayload(text);
      reply.type = MessageType::kSessionList;
      reply.payload = BufferSlice::CopyOf(text);
      break;
    }
    default:
      fail(MessageType::kError, InvalidArgumentError("not a mediator request"));
      break;
  }
  return reply;
}

}  // namespace swift
