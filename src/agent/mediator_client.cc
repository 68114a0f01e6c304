#include "src/agent/mediator_client.h"

#include <chrono>
#include <map>
#include <vector>

#include "src/core/mediator_wire.h"
#include "src/util/trace.h"

namespace swift {

namespace {

// Reconstructs a Status from a wire status code. The message is synthesized
// client-side (the wire carries only the code).
Status StatusFromWire(uint32_t code, const char* what) {
  if (code == 0) {
    return OkStatus();
  }
  if (code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return InternalError(std::string(what) + ": mediator sent an unknown status code");
  }
  return Status(static_cast<StatusCode>(code),
                std::string(what) + " rejected by the mediator (" +
                    StatusCodeName(static_cast<StatusCode>(code)) + ")");
}

int MsUntil(std::chrono::steady_clock::time_point deadline) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - std::chrono::steady_clock::now())
                              .count());
}

}  // namespace

MediatorClient::MediatorClient(uint16_t mediator_port, RetryPolicy policy)
    : mediator_port_(mediator_port), policy_(policy) {}

Result<Message> MediatorClient::Call(Message request) {
  if (!socket_.valid()) {
    SWIFT_RETURN_IF_ERROR(socket_.BindLoopback(0));
  }
  // One request id for every retransmission of this call: the server's reply
  // cache makes the retries at-most-once.
  request.request_id = next_request_id_++;

  // Trace the call as a child of the ambient context (or a fresh root when
  // this RPC is the whole operation, e.g. `swift_cli session list`). The
  // mediator's span parents onto this one.
  TraceContext parent = CurrentTraceContext();
  const bool had_parent = parent.present();
  if (!had_parent) {
    parent = NewRootContext();
  }
  const bool traced = parent.sampled() && GetTraceMode() != TraceMode::kOff;
  Span span;
  if (traced) {
    span.trace_id = parent.trace_id;
    span.parent_span_id = parent.parent_span_id;
    span.span_id = NextSpanId();
    span.node = TraceNodeId();
    span.request_id = request.request_id;
    span.op = static_cast<uint8_t>(request.type);
    span.sampled = parent.sampled();
    span.start_ns = TraceNowNs();
    if (!had_parent) {
      span.label = MessageTypeName(request.type);
    }
    request.trace = TraceContext{parent.trace_id, span.span_id, parent.flags};
  }

  const std::vector<uint8_t> datagram = request.Encode();
  const UdpEndpoint mediator = UdpEndpoint::Loopback(mediator_port_);

  int timeout_ms = policy_.FirstTimeout();
  int timeouts_seen = 0;
  uint64_t first_send_ns = 0;
  while (true) {
    if (traced) {
      if (first_send_ns == 0) {
        first_send_ns = TraceNowNs();
      } else {
        // A retransmission of the same request id — same trace, new event.
        span.events.push_back({SpanStage::kRetransmit, TraceNowNs(), 0,
                               static_cast<uint32_t>(timeouts_seen)});
      }
    }
    SWIFT_RETURN_IF_ERROR(socket_.SendTo(mediator, datagram));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (int remaining = timeout_ms; remaining > 0; remaining = MsUntil(deadline)) {
      auto received = socket_.RecvFrom(remaining);
      if (!received.ok()) {
        if (received.code() == StatusCode::kTimedOut) {
          break;
        }
        if (received.code() == StatusCode::kMessageTooLarge) {
          continue;  // truncated datagram: behave as if lost, keep waiting
        }
        return received.status();
      }
      auto reply = Message::Decode(received->data);
      if (!reply.ok() || reply->request_id != request.request_id) {
        continue;  // corrupt or stale datagram: keep waiting
      }
      if (traced) {
        span.end_ns = TraceNowNs();
        span.events.push_back({SpanStage::kWire, first_send_ns, span.end_ns - first_send_ns, 0});
        span.status = reply->status_code;
        SpanStore::Global().Submit(std::move(span));
      }
      return *std::move(reply);
    }
    ++timeouts_seen;
    if (policy_.Exhausted(timeouts_seen)) {
      if (traced) {
        span.end_ns = TraceNowNs();
        span.status = static_cast<uint32_t>(StatusCode::kUnavailable);
        SpanStore::Global().Submit(std::move(span));
      }
      return UnavailableError("mediator on port " + std::to_string(mediator_port_) +
                              " unreachable after retries");
    }
    timeout_ms = policy_.NextTimeout(timeout_ms);
  }
}

Result<std::vector<uint8_t>> MediatorClient::CallCollect(Message request,
                                                         MessageType reply_type) {
  if (!socket_.valid()) {
    SWIFT_RETURN_IF_ERROR(socket_.BindLoopback(0));
  }
  request.request_id = next_request_id_++;
  const std::vector<uint8_t> datagram = request.Encode();
  const UdpEndpoint mediator = UdpEndpoint::Loopback(mediator_port_);

  // The reply is a seq/total packet train. The server re-renders the whole
  // snapshot on every retransmission of the request, so a total that changes
  // mid-collection means the packets on hand mix two snapshots: start over.
  std::map<uint16_t, std::vector<uint8_t>> parts;
  uint16_t total = 0;

  int timeout_ms = policy_.FirstTimeout();
  int timeouts_seen = 0;
  while (true) {
    SWIFT_RETURN_IF_ERROR(socket_.SendTo(mediator, datagram));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    bool progressed = false;
    for (int remaining = timeout_ms; remaining > 0; remaining = MsUntil(deadline)) {
      auto received = socket_.RecvFrom(remaining);
      if (!received.ok()) {
        if (received.code() == StatusCode::kTimedOut) {
          break;
        }
        if (received.code() == StatusCode::kMessageTooLarge) {
          continue;  // truncated datagram: behave as if lost, keep waiting
        }
        return received.status();
      }
      auto reply = Message::Decode(received->data);
      if (!reply.ok() || reply->request_id != request.request_id) {
        continue;  // corrupt or stale datagram: keep waiting
      }
      if (reply->type == MessageType::kError) {
        return StatusFromWire(reply->status_code, "collect");
      }
      if (reply->type != reply_type) {
        continue;
      }
      if (reply->status_code != 0) {
        return StatusFromWire(reply->status_code, "collect");
      }
      if (reply->total != total) {
        parts.clear();
        total = reply->total;
      }
      if (reply->seq < total) {
        parts.emplace(reply->seq,
                      std::vector<uint8_t>(reply->payload.begin(), reply->payload.end()));
        progressed = true;
      }
      if (total != 0 && parts.size() == total) {
        std::vector<uint8_t> bytes;
        for (auto& [seq, part] : parts) {
          bytes.insert(bytes.end(), part.begin(), part.end());
        }
        return bytes;
      }
    }
    // Partial progress earns a fresh retry budget, like the transport's ops.
    timeouts_seen = progressed ? 1 : timeouts_seen + 1;
    if (policy_.Exhausted(timeouts_seen)) {
      return UnavailableError("mediator on port " + std::to_string(mediator_port_) +
                              " unreachable after retries");
    }
    timeout_ms = policy_.NextTimeout(timeout_ms);
  }
}

Result<uint32_t> MediatorClient::RegisterAgent(const AgentCapacity& capacity,
                                               uint16_t data_port) {
  Message request;
  request.type = MessageType::kRegisterAgent;
  request.rate = capacity.data_rate;
  request.size = capacity.storage_bytes;
  request.data_port = data_port;
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  SWIFT_RETURN_IF_ERROR(StatusFromWire(reply.status_code, "register"));
  if (reply.type != MessageType::kRegisterAgentAck) {
    return InternalError("unexpected reply to register: " + std::string(MessageTypeName(reply.type)));
  }
  return reply.handle;
}

Status MediatorClient::Heartbeat(uint32_t agent_id, double load_rate) {
  Message request;
  request.type = MessageType::kHeartbeat;
  request.handle = agent_id;
  request.rate = load_rate;
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  return StatusFromWire(reply.status_code, "heartbeat");
}

Result<SessionGrant> MediatorClient::CallForGrant(Message request) {
  const char* what =
      request.type == MessageType::kOpenSession ? "open session" : "failure report";
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  SWIFT_RETURN_IF_ERROR(StatusFromWire(reply.status_code, what));
  if (reply.type != MessageType::kSessionPlan && reply.type != MessageType::kRevisedPlan) {
    return InternalError(std::string("unexpected reply type: ") + MessageTypeName(reply.type));
  }
  return DecodeSessionGrant(reply.payload);
}

Result<SessionGrant> MediatorClient::OpenSession(const StorageMediator::SessionRequest& request) {
  Message message;
  message.type = MessageType::kOpenSession;
  message.payload = BufferSlice::FromVector(EncodeSessionRequest(request));
  return CallForGrant(std::move(message));
}

Status MediatorClient::CloseSession(uint64_t session_id) {
  Message request;
  request.type = MessageType::kCloseSession;
  request.size = session_id;
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  return StatusFromWire(reply.status_code, "close session");
}

Status MediatorClient::RenewLease(uint64_t session_id) {
  Message request;
  request.type = MessageType::kRenewLease;
  request.size = session_id;
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  return StatusFromWire(reply.status_code, "renew lease");
}

Result<SessionGrant> MediatorClient::ReportFailure(uint64_t session_id, uint32_t failed_agent) {
  Message request;
  request.type = MessageType::kReportFailure;
  request.size = session_id;
  request.handle = failed_agent;
  request.data_port = 0;  // 0 ⇒ handle carries the failed agent id
  return CallForGrant(std::move(request));
}

Result<SessionGrant> MediatorClient::ReportFailureByPort(uint64_t session_id,
                                                         uint16_t failed_port) {
  Message request;
  request.type = MessageType::kReportFailure;
  request.size = session_id;
  request.data_port = failed_port;
  return CallForGrant(std::move(request));
}

Result<std::string> MediatorClient::ListSessions() {
  Message request;
  request.type = MessageType::kListSessions;
  SWIFT_ASSIGN_OR_RETURN(Message reply, Call(std::move(request)));
  SWIFT_RETURN_IF_ERROR(StatusFromWire(reply.status_code, "list sessions"));
  return std::string(reply.payload.begin(), reply.payload.end());
}

Result<std::string> MediatorClient::FetchStats() {
  Message request;
  request.type = MessageType::kStats;
  SWIFT_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         CallCollect(std::move(request), MessageType::kStatsReply));
  return std::string(bytes.begin(), bytes.end());
}

Result<std::vector<Span>> MediatorClient::FetchSpans(uint64_t trace_filter) {
  Message request;
  request.type = MessageType::kTrace;
  request.size = trace_filter;
  SWIFT_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         CallCollect(std::move(request), MessageType::kTraceReply));
  return ParseSpans(bytes);
}

}  // namespace swift
