// The real-socket storage agent: the paper's §3.1 server, faithfully — now
// scaled across cores.
//
// "Each Swift storage agent waits for open requests on a well-known ip
//  port. When an open request is received, a new (secondary) thread of
//  control is established along with a private port for further
//  communication about that file with the client. This thread remains
//  active and the communications channel remains open until the file is
//  closed by the client; the primary thread always continues to await new
//  open requests."
//
// Scale-out: the well-known port is served by `Options::shards` SO_REUSEPORT
// listener sockets, one drain thread per shard, each owning its own receive
// arena (inside its UdpSocket), its own session list, and its own metric
// shard — the kernel's flow hash spreads clients across shards and the hot
// path never crosses cores. Shard and session loops move datagrams in
// recvmmsg/sendmmsg batches (Options::socket_batch; 1 = the per-datagram
// baseline). Wire format and session behaviour are unchanged:
//
//   * READ_REQ → one DATA packet per request; "the storage agents fulfilled
//     the packet requests as soon as they were received". No agent-side read
//     state: the client re-requests lost packets.
//   * WRITE_REQ (announce) sets up reassembly for a burst of WRITE_DATA
//     packets; on completion the agent writes to its backing store and sends
//     WRITE_ACK. WRITE_REQ (query) answers WRITE_ACK if complete, else
//     WRITE_NACK listing the missing packets — "each storage agent checks
//     the packets it receives against the packets it was expecting and
//     either acknowledges receipt of all packets or sends requests for
//     packets lost."
//   * CLOSE → CLOSE_ACK; "the storage agents release the ports and
//     extinguish the threads dedicated to handling requests on that file."

#ifndef SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_
#define SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/agent/storage_agent.h"
#include "src/agent/udp_socket.h"
#include "src/proto/message.h"

namespace swift {

class Counter;

class UdpAgentServer {
 public:
  struct Options {
    // 0 = kernel-assigned (tests); kDefaultAgentPort for a deployment.
    uint16_t port = 0;
    // Outgoing loss injection for recovery tests.
    double loss_probability = 0;
    uint64_t loss_seed = 1;
    // Fault-injection director installed on every server socket — the
    // well-known-port shards and each per-session socket (see
    // src/agent/chaos.h). Nullptr = no chaos.
    std::shared_ptr<ChaosDirector> chaos;
    // SO_REUSEPORT listener sockets on the well-known port, one drain thread
    // (and receive arena, session list, metric shard) each. 1 = the classic
    // single primary thread. If the platform cannot deliver the full count,
    // the server degrades to however many sockets it could bind.
    uint32_t shards = 1;
    // Datagrams moved per socket syscall in the shard and session loops
    // (recvmmsg/sendmmsg). 1 = the per-datagram baseline.
    uint32_t socket_batch = 16;
  };

  // Serves `core` (not owned) until Stop()/destruction.
  UdpAgentServer(StorageAgentCore* core, Options options);
  ~UdpAgentServer();

  // Binds the well-known port (all shards) and starts the drain threads.
  Status Start();
  // Stops all threads and closes all ports. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  size_t active_session_count();

  // Well-known-port datagrams handled per shard since Start() — the
  // SO_REUSEPORT distribution, for tests and tooling. Index = shard.
  std::vector<uint64_t> shard_datagram_counts() const;
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Session {
    std::unique_ptr<UdpSocket> socket;
    std::thread thread;
    std::atomic<bool> closed{false};  // set by the session thread as it exits
  };

  // A served OPEN, kept so a retransmitted copy (its reply lost or merely
  // slower than the client's RTO) gets the same reply instead of a second
  // session that no client would ever close.
  struct RecentOpen {
    UdpEndpoint client;
    uint32_t request_id = 0;
    std::string object_name;
    const Session* session = nullptr;
    Message reply;
  };

  // One SO_REUSEPORT listener: socket + drain thread + private session list
  // + its slice of the metrics. Nothing here is touched by another shard.
  struct Shard {
    uint32_t index = 0;
    UdpSocket socket;
    std::thread thread;
    std::atomic<uint64_t> datagrams{0};
    Counter* registry_datagrams = nullptr;  // swift_agent_shard<i>_datagrams_total
    std::mutex sessions_mutex;
    std::vector<std::unique_ptr<Session>> sessions;
    std::deque<RecentOpen> recent_opens;  // shard thread only, newest last
  };

  void ShardLoop(Shard* shard);
  void SessionLoop(Session* session, uint32_t handle, uint32_t shard_index);
  void HandleOpen(Shard* shard, const Message& request, const UdpEndpoint& client,
                  std::vector<OutgoingDatagram>& replies);

  StorageAgentCore* core_;
  Options options_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace swift

#endif  // SWIFT_SRC_AGENT_UDP_AGENT_SERVER_H_
