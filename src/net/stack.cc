#include "src/net/stack.h"

#include <cassert>

#include "src/prof/profiler.h"

namespace cionet {

NetStack::NetStack(FramePort* port, ciobase::SimClock* clock, Config config)
    : port_(port),
      clock_(clock),
      config_(config),
      rng_(config.seed),
      arp_(clock, port->mac(), config.ip),
      reassembler_(clock) {}

NetStack::Socket* NetStack::Find(SocketId id) {
  auto it = sockets_.find(id.value);
  return it == sockets_.end() ? nullptr : &it->second;
}

const NetStack::Socket* NetStack::Find(SocketId id) const {
  auto it = sockets_.find(id.value);
  return it == sockets_.end() ? nullptr : &it->second;
}

SocketId NetStack::NewSocket(Socket socket) {
  SocketId id{next_socket_id_++};
  Socket& stored = sockets_.emplace(id.value, std::move(socket)).first->second;
  if (stored.type == SocketType::kTcpConnection) {
    live_conns_.emplace(id.value, &stored);
  }
  return id;
}

void NetStack::SyncTimeWait(uint32_t id, Socket& socket) {
  if (!socket.close_requested) {
    return;
  }
  uint64_t key;
  if (socket.conn->state() == TcpState::kTimeWait) {
    key = socket.conn->time_wait_deadline_ns();
  } else if (socket.in_time_wait && socket.conn->Defunct()) {
    key = 0;  // reset or aborted while waiting: due at the next Poll
  } else {
    return;
  }
  if (socket.in_time_wait) {
    if (key == socket.time_wait_key) {
      return;
    }
    time_wait_.erase({socket.time_wait_key, id});
  } else {
    live_conns_.erase(id);
    socket.in_time_wait = true;
  }
  socket.time_wait_key = key;
  time_wait_.emplace(key, id);
}

bool NetStack::PortInUse(uint16_t port) const {
  for (const auto& [id, socket] : sockets_) {
    if (socket.local_port == port) {
      return true;
    }
  }
  return false;
}

uint16_t NetStack::AllocatePort() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    uint16_t port = next_ephemeral_++;
    if (next_ephemeral_ == 0) {
      next_ephemeral_ = 49152;
    }
    if (port >= 49152 && !PortInUse(port)) {
      return port;
    }
  }
  return 0;
}

Ipv4Address NetStack::NextHop(Ipv4Address dst) const {
  bool on_link = (dst.value & config_.netmask.value) ==
                 (config_.ip.value & config_.netmask.value);
  if (on_link || config_.gateway.value == 0) {
    return dst;
  }
  return config_.gateway;
}

// --- Output path -------------------------------------------------------------

void NetStack::SendFrameTo(MacAddress dst, uint16_t ether_type,
                           ciobase::ByteSpan payload) {
  ciobase::Buffer frame = tx_arena_.Acquire(0);
  EthernetHeader eth{dst, port_->mac(), ether_type};
  eth.Serialize(frame);
  ciobase::Append(frame, payload);
  ++stats_.frames_tx;
  // Staged: FlushTxBatch hands the whole run to the port in one SendFrames
  // call when the outermost batch closes (at once when none is open), after
  // any frames the port refused earlier.
  tx_staged_.push_back(std::move(frame));
  if (tx_batch_depth_ == 0) {
    FlushTxBatch();
  }
}

void NetStack::FlushTxBatch() {
  if (tx_staged_.empty()) {
    return;
  }
  tx_spans_.clear();
  for (const ciobase::Buffer& frame : tx_staged_) {
    tx_spans_.emplace_back(frame.data(), frame.size());
  }
  size_t offset = 0;
  while (offset < tx_spans_.size()) {
    ciobase::Result<size_t> sent = port_->SendFrames(
        std::span<const ciobase::ByteSpan>(tx_spans_).subspan(offset));
    if (!sent.ok() &&
        sent.status().code() == ciobase::StatusCode::kInvalidArgument) {
      ++stats_.tx_dropped;  // a frame the port can never take
      ++offset;
      continue;
    }
    if (!sent.ok() || *sent == 0) {
      break;  // ring full or link down: the rest waits for the next flush
    }
    offset += *sent;
  }
  for (size_t i = 0; i < offset; ++i) {
    tx_arena_.Release(std::move(tx_staged_[i]));
  }
  tx_staged_.erase(tx_staged_.begin(),
                   tx_staged_.begin() + static_cast<long>(offset));
  // What the port refused stays staged, oldest first, and leads the next
  // flush (the next Poll at the latest) — across ring resets too. Dropping
  // it would leave TCP to replay it after a backed-off RTO. Past
  // kTxRetryFrames the newest are dropped, and retransmission covers them.
  stats_.tx_deferred += tx_staged_.size();
  while (tx_staged_.size() > kTxRetryFrames) {
    ++stats_.tx_dropped;
    tx_arena_.Release(std::move(tx_staged_.back()));
    tx_staged_.pop_back();
  }
}

void NetStack::SendIpv4(Ipv4Address dst, uint8_t protocol,
                        ciobase::ByteSpan payload) {
  Ipv4Header header;
  header.identification = ip_ident_++;
  header.protocol = protocol;
  header.src = config_.ip;
  header.dst = dst;
  std::vector<ciobase::Buffer> packets =
      FragmentIpv4(header, payload, port_->mtu());

  Ipv4Address next_hop = NextHop(dst);
  std::optional<MacAddress> mac = arp_.Lookup(next_hop);
  for (auto& packet : packets) {
    if (mac.has_value()) {
      SendFrameTo(*mac, kEtherTypeIpv4, packet);
    } else {
      if (arp_pending_.size() < kMaxArpPending) {
        arp_pending_.push_back(
            PendingPacket{next_hop, kEtherTypeIpv4, std::move(packet)});
      }
      if (!arp_.RequestRecentlySent(next_hop)) {
        arp_.NoteRequestSent(next_hop);
        ciobase::Buffer request = arp_.MakeRequestFrame(next_hop);
        ++stats_.frames_tx;
        (void)SendOne(*port_, request);
      }
    }
  }
}

void NetStack::FlushArpPending(Ipv4Address resolved) {
  std::optional<MacAddress> mac = arp_.Lookup(resolved);
  if (!mac.has_value()) {
    return;
  }
  std::vector<PendingPacket> keep;
  for (auto& pending : arp_pending_) {
    if (pending.next_hop == resolved) {
      SendFrameTo(*mac, pending.ether_type, pending.payload);
    } else {
      keep.push_back(std::move(pending));
    }
  }
  arp_pending_ = std::move(keep);
}

// --- Input path ---------------------------------------------------------------

void NetStack::HandleFrame(ciobase::ByteSpan frame) {
  ++stats_.frames_rx;
  auto eth = EthernetHeader::Parse(frame);
  if (!eth.ok()) {
    ++stats_.parse_errors;
    return;
  }
  if (!(eth->dst == port_->mac()) && !eth->dst.IsBroadcast()) {
    return;  // not for us (promiscuous fabric delivered it anyway)
  }
  ciobase::ByteSpan payload = frame.subspan(kEthernetHeaderSize);
  if (eth->ether_type == kEtherTypeArp) {
    ++stats_.arp_rx;
    auto arp = ArpPacket::Parse(payload);
    std::optional<ciobase::Buffer> reply = arp_.HandlePacket(payload);
    if (reply.has_value()) {
      ++stats_.frames_tx;
      (void)SendOne(*port_, *reply);
    }
    if (arp.ok()) {
      FlushArpPending(arp->sender_ip);
    }
    return;
  }
  if (eth->ether_type == kEtherTypeIpv4) {
    HandleIpv4(payload);
    return;
  }
  // Unknown ethertype: dropped.
}

void NetStack::HandleIpv4(ciobase::ByteSpan packet) {
  auto header = Ipv4Header::Parse(packet);
  if (!header.ok()) {
    if (header.status().code() == ciobase::StatusCode::kTampered) {
      ++stats_.checksum_errors;
    } else {
      ++stats_.parse_errors;
    }
    return;
  }
  ++stats_.ipv4_rx;
  if (!(header->dst == config_.ip)) {
    return;  // not routed; we are a host, not a router
  }
  ciobase::ByteSpan payload =
      packet.subspan(kIpv4HeaderSize, header->total_length - kIpv4HeaderSize);
  std::optional<ReassembledDatagram> datagram =
      reassembler_.Add(*header, payload);
  if (!datagram.has_value()) {
    return;  // waiting for more fragments
  }
  switch (datagram->header.protocol) {
    case kIpProtoTcp:
      HandleTcp(datagram->header, datagram->payload);
      break;
    default:
      break;  // unsupported protocol
  }
}

void NetStack::SendRst(const Ipv4Header& ip, const TcpHeader& header,
                       size_t payload_size) {
  TcpHeader rst;
  rst.src_port = header.dst_port;
  rst.dst_port = header.src_port;
  rst.flags = kTcpFlagRst | kTcpFlagAck;
  if ((header.flags & kTcpFlagAck) != 0) {
    rst.seq = header.ack;
    rst.ack = 0;
    rst.flags = kTcpFlagRst;
  } else {
    rst.seq = 0;
    rst.ack = header.seq + static_cast<uint32_t>(payload_size) +
              (((header.flags & kTcpFlagSyn) != 0) ? 1 : 0);
  }
  ciobase::Buffer segment;
  rst.Serialize(segment);
  uint16_t checksum =
      TransportChecksum(config_.ip, ip.src, kIpProtoTcp, segment);
  ciobase::StoreBe16(segment.data() + 16, checksum);
  ++stats_.rst_sent;
  SendIpv4(ip.src, kIpProtoTcp, segment);
}

void NetStack::HandleTcp(const Ipv4Header& ip, ciobase::ByteSpan segment) {
  if (TransportChecksum(ip.src, ip.dst, kIpProtoTcp, segment) != 0) {
    ++stats_.checksum_errors;
    return;
  }
  auto header = TcpHeader::Parse(segment);
  if (!header.ok()) {
    ++stats_.parse_errors;
    return;
  }
  ++stats_.tcp_rx;
  ciobase::ByteSpan payload = segment.subspan(header->HeaderBytes());

  TcpEndpointId key{config_.ip, header->dst_port, ip.src, header->src_port};
  auto demux = tcp_demux_.find(key);
  if (demux != tcp_demux_.end()) {
    Socket* socket = Find(demux->second);
    if (socket != nullptr && socket->conn != nullptr) {
      socket->conn->OnSegment(*header, payload);
      FlushTcpOutput(*socket);
      SyncTimeWait(demux->second.value, *socket);
      return;
    }
  }

  // No connection: a SYN may match a listener.
  if ((header->flags & (kTcpFlagSyn | kTcpFlagAck | kTcpFlagRst)) ==
      kTcpFlagSyn) {
    for (auto& [id, socket] : sockets_) {
      if (socket.type == SocketType::kTcpListener &&
          socket.local_port == header->dst_port) {
        if (socket.accept_queue.size() >= config_.tcp_accept_backlog) {
          // Listener overflow: refuse now rather than queue without bound.
          // The RST gives the client a typed failure (kLinkReset from its
          // TcpReceive) instead of a silent SYN timeout.
          ++stats_.accept_overflows;
          SendRst(ip, *header, payload.size());
          return;
        }
        Socket conn_socket;
        conn_socket.type = SocketType::kTcpConnection;
        conn_socket.local_port = header->dst_port;
        uint16_t mss = static_cast<uint16_t>(port_->mtu() - 40);
        conn_socket.conn = std::make_unique<TcpConnection>(
            TcpConnection::PassiveOpen(clock_, key, mss, rng_.NextU32(),
                                       *header, config_.tcp_tuning));
        SocketId conn_id = NewSocket(std::move(conn_socket));
        tcp_demux_[key] = conn_id;
        Socket* listener = Find(SocketId{id});
        listener->accept_queue.push_back(conn_id);
        Socket* created = Find(conn_id);
        FlushTcpOutput(*created);
        return;
      }
    }
  }
  if ((header->flags & kTcpFlagRst) == 0) {
    ++stats_.no_socket_drops;
    SendRst(ip, *header, payload.size());
  }
}

void NetStack::FlushTcpOutput(Socket& socket) {
  if (socket.conn == nullptr) {
    return;
  }
  // Batch all segments this connection emits (data run, ACK + data, FIN
  // piggybacks) into one port SendFrames call — unless an outer batch (from
  // Poll) is already open, in which case they join it.
  ++tx_batch_depth_;
  for (ciobase::Buffer& segment : socket.conn->TakeOutput()) {
    SendIpv4(socket.conn->endpoints().remote_ip, kIpProtoTcp, segment);
  }
  if (--tx_batch_depth_ == 0) {
    FlushTxBatch();
  }
}

ciobase::Status NetStack::Poll() {
  CIO_PROF_SCOPE(prof_, "tcp.poll");
  ciobase::Status link = ciobase::OkStatus();
  // Everything one poll round emits — ACKs for a burst of received frames,
  // retransmits, window updates across sockets — leaves as one TX batch.
  ++tx_batch_depth_;
  // Drain the port in batches; each ReceiveFrames call touches the shared
  // ring once however many frames it returns.
  for (;;) {
    ciobase::Result<size_t> got = port_->ReceiveFrames(rx_batch_,
                                                       kRxBatchFrames);
    if (!got.ok()) {
      // kLinkReset: the transport reset + reattached; in-flight frames died
      // on the old ring but TCP retransmission replays them — the timers
      // below keep running. kTimedOut: the link is dead; surface it.
      if (got.status().code() == ciobase::StatusCode::kLinkReset) {
        ++stats_.link_resets;
      } else if (got.status().code() == ciobase::StatusCode::kTimedOut) {
        ++stats_.link_timeouts;
      }
      link = got.status();
      break;
    }
    for (size_t i = 0; i < *got; ++i) {
      HandleFrame(rx_batch_[i]);
    }
    if (*got < kRxBatchFrames) {
      break;
    }
  }
  // App-closed TIME_WAIT connections leave from the front of their table:
  // each is erased at the first Poll at or after its deadline.
  std::vector<uint32_t> defunct;
  const uint64_t now = clock_->now_ns();
  while (!time_wait_.empty() && time_wait_.begin()->first <= now) {
    defunct.push_back(time_wait_.begin()->second);
    time_wait_.erase(time_wait_.begin());
  }
  // Timers & output for every other connection.
  for (auto& [id, socket] : live_conns_) {
    ++stats_.tcp_conn_polls;
    socket->conn->PollTimers();
    FlushTcpOutput(*socket);
    if (socket->conn->Defunct() && socket->close_requested) {
      defunct.push_back(id);
    }
  }
  for (uint32_t id : defunct) {
    auto it = sockets_.find(id);
    tcp_demux_.erase(it->second.conn->endpoints());
    live_conns_.erase(id);
    sockets_.erase(it);
  }
  reassembler_.Expire();
  if (--tx_batch_depth_ == 0) {
    FlushTxBatch();
  }
  return link;
}

// --- TCP API -------------------------------------------------------------------

ciobase::Result<SocketId> NetStack::TcpListen(uint16_t port) {
  if (port == 0 || PortInUse(port)) {
    return ciobase::AlreadyExists("port invalid or in use");
  }
  Socket socket;
  socket.type = SocketType::kTcpListener;
  socket.local_port = port;
  return NewSocket(std::move(socket));
}

ciobase::Result<SocketId> NetStack::TcpConnect(Ipv4Address dst,
                                               uint16_t port) {
  uint16_t local_port = AllocatePort();
  if (local_port == 0) {
    return ciobase::ResourceExhausted("no ephemeral ports");
  }
  TcpEndpointId key{config_.ip, local_port, dst, port};
  Socket socket;
  socket.type = SocketType::kTcpConnection;
  socket.local_port = local_port;
  uint16_t mss = static_cast<uint16_t>(port_->mtu() - 40);
  socket.conn = std::make_unique<TcpConnection>(TcpConnection::ActiveOpen(
      clock_, key, mss, rng_.NextU32(), config_.tcp_tuning));
  SocketId id = NewSocket(std::move(socket));
  tcp_demux_[key] = id;
  FlushTcpOutput(*Find(id));
  return id;
}

ciobase::Result<SocketId> NetStack::TcpAccept(SocketId listener_id) {
  Socket* listener = Find(listener_id);
  if (listener == nullptr || listener->type != SocketType::kTcpListener) {
    return ciobase::NotFound("not a listener");
  }
  while (!listener->accept_queue.empty()) {
    SocketId id = listener->accept_queue.front();
    listener->accept_queue.pop_front();
    Socket* socket = Find(id);
    if (socket == nullptr || socket->conn == nullptr) {
      continue;  // connection died before accept
    }
    return id;
  }
  return ciobase::Unavailable("no pending connection");
}

ciobase::Result<size_t> NetStack::TcpSend(SocketId id,
                                          ciobase::ByteSpan data) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  auto result = socket->conn->Send(data);
  FlushTcpOutput(*socket);
  return result;
}

ciobase::Result<size_t> NetStack::TcpReceive(SocketId id,
                                             ciobase::MutableByteSpan out) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  auto result = socket->conn->Receive(out);
  FlushTcpOutput(*socket);  // window updates
  // Unified Status conventions: Ok(0) = nothing pending yet,
  // kFailedPrecondition = orderly EOF, kLinkReset = the connection died
  // (RST, retransmission exhaustion) and must be re-established.
  if (result.ok()) {
    if (*result == 0) {
      return ciobase::FailedPrecondition("orderly EOF");
    }
    return result;
  }
  switch (result.status().code()) {
    case ciobase::StatusCode::kUnavailable:
      return static_cast<size_t>(0);
    case ciobase::StatusCode::kFailedPrecondition:
      return ciobase::LinkReset(result.status().message());
    default:
      return result.status();
  }
}

ciobase::Status NetStack::TcpClose(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr) {
    return ciobase::NotFound("no such socket");
  }
  if (socket->type == SocketType::kTcpListener) {
    sockets_.erase(id.value);
    return ciobase::OkStatus();
  }
  if (socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP socket");
  }
  socket->conn->Close();
  socket->close_requested = true;
  FlushTcpOutput(*socket);
  return ciobase::OkStatus();
}

ciobase::Status NetStack::TcpAbort(SocketId id) {
  Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  socket->conn->Abort();
  socket->close_requested = true;
  FlushTcpOutput(*socket);
  SyncTimeWait(id.value, *socket);
  return ciobase::OkStatus();
}

ciobase::Result<TcpState> NetStack::GetTcpState(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->state();
}

ciobase::Result<TcpConnection::Stats> NetStack::GetTcpStats(
    SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->stats();
}

ciobase::Result<bool> NetStack::TcpReadable(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  // A failed or defunct connection is "readable": the next TcpReceive
  // reports the death (kLinkReset) or the EOF instead of blocking forever.
  return socket->conn->readable() || socket->conn->failed() ||
         socket->conn->Defunct();
}

ciobase::Result<size_t> NetStack::TcpSendSpace(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->send_space();
}

ciobase::Result<Ipv4Address> NetStack::GetTcpPeer(SocketId id) const {
  const Socket* socket = Find(id);
  if (socket == nullptr || socket->type != SocketType::kTcpConnection) {
    return ciobase::NotFound("not a TCP connection");
  }
  return socket->conn->endpoints().remote_ip;
}

}  // namespace cionet
