#include "src/cio/l5_channel.h"

#include <algorithm>
#include <cstring>

#include "src/base/coverage.h"
#include "src/prof/profiler.h"

namespace cio {

L5Channel::L5Channel(ciotee::CompartmentManager* compartments,
                     ciotee::CompartmentId app, ciotee::CompartmentId io,
                     cionet::NetStack* stack, ciobase::CostModel* costs,
                     L5ReceiveMode receive_mode, L5BoundaryKind boundary_kind,
                     const L5QueueConfig& queues)
    : compartments_(compartments),
      app_(app),
      io_(io),
      stack_(stack),
      costs_(costs),
      receive_mode_(receive_mode),
      boundary_kind_(boundary_kind),
      queues_(queues) {
  InitQueues();
}

void L5Channel::InitQueues() {
  if (!queues_.Valid()) {
    return;
  }
  // ONE registration for the channel's lifetime: control block, both rings,
  // and the slot pool live together in the I/O heap, allocated by the
  // trusted component so the stack never validates a pointer.
  auto handle = compartments_->Allocate(app_, io_, queues_.TotalBytes());
  if (!handle.ok()) {
    return;  // heap too small for the async datapath; channel stays inert
  }
  auto span = compartments_->Access(app_, *handle);
  if (!span.ok()) {
    return;
  }
  region_ = *span;
  std::memset(region_.data(), 0, kSqcqControlBytes);
  pool_.Init(region_.subspan(queues_.PoolOffset()), queues_.pool_slots,
             queues_.slot_size);
  queues_ready_ = true;
}

void L5Channel::ChargeCrossing() {
  ++stats_.crossings;
  if (boundary_kind_ == L5BoundaryKind::kCompartment) {
    // SwitchTo already charges the compartment switch; nothing extra.
  } else {
    // Dual-enclave alternative: a full TEE boundary round trip on top.
    costs_->ChargeTeeSwitch();
  }
}

L5Channel::Crossing::Crossing(L5Channel* channel) : channel_(channel) {
  channel_->ChargeCrossing();
  channel_->compartments_->SwitchTo(channel_->io_);
  // Cancels and adoptions travel through the call gate like arguments: the
  // I/O side applies them before it can post anything in this crossing.
  channel_->IoApplyCancels();
  channel_->IoApplyAdoptions();
}

L5Channel::Crossing::~Crossing() {
  channel_->compartments_->SwitchTo(channel_->app_);
}

ciobase::Result<cionet::SocketId> L5Channel::Connect(cionet::Ipv4Address ip,
                                                     uint16_t port) {
  Crossing crossing(this);
  auto socket = stack_->TcpConnect(ip, port);
  if (socket.ok()) {
    io_sockets_[socket->value] = true;  // I/O side: fill credit from it
    open_.insert(socket->value);        // app side: completions may name it
  }
  return socket;
}

ciobase::Result<cionet::SocketId> L5Channel::Listen(uint16_t port) {
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  auto listener = [&] {
    Crossing crossing(this);
    return stack_->TcpListen(port);
  }();
  if (listener.ok()) {
    listeners_[listener->value] = 0;  // the next doorbell arms its accept
  }
  return listener;
}

ciobase::Result<Accepted> L5Channel::Accept(cionet::SocketId listener) {
  auto it = accepted_.find(listener.value);
  if (it == accepted_.end()) {
    return ciobase::Unavailable("no pending connection");
  }
  Accepted next = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) {
    accepted_.erase(it);
  }
  --unadopted_;
  adopted_.push_back(next.socket.value);
  return next;
}

ciobase::Status L5Channel::Close(cionet::SocketId socket) {
  // An orderly close must not outrun this socket's queued submissions: the
  // FIN would precede (or discard) data still sitting in the SQ. One
  // doorbell pushes whatever is pending before the stack sees the close.
  if (SendsInFlight(socket)) {
    (void)Flush();
  }
  ciobase::Status closed = ciobase::OkStatus();
  {
    Crossing crossing(this);
    closed = stack_->TcpClose(socket);
  }
  // Whatever the socket still pins (slots, harvested receives, the last
  // socket's receive credit) goes back now, not at some later reset.
  CancelSocket(socket);
  return closed;
}

bool L5Channel::SendsInFlight(cionet::SocketId socket) const {
  for (const auto& [user_data, entry] : in_flight_) {
    if (entry.op == kSqOpSend && entry.socket == socket.value) {
      return true;
    }
  }
  return false;
}

ciobase::Status L5Channel::Abort(cionet::SocketId socket) {
  // Cancelled first: the cancel rides this very crossing, so the I/O side
  // drops the socket's queued sends before the RST goes out.
  CancelSocket(socket);
  Crossing crossing(this);
  return stack_->TcpAbort(socket);
}

// --- Layout helpers ---------------------------------------------------------

ciobase::MutableByteSpan L5Channel::SqeSpan(uint32_t index) {
  uint32_t masked = index & (queues_.sq_entries - 1);
  return region_.subspan(queues_.SqOffset() + masked * kSqeSize, kSqeSize);
}

ciobase::MutableByteSpan L5Channel::CqeSpan(uint32_t index) {
  uint32_t masked = index & (queues_.cq_entries - 1);
  return region_.subspan(queues_.CqOffset() + masked * kCqeSize, kCqeSize);
}

bool L5Channel::SqFull() const {
  // sq_consumed_ comes back through the call gate at doorbell time, never
  // from host-writable memory, so this check cannot be spoofed into
  // overwriting unconsumed entries.
  return sq_tail_ - sq_consumed_ >= queues_.sq_entries;
}

// --- Submission -------------------------------------------------------------

void L5Channel::PublishSqe(const SqEntry& sqe) {
  EncodeSqe(sqe, SqeSpan(sq_tail_));
  ++sq_tail_;
  ciobase::StoreLe32(ctrl() + kCtrlSqTail, sq_tail_);
  ++stats_.sq_submitted;
}

void L5Channel::SubmitSqe(SqEntry& sqe) {
  sqe.user_data = next_user_data_++;
  PublishSqe(sqe);
  InFlight entry;
  entry.op = sqe.op;
  entry.seg_count = sqe.seg_count;
  entry.socket = sqe.socket;
  for (size_t i = 0; i < sqe.seg_count; ++i) {
    entry.segs[i] = sqe.segs[i];
  }
  in_flight_[sqe.user_data] = entry;
}

ciobase::Result<size_t> L5Channel::SendBytes(cionet::SocketId socket,
                                             ciobase::ByteSpan data) {
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l5.submit");
  size_t accepted = 0;
  while (accepted < data.size()) {
    if (SqFull() || pool_.free_slots() == 0) {
      ++stats_.sq_backpressure;
      CIO_COV("l5.sq.backpressure", ciobase::StatusCode::kResourceExhausted);
      break;
    }
    SqEntry sqe;
    sqe.op = kSqOpSend;
    sqe.socket = socket.value;
    size_t total = 0;
    while (sqe.seg_count < kSqMaxSegments &&
           accepted + total < data.size()) {
      auto slot = pool_.Acquire();
      if (!slot) {
        ++stats_.sq_backpressure;
        break;
      }
      size_t n = std::min<size_t>(queues_.slot_size,
                                  data.size() - accepted - total);
      // The app's one write into registered memory; the stack transmits
      // from the slot in place.
      std::memcpy(pool_.SlotSpan(*slot).data(), data.data() + accepted + total,
                  n);
      sqe.segs[sqe.seg_count] = SqSegment{*slot, static_cast<uint32_t>(n)};
      ++sqe.seg_count;
      total += n;
    }
    if (sqe.seg_count == 0) {
      break;
    }
    SubmitSqe(sqe);
    stats_.bytes_sent += total;
    accepted += total;
  }
  return accepted;
}

void L5Channel::ArmAccepts() {
  // Multishot: one entry per listener stays armed across doorbells (it is
  // not in the one-shot in-flight shadow); only a ring reset re-arms it.
  // Its user_data comes from a space of its own (top bit set), so no
  // one-shot completion can pass for it.
  for (auto& [listener, user_data] : listeners_) {
    if (user_data != 0 || SqFull()) {
      continue;
    }
    SqEntry sqe;
    sqe.op = kSqOpAccept;
    sqe.socket = listener;
    sqe.user_data = (uint64_t{1} << 63) | next_accept_data_++;
    PublishSqe(sqe);
    user_data = sqe.user_data;
  }
}

void L5Channel::ArmReceiveCredit() {
  // A quarter of the pool, the rest always free for sends. The entries name
  // no socket; they are armed while any connection is open and handed back
  // when the last one is cancelled.
  const uint32_t credit = queues_.pool_slots / 4;
  while (!open_.empty() && recv_armed_ < credit && !SqFull()) {
    auto slot = pool_.Acquire();
    if (!slot) {
      return;
    }
    SqEntry sqe;
    sqe.op = kSqOpRecv;
    sqe.seg_count = 1;
    sqe.segs[0] = SqSegment{*slot, queues_.slot_size};
    SubmitSqe(sqe);
    ++recv_armed_;
  }
}

// --- The doorbell crossing --------------------------------------------------

ciobase::Status L5Channel::Flush() {
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  if (tampered_) {
    return ciobase::Tampered("completion queue failed validation");
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l5.doorbell");
  ArmAccepts();
  ArmReceiveCredit();
  ciobase::Status link = ciobase::OkStatus();
  {
    Crossing crossing(this);
    costs_->ChargeRingPoll();
    {
      CIO_PROF_SCOPE(costs_->profiler(), "l5.sq_consume");
      IoConsumeSq();
    }
    link = stack_->Poll();
    {
      CIO_PROF_SCOPE(costs_->profiler(), "l5.io_service");
      IoService();
    }
    // Consumed count returns through the call gate (a syscall-style return
    // value), so SQ-full detection never trusts host-writable memory.
    sq_consumed_ = io_sq_head_;
  }
  ++stats_.doorbells;
  CIO_RETURN_IF_ERROR(Harvest());
  return link;
}

void L5Channel::IoConsumeSq() {
  uint32_t tail = ciobase::LoadLe32(ctrl() + kCtrlSqTail);
  if (tail - io_sq_head_ > queues_.sq_entries) {
    // Host-scribbled tail: clamp to one ring's worth; garbage entries
    // decode to ops on unknown sockets and complete as resets.
    CIO_COV("l5.sq.runaway_tail", ciobase::StatusCode::kOutOfRange);
    tail = io_sq_head_ + queues_.sq_entries;
  }
  while (io_sq_head_ != tail) {
    SqEntry sqe = DecodeSqe(SqeSpan(io_sq_head_));
    ++io_sq_head_;
    if (sqe.op == kSqOpSend) {
      io_sends_[sqe.socket].push_back(sqe);
    } else if (sqe.op == kSqOpRecv) {
      io_recvs_.push_back(sqe);
    } else if (sqe.op == kSqOpAccept) {
      io_accepts_[sqe.socket] = sqe.user_data;
    }
    // Unknown opcodes are dropped: the app is trusted, so these can only
    // come from host scribbling over the ring.
  }
  ciobase::StoreLe32(ctrl() + kCtrlSqHead, io_sq_head_);
}

void L5Channel::IoApplyCancels() {
  if (cancelled_.empty()) {
    return;
  }
  IoConsumeSq();  // pull published-but-unconsumed entries so they purge
  sq_consumed_ = io_sq_head_;
  for (uint32_t socket : cancelled_) {
    io_sends_.erase(socket);
    io_sockets_.erase(socket);
    io_accepts_.erase(socket);
    for (auto it = held_cqes_.begin(); it != held_cqes_.end();) {
      if (it->cqe.socket != socket) {
        ++it;
        continue;
      }
      if (it->cqe.op == kSqOpRecv) {
        io_recvs_.push_back(it->sqe);  // never posted: back to the credit
      }
      it = held_cqes_.erase(it);
    }
  }
  cancelled_.clear();
  if (io_sockets_.empty()) {
    io_recvs_.clear();  // the app released its credit with its last socket
  }
}

void L5Channel::IoApplyAdoptions() {
  for (uint32_t socket : adopted_) {
    if (auto it = io_sockets_.find(socket); it != io_sockets_.end()) {
      it->second = true;  // the app took it: its bytes may fill the credit
    }
  }
  adopted_.clear();
}

void L5Channel::IoService() {
  DrainHeldCqes();
  for (auto it = io_sends_.begin(); it != io_sends_.end();) {
    IoServiceSends(it->first, it->second);
    it = it->second.empty() ? io_sends_.erase(it) : std::next(it);
  }
  IoServiceAccepts();
  IoServiceRecvs();
}

void L5Channel::IoServiceAccepts() {
  // An accept completion is never held: a connection the CQ has no room
  // for stays in the stack's accept queue, whose backlog bounds it, until a
  // later doorbell. So does one beyond a CQ's worth of connections the app
  // has not adopted yet (its count rides the call gate, like the cancels).
  size_t posted = 0;
  for (const auto& [listener, user_data] : io_accepts_) {
    while (held_cqes_.empty() && IoCqUsed() < queues_.cq_entries &&
           unadopted_ + posted < queues_.cq_entries) {
      auto accepted = AcceptFrom(*stack_, cionet::SocketId{listener});
      if (!accepted.ok()) {
        break;
      }
      // Not filled from until the app adopts it: bytes for a connection
      // nobody took yet stay in the stack's bounded receive window.
      io_sockets_[accepted->socket.value] = false;
      CqEntry cqe;
      cqe.op = kSqOpAccept;
      cqe.user_data = user_data;
      cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
      cqe.socket = accepted->socket.value;
      cqe.peer = accepted->peer.value;
      PostCqe(cqe, SqEntry{});
      ++posted;
    }
  }
}

void L5Channel::IoServiceSends(uint32_t socket, std::deque<SqEntry>& sends) {
  while (!sends.empty()) {
    const SqEntry& sqe = sends.front();
    size_t total = 0;
    for (size_t i = 0; i < sqe.seg_count; ++i) {
      total += sqe.segs[i].len;
    }
    CqEntry cqe;
    cqe.op = kSqOpSend;
    cqe.user_data = sqe.user_data;
    cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
    cqe.socket = socket;
    auto space = stack_->TcpSendSpace(cionet::SocketId{socket});
    if (!space.ok()) {
      cqe.code = kCqReset;  // socket gone underneath the queue
      PostCqe(cqe, sqe);
      sends.pop_front();
      continue;
    }
    if (*space < total) {
      break;  // all-or-nothing per entry; retry at the next doorbell
    }
    bool failed = false;
    for (size_t i = 0; i < sqe.seg_count && !failed; ++i) {
      ciobase::MutableByteSpan span = pool_.SlotSpan(sqe.segs[i].slot);
      size_t len = std::min<size_t>(sqe.segs[i].len, span.size());
      auto sent = stack_->TcpSend(cionet::SocketId{socket},
                                  ciobase::ByteSpan(span.data(), len));
      failed = !sent.ok() || *sent != len;
    }
    if (failed) {
      cqe.code = kCqReset;
    } else {
      cqe.code = kCqOk;
      cqe.seg_count = sqe.seg_count;
      for (size_t i = 0; i < sqe.seg_count; ++i) {
        cqe.seg_len[i] = sqe.segs[i].len;
      }
      cqe.result = static_cast<uint32_t>(total);
    }
    PostCqe(cqe, sqe);
    sends.pop_front();
  }
}

void L5Channel::IoServiceRecvs() {
  if (io_sockets_.empty()) {
    return;
  }
  // Start one socket further on every doorbell, so a socket that always
  // has bytes cannot take the whole credit round after round.
  auto it = io_sockets_.lower_bound(io_first_socket_);
  if (it == io_sockets_.end()) {
    it = io_sockets_.begin();
  }
  io_first_socket_ = it->first + 1;
  for (size_t n = io_sockets_.size(); n > 0 && !io_recvs_.empty(); --n) {
    auto next = std::next(it) == io_sockets_.end() ? io_sockets_.begin()
                                                   : std::next(it);
    if (it->second) {
      it->second = IoFillFrom(it->first);
    }
    it = next;
  }
}

bool L5Channel::IoFillFrom(uint32_t socket) {
  cionet::SocketId id{socket};
  auto readable = stack_->TcpReadable(id);
  if (readable.ok() && !*readable) {
    return true;
  }
  while (!io_recvs_.empty()) {
    const SqEntry sqe = io_recvs_.front();
    io_recvs_.pop_front();
    CqEntry cqe;
    cqe.op = kSqOpRecv;
    cqe.user_data = sqe.user_data;
    cqe.epoch = ciobase::LoadLe32(ctrl() + kCtrlEpoch);
    cqe.socket = socket;
    if (!readable.ok()) {
      cqe.code = kCqReset;  // socket gone underneath the channel
      PostCqe(cqe, sqe);
      return false;
    }
    ciobase::MutableByteSpan span = pool_.SlotSpan(sqe.segs[0].slot);
    size_t cap = std::min<size_t>(sqe.segs[0].len, span.size());
    auto got = stack_->TcpReceive(id, span.first(cap));
    if (!got.ok()) {
      cqe.code =
          got.status().code() == ciobase::StatusCode::kFailedPrecondition
              ? kCqEof
              : kCqReset;
      PostCqe(cqe, sqe);
      return false;
    }
    if (*got == 0) {
      io_recvs_.push_front(sqe);
      return true;
    }
    cqe.code = kCqOk;
    cqe.seg_count = 1;
    cqe.seg_len[0] = static_cast<uint32_t>(*got);
    cqe.result = static_cast<uint32_t>(*got);
    PostCqe(cqe, sqe);
    if (*got < cap) {
      return true;  // drained the socket
    }
  }
  return true;
}

uint32_t L5Channel::IoCqUsed() {
  uint32_t used = io_cq_tail_ - ciobase::LoadLe32(ctrl() + kCtrlCqHead);
  if (used > queues_.cq_entries) {
    // Hostile head: an honest app can only publish a head inside
    // [io_cq_tail_ - cq_entries, io_cq_tail_]. Treat the ring as full (the
    // completion is held, nothing dropped) and surface the forgery as a
    // typed edge; the app re-asserts its true head every Harvest, so the
    // wedge heals at the next doorbell.
    CIO_COV("l5.cq.incoherent_head", ciobase::StatusCode::kOutOfRange);
    used = queues_.cq_entries;
  }
  return used;
}

void L5Channel::PostCqe(const CqEntry& cqe, const SqEntry& sqe) {
  if (IoCqUsed() >= queues_.cq_entries) {
    // CQ overflow backpressure: hold the completion io-side, in order, and
    // drain once the app reaps. Nothing is dropped.
    held_cqes_.push_back(HeldCqe{cqe, sqe});
    return;
  }
  EncodeCqe(cqe, CqeSpan(io_cq_tail_));
  ++io_cq_tail_;
  ciobase::StoreLe32(ctrl() + kCtrlCqTail, io_cq_tail_);
}

void L5Channel::DrainHeldCqes() {
  while (!held_cqes_.empty()) {
    if (IoCqUsed() >= queues_.cq_entries) {
      return;
    }
    EncodeCqe(held_cqes_.front().cqe, CqeSpan(io_cq_tail_));
    ++io_cq_tail_;
    ciobase::StoreLe32(ctrl() + kCtrlCqTail, io_cq_tail_);
    held_cqes_.pop_front();
  }
}

// --- App-side reaping -------------------------------------------------------

ciobase::Status L5Channel::Harvest() {
  if (tampered_) {
    return ciobase::Tampered("completion queue failed validation");
  }
  CIO_PROF_SCOPE(costs_->profiler(), "l5.harvest");
  // Self-healing counters: re-assert the app-owned cells from private state
  // every reap. A host that scribbles CqHead or Epoch can wedge at most one
  // doorbell interval — the next Harvest restores the truth and any held
  // completions drain.
  ciobase::StoreLe32(ctrl() + kCtrlCqHead, cq_head_);
  ciobase::StoreLe32(ctrl() + kCtrlEpoch, epoch_);
  uint32_t tail = ciobase::LoadLe32(ctrl() + kCtrlCqTail);
  if (tail - cq_head_ > queues_.cq_entries) {
    CIO_COV("l5.cq.runaway_tail", ciobase::StatusCode::kTampered);
    tampered_ = true;
    return ciobase::Tampered("cq tail outside ring window");
  }
  while (cq_head_ != tail) {
    CqEntry cqe = DecodeCqe(CqeSpan(cq_head_));
    ++cq_head_;
    ciobase::StoreLe32(ctrl() + kCtrlCqHead, cq_head_);
    ciobase::Status consumed = ConsumeCqe(cqe);
    if (!consumed.ok()) {
      tampered_ = true;
      return consumed;
    }
  }
  return ciobase::OkStatus();
}

ciobase::Status L5Channel::ConsumeCqe(const CqEntry& cqe) {
  if (cqe.epoch != epoch_) {
    // A completion from before the last ring reset: its entry was already
    // abandoned into the resend window, so this is recovery noise, not an
    // attack.
    ++stats_.cq_stale_dropped;
    CIO_COV("l5.cq.stale_epoch", ciobase::StatusCode::kUnavailable);
    return ciobase::OkStatus();
  }
  if (cqe.op == kSqOpAccept) {
    return ConsumeAccept(cqe);
  }
  auto it = in_flight_.find(cqe.user_data);
  if (it == in_flight_.end()) {
    CIO_COV("l5.cq.unknown_user_data", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("unknown or duplicated completion");
  }
  const InFlight entry = it->second;
  if (cqe.op != entry.op) {
    CIO_COV("l5.cq.opcode_mismatch", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion opcode mismatch");
  }
  if (cqe.code > kCqReset) {
    CIO_COV("l5.cq.unknown_code", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("unknown completion code");
  }
  if (cqe.seg_count > entry.seg_count) {
    CIO_COV("l5.cq.segment_overflow", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion segment overflow");
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < cqe.seg_count; ++i) {
    if (cqe.seg_len[i] > entry.segs[i].len) {
      CIO_COV("l5.cq.length_overflow", ciobase::StatusCode::kTampered);
      return ciobase::Tampered("completion length exceeds submission");
    }
    sum += cqe.seg_len[i];
  }
  if (cqe.result != sum) {
    CIO_COV("l5.cq.result_mismatch", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion result/length mismatch");
  }
  // A send completes on the socket it was submitted for; a receive may
  // name any socket the app still has open — never one it cancelled.
  if (entry.op == kSqOpSend ? cqe.socket != entry.socket
                            : open_.count(cqe.socket) == 0) {
    CIO_COV("l5.cq.socket_mismatch", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("completion names a socket that is not open");
  }
  in_flight_.erase(it);
  ++stats_.cq_completions;
  CIO_COV("l5.cq.completion", ciobase::StatusCode::kOk);
  if (entry.op == kSqOpSend) {
    ReleaseEntrySlots(entry);
    if (cqe.code != kCqOk) {
      // The bytes may not have hit the wire; delivery is owned by the
      // session resend window, so this is accounting, not an error.
      ++stats_.send_failures;
    }
    return ciobase::OkStatus();
  }
  // Receive completion: one credit entry used up; the next doorbell re-arms.
  --recv_armed_;
  std::deque<RecvEvent>& events = events_[cqe.socket];
  if (cqe.code == kCqOk && cqe.result > 0) {
    RecvEvent event;
    event.kind = RecvEvent::Kind::kData;
    if (receive_mode_ == L5ReceiveMode::kCopy) {
      // Copy-before-parse: snapshot the slots the stack may keep mutating.
      ++stats_.receive_copies;
      costs_->ChargeCopy(cqe.result);
    } else if (receive_mode_ == L5ReceiveMode::kRevoke) {
      // Revoke-then-parse: pull the filled pages out of the shared pool.
      ++stats_.receive_revocations;
      size_t page = costs_->constants().page_size;
      costs_->ChargePageUnshare(
          std::max<size_t>(1, (cqe.result + page - 1) / page));
    }
    // kSealed: every byte is AEAD-authenticated above this layer, so no
    // defensive copy or unshare is modeled for the harvest.
    event.data.reserve(cqe.result);
    for (size_t i = 0; i < cqe.seg_count; ++i) {
      ciobase::MutableByteSpan span = pool_.SlotSpan(entry.segs[i].slot);
      event.data.insert(event.data.end(), span.data(),
                        span.data() + cqe.seg_len[i]);
    }
    events.push_back(std::move(event));
    stats_.bytes_received += cqe.result;
  } else if (cqe.code == kCqEof) {
    events.push_back(RecvEvent{RecvEvent::Kind::kEof, {}});
  } else if (cqe.code == kCqReset) {
    events.push_back(RecvEvent{RecvEvent::Kind::kReset, {}});
  }
  ReleaseEntrySlots(entry);
  return ciobase::OkStatus();
}

ciobase::Status L5Channel::ConsumeAccept(const CqEntry& cqe) {
  auto listener = std::find_if(
      listeners_.begin(), listeners_.end(),
      [&](const auto& armed) { return armed.second == cqe.user_data; });
  if (cqe.user_data == 0 || listener == listeners_.end()) {
    CIO_COV("l5.cq.accept_unarmed", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("accept completion without an armed accept");
  }
  // An honest I/O side stops at a CQ's worth of unadopted connections.
  if (cqe.code != kCqOk || cqe.seg_count != 0 || cqe.result != 0 ||
      unadopted_ >= queues_.cq_entries) {
    CIO_COV("l5.cq.accept_malformed", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("malformed accept completion");
  }
  // The socket must be new to the app: naming an open socket (or a
  // listener) would splice a second stream into a live connection.
  if (open_.count(cqe.socket) != 0 || listeners_.count(cqe.socket) != 0) {
    CIO_COV("l5.cq.accept_open_socket", ciobase::StatusCode::kTampered);
    return ciobase::Tampered("accept completion names an open socket");
  }
  open_.insert(cqe.socket);
  accepted_[listener->first].push_back(
      Accepted{cionet::SocketId{cqe.socket}, cionet::Ipv4Address{cqe.peer}});
  ++unadopted_;
  ++stats_.accepts;
  CIO_COV("l5.cq.accept", ciobase::StatusCode::kOk);
  return ciobase::OkStatus();
}

void L5Channel::ReleaseEntrySlots(const InFlight& entry) {
  for (size_t i = 0; i < entry.seg_count; ++i) {
    pool_.Release(entry.segs[i].slot);
  }
}

// --- Teardown paths ---------------------------------------------------------

void L5Channel::CancelSocket(cionet::SocketId socket) {
  if (!queues_ready_) {
    return;
  }
  // Sweep already-posted completions to their owners first, so another
  // socket's data is never thrown away with this one's. Tampering found
  // here sticks, so the next doorbell reports it.
  (void)Harvest();
  events_.erase(socket.value);
  listeners_.erase(socket.value);
  // With the last open socket goes the receive credit.
  const bool last = open_.erase(socket.value) > 0 && open_.empty();
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->second.op == kSqOpSend ? it->second.socket == socket.value
                                   : last) {
      ReleaseEntrySlots(it->second);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  if (last) {
    recv_armed_ = 0;
  }
  cancelled_.push_back(socket.value);
}

void L5Channel::AbandonInFlight() {
  if (!queues_ready_) {
    return;
  }
  events_.clear();
  {
    Crossing crossing(this);
    // A connection whose accept completion died with the old rings never
    // reached the app: reset it, and its client reconnects.
    for (auto it = io_sockets_.begin(); it != io_sockets_.end();) {
      if (open_.count(it->first) == 0) {
        (void)stack_->TcpAbort(cionet::SocketId{it->first});
        it = io_sockets_.erase(it);
      } else {
        ++it;
      }
    }
    io_sends_.clear();
    io_recvs_.clear();
    io_accepts_.clear();
    held_cqes_.clear();
    io_sq_head_ = 0;
    io_cq_tail_ = 0;
  }
  for (auto& [user_data, entry] : in_flight_) {
    ReleaseEntrySlots(entry);
  }
  in_flight_.clear();
  recv_armed_ = 0;
  for (auto& [listener, user_data] : listeners_) {
    user_data = 0;  // the next doorbell re-arms the accept
  }
  tampered_ = false;
  sq_tail_ = 0;
  sq_consumed_ = 0;
  cq_head_ = 0;
  // New ring generation: completions the old epoch still owes reap as
  // stale. The session resend window re-delivers everything that was in
  // flight, preserving exactly-once end to end.
  ++epoch_;
  std::memset(region_.data(), 0, kSqcqControlBytes);
  ciobase::StoreLe32(ctrl() + kCtrlEpoch, epoch_);
}

// --- One-shot receive -------------------------------------------------------

ciobase::Result<size_t> L5Channel::ReceiveBytes(cionet::SocketId socket,
                                                size_t max_bytes,
                                                ciobase::Buffer& out) {
  out.clear();
  if (!queues_ready_) {
    return ciobase::FailedPrecondition("async queues unavailable");
  }
  auto it = events_.find(socket.value);
  if (it == events_.end()) {
    return static_cast<size_t>(0);
  }
  std::deque<RecvEvent>& events = it->second;
  while (out.size() < max_bytes && !events.empty()) {
    RecvEvent& front = events.front();
    if (front.kind != RecvEvent::Kind::kData) {
      if (!out.empty()) {
        break;  // deliver data first; EOF/reset surfaces next call
      }
      // Left queued: like the stack's own socket, a dead connection keeps
      // reporting its end until the app cancels it.
      if (front.kind == RecvEvent::Kind::kEof) {
        return ciobase::FailedPrecondition("connection closed by peer");
      }
      return ciobase::LinkReset("connection reset");
    }
    ciobase::Append(out, front.data);
    events.pop_front();
  }
  if (events.empty()) {
    events_.erase(it);
  }
  return out.size();
}

}  // namespace cio
