// L5Channel: the lightweight single-distrust boundary between the
// confidential application and the I/O-stack compartment (§3.1/§3.2).
//
// The ternary trust model makes this boundary asymmetric: the I/O stack
// trusts the application, the application does not trust the I/O stack.
// That single distrust is what the design exploits:
//
//  * "Avoid the need to verify pointers": the application registers ONE
//    queue region (control block + SQ + CQ + sealed-buffer pool) in the
//    I/O compartment's heap at construction (trusted-component-allocates
//    policy [34]). The stack only ever touches that region, addressed by
//    slot index — it never validates an app pointer, the app never
//    dereferences a stack pointer.
//  * One interface: the channel IS dual-boundary's SocketLayer — the
//    engine and the server hold it as such and never reach past it.
//  * Async datapath: SendBytes copies already-sealed TLS bytes into
//    registered slots (an app-local copy; the stack then transmits from the
//    slot in place) and queues scatter-gather submission entries; the
//    doorbell (Flush, and Poll) rings ONCE per batch — one boundary
//    crossing amortized over every queued operation, instead of a crossing
//    per message. Completions are reaped lazily from the CQ with no
//    crossing at all.
//  * One receive path: while any connection is open the channel keeps
//    pool_slots / 4 one-slot receive entries armed as shared credit. They
//    name no socket: inside each doorbell the I/O side fills them from
//    whichever sockets opened through the channel have bytes (rotating the
//    starting socket every doorbell) and writes the socket into the CQE.
//    ReceiveBytes only drains what doorbells already harvested, so
//    receiving never crosses the boundary and never needs a readiness
//    query.
//  * Accepts complete the same way: Listen arms one multishot accept entry
//    per listener, and inside each doorbell the I/O side posts one accept
//    completion per new connection, carrying {socket, peer}. Accept only
//    drains what doorbells already harvested, so a server round — egress
//    queued, one doorbell, receives and accepts drained — crosses once.
//    Receive credit is filled from an accepted socket only once Accept has
//    handed it out.
//  * Receive trust: everything the I/O side writes back — CQ indices,
//    completion codes, lengths, the socket and peer words — is
//    hostile-host-writable,
//    so the reaper validates each entry against its private in-flight
//    shadow and its private set of open sockets (typed kTampered on
//    mismatch) and then materializes payload bytes per the receive-mode
//    policy: copy-before-parse (kCopy), ownership revocation (kRevoke), or
//    sealed-in-place (kSealed — the AEAD layer above already rejects any
//    byte the host flips, so no defensive copy is charged).
//
// The boundary crossing itself is either an intra-TEE compartment switch
// (the paper's choice) or a full TEE-to-TEE switch (the rejected dual-
// enclave alternative), selectable for the ablation benchmark.

#ifndef SRC_CIO_L5_CHANNEL_H_
#define SRC_CIO_L5_CHANNEL_H_

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "src/base/clock.h"
#include "src/cio/buffer_pool.h"
#include "src/cio/socket_layer.h"
#include "src/cio/sqcq.h"
#include "src/net/stack.h"
#include "src/tee/compartment.h"

namespace cio {

enum class L5ReceiveMode { kCopy, kRevoke, kSealed };
enum class L5BoundaryKind { kCompartment, kDualTee };

class L5Channel final : public SocketLayer {
 public:
  L5Channel(ciotee::CompartmentManager* compartments,
            ciotee::CompartmentId app, ciotee::CompartmentId io,
            cionet::NetStack* stack, ciobase::CostModel* costs,
            L5ReceiveMode receive_mode, L5BoundaryKind boundary_kind,
            const L5QueueConfig& queues = L5QueueConfig{});

  // Connection management: Connect, Listen, Close and Abort cross into the
  // I/O compartment once each. A socket Connect or Accept returns is open
  // until Close or Abort; a connect that dies before establishment
  // completes as a reset through the receive credit, like any other.
  ciobase::Result<cionet::SocketId> Connect(cionet::Ipv4Address ip,
                                            uint16_t port) override;
  // Also arms the listener's multishot accept; the next doorbell submits it.
  ciobase::Result<cionet::SocketId> Listen(uint16_t port) override;
  // Hands out the next connection an accept completion opened (socket and
  // peer), kUnavailable when none is pending. Never crosses: it drains what
  // earlier doorbells harvested, the way ReceiveBytes does.
  ciobase::Result<Accepted> Accept(cionet::SocketId listener) override;
  // Orderly close: a doorbell first if the socket still has queued sends
  // (the FIN must not outrun them), the close crossing, then CancelSocket.
  ciobase::Status Close(cionet::SocketId socket) override;
  // Abortive close (RST now): CancelSocket, then the abort crossing. The
  // engine's recovery path kills dead connections through this.
  ciobase::Status Abort(cionet::SocketId socket) override;

  // --- Async datapath --------------------------------------------------------

  bool queues_ready() const { return queues_ready_; }
  const L5QueueConfig& queue_config() const { return queues_; }

  // Streaming submission: copies `data` into freshly acquired slots (the
  // app's one write into registered memory) and queues scatter-gather send
  // entries. Returns bytes accepted — short on backpressure; the caller
  // keeps the rest and retries after the next doorbell.
  ciobase::Result<size_t> SendBytes(cionet::SocketId socket,
                                    ciobase::ByteSpan data) override;

  // The doorbell, THE one crossing of the async path: arms accepts, tops up the
  // receive credit, publishes queued SQEs, drives the stack, services sends,
  // accepts connections and fills receive credit into registered slots, posts
  // CQEs, and then reaps + validates completions app-side. Returns the link
  // status (kLinkReset / kTimedOut) or kTampered when a CQ entry fails
  // validation. A forged entry may stand where a real completion was (bytes a
  // stream needs, a credit entry), so kTampered sticks: every later doorbell
  // returns it without crossing until AbandonInFlight resets the rings, and a
  // caller that drops one report meets it again at the next.
  ciobase::Status Flush() override;
  // Drives the I/O compartment: the same doorbell as Flush().
  ciobase::Status Poll() override { return Flush(); }

  // Tears down one socket's queue state (queued sends, undelivered
  // receives) without disturbing other sockets — Close and Abort call
  // this. Slots return to the pool at once; delivery is owned by the
  // session resend window. Never crosses: the I/O side learns of the
  // cancel at the start of the next crossing, before it can post anything,
  // and hands any completion it still holds for the socket back to the
  // receive credit. Cancelling the last open socket releases the
  // credit itself.
  void CancelSocket(cionet::SocketId socket);

  // True while this socket still has submitted-but-unreaped send entries —
  // an orderly close must wait for (or flush) them first.
  bool SendsInFlight(cionet::SocketId socket) const override;

  // Full ring reset for recovery: bumps the epoch (completions from the old
  // generation reap as stale, not as tampering), drops every in-flight entry
  // and harvested receive, returns the slots, clears a kTampered verdict and
  // re-arms every listener's accept (a connection whose accept completion was
  // lost is reset, and its client reconnects). The caller replays from the
  // session resend window once the channel is re-established.
  void AbandonInFlight() override;

  // --- Receive ---------------------------------------------------------------

  // Drains bytes earlier doorbells harvested for this socket into `out`
  // (cleared; capacity reused). No crossing, no doorbell, no cost. Ok(0) =
  // nothing harvested, kFailedPrecondition = orderly EOF, kLinkReset = the
  // connection died underneath the app (both repeat until the socket is
  // cancelled). `max_bytes` is a hint — slot granularity may return more.
  ciobase::Result<size_t> ReceiveBytes(cionet::SocketId socket,
                                       size_t max_bytes,
                                       ciobase::Buffer& out) override;

  struct Stats {
    uint64_t crossings = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t receive_copies = 0;
    uint64_t receive_revocations = 0;
    uint64_t doorbells = 0;
    uint64_t sq_submitted = 0;
    uint64_t cq_completions = 0;   // one-shot entries (sends, receives)
    uint64_t accepts = 0;          // accept completions (multishot)
    uint64_t cq_stale_dropped = 0;  // old-epoch completions after recovery
    uint64_t sq_backpressure = 0;   // SQ-full / pool-empty pushback
    uint64_t send_failures = 0;     // failed send completions (resend covers)
  };
  const Stats& stats() const { return stats_; }

  // Test hooks: the raw shared region (hostile-host tests scribble CQ
  // entries through this) and ring bookkeeping.
  ciobase::MutableByteSpan queue_region_for_test() { return region_; }
  uint32_t epoch() const { return epoch_; }
  size_t free_slots() const { return pool_.free_slots(); }
  size_t in_flight_entries() const { return in_flight_.size(); }
  // Armed receive entries (one slot each); zero while no socket is open.
  size_t receive_credit() const { return recv_armed_; }
  // Credit entries the I/O side holds unfilled. On an idle channel this
  // equals receive_credit(); an entry whose completion was lost is counted
  // in receive_credit() alone.
  size_t io_receive_credit_for_test() const { return io_recvs_.size(); }

 private:
  // RAII crossing: enter the I/O compartment, return to the app.
  class Crossing {
   public:
    explicit Crossing(L5Channel* channel);
    ~Crossing();

   private:
    L5Channel* channel_;
  };

  // A validated receive completion, materialized per the receive mode.
  struct RecvEvent {
    enum class Kind { kData, kEof, kReset };
    Kind kind = Kind::kData;
    ciobase::Buffer data;
  };

  struct InFlight {
    uint8_t op = 0;
    uint8_t seg_count = 0;
    uint32_t socket = 0;
    SqSegment segs[kSqMaxSegments];
  };
  struct HeldCqe {
    CqEntry cqe;
    SqEntry sqe;  // what it completes: a receive goes back to the credit
  };

  void ChargeCrossing();
  void InitQueues();
  // Submits the multishot accept of every listener not yet armed.
  void ArmAccepts();
  // Keeps pool_slots / 4 receive entries armed while any socket is open.
  void ArmReceiveCredit();

  uint8_t* ctrl() { return region_.data(); }
  ciobase::MutableByteSpan SqeSpan(uint32_t index);
  ciobase::MutableByteSpan CqeSpan(uint32_t index);

  bool SqFull() const;
  // Writes `sqe` at the SQ tail. SubmitSqe stamps a one-shot user_data and
  // records the entry in the in-flight shadow first.
  void PublishSqe(const SqEntry& sqe);
  void SubmitSqe(SqEntry& sqe);
  void ReleaseEntrySlots(const InFlight& entry);

  // App side: reap + validate CQ entries (no crossing).
  ciobase::Status Harvest();
  ciobase::Status ConsumeCqe(const CqEntry& cqe);
  // An accept completion must match an armed accept, carry nothing but
  // {socket, peer}, and name a socket the app does not hold open.
  ciobase::Status ConsumeAccept(const CqEntry& cqe);

  // I/O side (inside a crossing): consume SQEs, service sockets, post CQEs.
  void IoApplyCancels();
  void IoApplyAdoptions();
  void IoConsumeSq();
  void IoService();
  void IoServiceSends(uint32_t socket, std::deque<SqEntry>& sends);
  void IoServiceAccepts();
  void IoServiceRecvs();
  // Fills receive credit from one socket; false once its EOF or reset is
  // posted (nothing more will come from it).
  bool IoFillFrom(uint32_t socket);
  // CQ entries posted and not yet reaped (a hostile head reads as full).
  uint32_t IoCqUsed();
  void PostCqe(const CqEntry& cqe, const SqEntry& sqe);
  void DrainHeldCqes();

  ciotee::CompartmentManager* compartments_;
  ciotee::CompartmentId app_;
  ciotee::CompartmentId io_;
  cionet::NetStack* stack_;
  ciobase::CostModel* costs_;
  L5ReceiveMode receive_mode_;
  L5BoundaryKind boundary_kind_;
  L5QueueConfig queues_;
  Stats stats_;

  bool queues_ready_ = false;
  ciobase::MutableByteSpan region_;
  BufferPool pool_;

  // App-private submission/reap state (never trusted from shared memory).
  uint32_t sq_tail_ = 0;
  uint32_t sq_consumed_ = 0;  // gate-returned, not read from the region
  uint32_t cq_head_ = 0;
  uint32_t epoch_ = 0;
  uint64_t next_user_data_ = 1;
  uint64_t next_accept_data_ = 1;  // multishot accepts: top bit set
  std::map<uint64_t, InFlight> in_flight_;
  uint32_t recv_armed_ = 0;  // in-flight receive entries (the credit)
  std::set<uint32_t> open_;  // sockets a completion may name
  // Listener -> user_data of its armed multishot accept (0 = the next
  // doorbell arms it).
  std::map<uint32_t, uint64_t> listeners_;
  // Connections accept completions opened, per listener, until Accept hands
  // them out.
  std::map<uint32_t, std::deque<Accepted>> accepted_;
  size_t unadopted_ = 0;  // their total
  bool tampered_ = false;    // a CQ entry failed validation; needs a reset
  std::vector<uint32_t> cancelled_;  // handed over at the next crossing
  std::vector<uint32_t> adopted_;    // Accept handed out; likewise
  std::map<uint32_t, std::deque<RecvEvent>> events_;

  // I/O-compartment-private state.
  uint32_t io_sq_head_ = 0;
  uint32_t io_cq_tail_ = 0;
  std::map<uint32_t, std::deque<SqEntry>> io_sends_;
  std::deque<SqEntry> io_recvs_;  // the shared receive credit
  std::map<uint32_t, uint64_t> io_accepts_;  // listener -> armed user_data
  // Open sockets -> filling receive credit (false until the app adopts an
  // accepted one, and once its EOF or reset is posted).
  std::map<uint32_t, bool> io_sockets_;
  uint32_t io_first_socket_ = 0;   // rotates every doorbell
  std::deque<HeldCqe> held_cqes_;  // CQ-full backpressure, drained in order
};

}  // namespace cio

#endif  // SRC_CIO_L5_CHANNEL_H_
