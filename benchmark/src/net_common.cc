#include "net_common.h"

#include <algorithm>

namespace bench {

void EchoApp::Round(cioserve::ConfidentialServer& server, Tracer* tracer,
                    uint64_t now_ns) {
  for (;;) {
    ciobase::Result<cioserve::Incoming> in = [&] {
      SpanScope span(tracer, "serve.receive");
      return server.Receive();
    }();
    if (!in.ok()) {
      break;
    }
    queue_.push_back({now_ns, std::move(*in)});
  }
  backlog_max_ = std::max<uint64_t>(backlog_max_, queue_.size());
  size_t attempts = queue_.size();
  for (size_t i = 0; i < attempts; ++i) {
    Queued echo = std::move(queue_.front());
    queue_.pop_front();
    bool sent;
    {
      SpanScope span(tracer, "serve.send");
      sent = server.Send(echo.incoming.conn, echo.incoming.message).ok();
    }
    if (!sent && now_ns - echo.queued_ns < server.config().reattach_timeout_ns) {
      queue_.push_back(std::move(echo));
    }
  }
}

void AddNodeCounters(Counters& out, cio::ConfidentialNode& node) {
  AddCostSlots(out, node.costs());
  if (const cio::L5Channel* l5 = node.l5(); l5 != nullptr) {
    const auto& s = l5->stats();
    out["l5.crossings"] += static_cast<double>(s.crossings);
    out["l5.doorbells"] += static_cast<double>(s.doorbells);
    out["l5.sq_submitted"] += static_cast<double>(s.sq_submitted);
    out["l5.cq_completions"] += static_cast<double>(s.cq_completions);
    out["l5.receive_copies"] += static_cast<double>(s.receive_copies);
    out["l5.sq_backpressure"] += static_cast<double>(s.sq_backpressure);
    out["l5.cq_stale_dropped"] += static_cast<double>(s.cq_stale_dropped);
  }
  if (const cio::L2Transport* l2 = node.l2_transport(); l2 != nullptr) {
    const auto& s = l2->stats();
    out["l2.frames_sent"] += static_cast<double>(s.frames_sent);
    out["l2.frames_received"] += static_cast<double>(s.frames_received);
    out["l2.tx_ring_full"] += static_cast<double>(s.tx_ring_full);
    out["l2.watchdog_fires"] += static_cast<double>(s.watchdog_fires);
    out["l2.ring_resets"] += static_cast<double>(s.ring_resets);
  }
  cio::ConfidentialNode::RecoveryStats r = node.recovery_stats();
  out["engine.reconnects"] += static_cast<double>(r.reconnects);
  out["engine.tls_restarts"] += static_cast<double>(r.tls_restarts);
  out["engine.messages_resent"] += static_cast<double>(r.messages_resent);
  out["engine.duplicates_dropped"] +=
      static_cast<double>(r.messages_duplicate_dropped);
  out["engine.messages_lost"] += static_cast<double>(r.messages_lost);
}

void AddTlsCounters(Counters& out, const ciotls::TlsSession* tls) {
  if (tls == nullptr) {
    return;
  }
  const auto& s = tls->stats();
  out["tls.records_sealed"] += static_cast<double>(s.records_sealed);
  out["tls.records_opened"] += static_cast<double>(s.records_opened);
  out["tls.bytes_protected"] += static_cast<double>(s.bytes_protected);
  out["tls.key_updates"] += static_cast<double>(s.key_updates);
}

void AddServerCounters(Counters& out,
                       const cioserve::ConfidentialServer& server,
                       bool include_tls) {
  const auto& s = server.stats();
  out["serve.accepted"] += static_cast<double>(s.accepted);
  out["serve.recovered"] += static_cast<double>(s.recovered);
  out["serve.rejected_admission"] += static_cast<double>(s.rejected_admission);
  out["serve.rejected_unauthenticated"] +=
      static_cast<double>(s.rejected_unauthenticated);
  out["serve.send_queue_rejections"] +=
      static_cast<double>(s.send_queue_rejections);
  if (!include_tls) {
    return;
  }
  for (cioserve::ConnId conn : server.EstablishedConnections()) {
    if (const cio::Session* session = server.SessionOf(conn);
        session != nullptr) {
      AddTlsCounters(out, session->tls());
    }
  }
}

void AddFabricCounters(Counters& out, const cionet::Fabric& fabric) {
  out["net.frames_routed"] += static_cast<double>(fabric.stats().frames_routed);
  out["net.bytes_routed"] += static_cast<double>(fabric.stats().bytes_routed);
}

}  // namespace bench
