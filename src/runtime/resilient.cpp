#include "runtime/resilient.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace avoc::runtime {

ResilientVoterClient::ResilientVoterClient(TransportFactory factory,
                                           Clock* clock, std::string client_id,
                                           RetryPolicy policy, uint64_t seed,
                                           obs::Registry* registry,
                                           obs::Tracer* tracer)
    : factory_(std::move(factory)),
      clock_(clock),
      client_id_(std::move(client_id)),
      policy_(policy),
      rng_(seed),
      tracer_(tracer) {
  if (registry != nullptr) {
    connects_metric_ = &registry->GetCounter("avoc_client_connects_total");
    reconnects_metric_ = &registry->GetCounter("avoc_client_reconnects_total");
    connect_failures_metric_ =
        &registry->GetCounter("avoc_client_connect_failures_total");
    timeouts_metric_ =
        &registry->GetCounter("avoc_client_request_timeouts_total");
    retry_attempts_metric_ =
        &registry->GetCounter("avoc_remote_retry_attempts_total");
    retry_backoff_ms_metric_ =
        &registry->GetCounter("avoc_remote_retry_backoff_ms_total");
    retry_giveups_metric_ =
        &registry->GetCounter("avoc_remote_retry_giveups_total");
    redirects_metric_ =
        &registry->GetCounter("avoc_client_redirects_total");
  }
}

void ResilientVoterClient::UseNodeDirectory(NodeDialer dialer,
                                            size_t node_count,
                                            size_t initial_node) {
  node_dialer_ = std::move(dialer);
  node_count_ = node_count;
  target_node_ = node_count == 0 ? 0 : initial_node % node_count;
  DropConnection();
}

Result<std::unique_ptr<Transport>> ResilientVoterClient::Dial() {
  if (node_dialer_) return node_dialer_(target_node_);
  return factory_();
}

bool ResilientVoterClient::IsTransportError(const Status& status) {
  if (status.ok()) return false;
  if (status.code() == ErrorCode::kIoError) return true;
  // The blocking receive path reports orderly EOF as NotFound
  // ("connection closed"); application NotFound (e.g. QUERY with no value
  // yet) must NOT be retried.
  return status.code() == ErrorCode::kNotFound &&
         status.message().find("connection closed") != std::string::npos;
}

void ResilientVoterClient::DropConnection() { client_.reset(); }

void ResilientVoterClient::Backoff(int attempt, uint64_t deadline_at_ms) {
  double backoff = static_cast<double>(policy_.initial_backoff_ms);
  for (int i = 0; i < attempt; ++i) backoff *= policy_.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(policy_.max_backoff_ms));
  if (policy_.jitter > 0) {
    backoff *= 1.0 + policy_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  }
  uint64_t sleep_ms = static_cast<uint64_t>(std::max(backoff, 0.0));
  const uint64_t now = clock_->NowMs();
  if (now >= deadline_at_ms) return;
  sleep_ms = std::min(sleep_ms, deadline_at_ms - now);
  if (sleep_ms == 0) return;
  if (retry_backoff_ms_metric_ != nullptr) {
    retry_backoff_ms_metric_->Add(sleep_ms);
  }
  if (tracer_ != nullptr) {
    tracer_->Event("client.backoff",
                   StrFormat("attempt=%d sleep_ms=%llu", attempt,
                             static_cast<unsigned long long>(sleep_ms)));
  }
  clock_->SleepMs(sleep_ms);
}

Status ResilientVoterClient::EnsureConnected(uint64_t deadline_at_ms,
                                             int* attempt) {
  if (client_.has_value()) return Status::Ok();
  Status last = IoError("never attempted");
  while (policy_.max_attempts == 0 || *attempt < policy_.max_attempts) {
    Result<std::unique_ptr<Transport>> transport = Dial();
    if (!transport.ok() && node_dialer_ && node_count_ > 1) {
      // Cluster mode: the target may simply be down (crash before
      // failover) — rotate so the next dial lands on a living node,
      // which answers directly or redirects to the owner.
      target_node_ = (target_node_ + 1) % node_count_;
    }
    if (transport.ok()) {
      Result<RemoteVoterClient> client =
          RemoteVoterClient::FromTransport(std::move(*transport));
      if (client.ok()) {
        AVOC_RETURN_IF_ERROR(
            client->SetRequestTimeoutMs(policy_.request_timeout_ms));
        client_.emplace(std::move(*client));
        ++connects_;
        if (connects_metric_ != nullptr) connects_metric_->Increment();
        if (connects_ > 1) {
          ++reconnects_;
          if (reconnects_metric_ != nullptr) reconnects_metric_->Increment();
        }
        return Status::Ok();
      }
      last = client.status();
    } else {
      last = transport.status();
    }
    ++connect_failures_;
    if (connect_failures_metric_ != nullptr) {
      connect_failures_metric_->Increment();
    }
    if (clock_->NowMs() >= deadline_at_ms) break;
    Backoff((*attempt)++, deadline_at_ms);
    if (clock_->NowMs() >= deadline_at_ms) break;
  }
  ++giveups_;
  if (retry_giveups_metric_ != nullptr) retry_giveups_metric_->Increment();
  return IoError(
      StrFormat("resilient client gave up connecting: %s",
                last.message().c_str()));
}

Status ResilientVoterClient::Execute(
    const std::function<Status(RemoteVoterClient&)>& op,
    const obs::SpanContext& parent, const char* op_name) {
  const uint64_t deadline_at_ms = clock_->NowMs() + policy_.deadline_ms;
  int attempt = 0;
  int tries = 0;
  size_t redirects = 0;
  Status last = IoError("never attempted");
  while (policy_.max_attempts == 0 || attempt < policy_.max_attempts) {
    Status conn = EnsureConnected(deadline_at_ms, &attempt);
    if (!conn.ok()) return conn;
    Status status;
    {
      // Each attempt is its own child span; the wire context the op
      // stamps (via CurrentTraceSpan) parents server work under it, so
      // a retried submit shows every attempt and which one the server
      // answered from dedup.
      obs::ScopedSpan attempt_span(op_name != nullptr ? tracer_ : nullptr,
                                   obs::SpanKind::kClient, "client.attempt",
                                   parent);
      status = op(*client_);
      if (attempt_span.active()) {
        attempt_span.SetDetailF(
            "op=%s attempt=%d resend=%s outcome=%s", op_name, tries,
            tries > 0 ? "yes" : "no",
            status.ok() ? "ok"
                        : (IsTransportError(status) ? "transport_error"
                                                    : "app_error"));
      }
    }
    ++tries;
    if (uint64_t moved_node = 0; TryParseMoved(status, &moved_node)) {
      // The group lives elsewhere: re-target and re-dial immediately.
      // The op keeps its captures (same sequence number for submits), so
      // following the redirect preserves exactly-once.
      ++redirects_followed_;
      if (redirects_metric_ != nullptr) redirects_metric_->Increment();
      if (tracer_ != nullptr) {
        tracer_->Event("client.redirect",
                       StrFormat("node=%llu redirect=%zu",
                                 static_cast<unsigned long long>(moved_node),
                                 redirects + 1));
      }
      if (++redirects > policy_.max_redirects) {
        ++giveups_;
        if (retry_giveups_metric_ != nullptr) {
          retry_giveups_metric_->Increment();
        }
        return FailedPreconditionError(StrFormat(
            "redirect loop: followed %zu MOVED redirects (max_redirects=%zu)",
            redirects - 1, policy_.max_redirects));
      }
      if (node_dialer_ && node_count_ > 0) {
        target_node_ = static_cast<size_t>(moved_node % node_count_);
      }
      DropConnection();
      continue;  // no backoff, no attempt consumed
    }
    if (status.ok() || !IsTransportError(status)) return status;
    // Transport failure: the connection is unusable; reconnect and retry.
    last = status;
    if (status.message().find("timed out") != std::string::npos) {
      ++request_timeouts_;
      if (timeouts_metric_ != nullptr) timeouts_metric_->Increment();
    }
    DropConnection();
    ++retry_attempts_;
    if (retry_attempts_metric_ != nullptr) retry_attempts_metric_->Increment();
    if (clock_->NowMs() >= deadline_at_ms) break;
    Backoff(attempt++, deadline_at_ms);
    if (clock_->NowMs() >= deadline_at_ms) break;
  }
  ++giveups_;
  if (retry_giveups_metric_ != nullptr) retry_giveups_metric_->Increment();
  return IoError(StrFormat("resilient client gave up: %s",
                           last.message().c_str()));
}

Result<uint64_t> ResilientVoterClient::SubmitBatch(
    const std::string& group, std::span<const BatchReading> readings) {
  // The sequence number is assigned ONCE; every retry reuses it, so the
  // server's dedup cache makes the submit exactly-once.
  const uint64_t seq = next_seq_++;
  // Sampled calls open a root span whose trace id is derived from
  // (client_id, seq) — stable across retries AND across same-seed
  // simulation runs, so DST trace dumps are byte-identical.
  const bool traced = tracer_ != nullptr && policy_.trace_sample_every != 0 &&
                      (seq % policy_.trace_sample_every) == 0;
  obs::SpanContext root_parent;
  if (traced) {
    root_parent.trace_id = obs::Tracer::DeriveTraceId(client_id_, seq);
    root_parent.flags = 1;
  }
  obs::ScopedSpan root(traced ? tracer_ : nullptr, obs::SpanKind::kClient,
                       "client.submit_batch", root_parent);
  root.SetDetailF("group=%s seq=%llu", group.c_str(),
                  static_cast<unsigned long long>(seq));
  uint64_t accepted = 0;
  AVOC_RETURN_IF_ERROR(Execute(
      [&](RemoteVoterClient& client) -> Status {
        // Stamp the attempt span (current on this thread) into the wire
        // trace-context field so the server's span tree joins this trace.
        WireTraceContext wire;
        const WireTraceContext* wire_ptr = nullptr;
        if (const obs::CurrentSpan current = obs::CurrentTraceSpan();
            current.tracer == tracer_ && tracer_ != nullptr &&
            current.context.valid()) {
          wire.trace_id = current.context.trace_id;
          wire.parent_span_id = current.context.span_id;
          wire.flags = current.context.flags;
          wire_ptr = &wire;
        }
        AVOC_ASSIGN_OR_RETURN(accepted,
                              client.SubmitBatchSeq(client_id_, seq, group,
                                                    readings, wire_ptr));
        return Status::Ok();
      },
      root.context(), traced ? "submit_batch" : nullptr));
  return accepted;
}

Result<double> ResilientVoterClient::Query(const std::string& group) {
  double value = 0.0;
  AVOC_RETURN_IF_ERROR(Execute([&](RemoteVoterClient& client) -> Status {
    AVOC_ASSIGN_OR_RETURN(value, client.Query(group));
    return Status::Ok();
  }));
  return value;
}

Result<std::vector<RangePoint>> ResilientVoterClient::QueryRange(
    const std::string& group, uint64_t lo_round, uint64_t hi_round) {
  std::vector<RangePoint> points;
  AVOC_RETURN_IF_ERROR(Execute([&](RemoteVoterClient& client) -> Status {
    AVOC_ASSIGN_OR_RETURN(points, client.QueryRange(group, lo_round, hi_round));
    return Status::Ok();
  }));
  return points;
}

Result<RemoteVoterClient::RemoteHistory> ResilientVoterClient::HistoryGet(
    const std::string& group) {
  RemoteVoterClient::RemoteHistory history;
  AVOC_RETURN_IF_ERROR(Execute([&](RemoteVoterClient& client) -> Status {
    AVOC_ASSIGN_OR_RETURN(history, client.HistoryGet(group));
    return Status::Ok();
  }));
  return history;
}

Status ResilientVoterClient::Ping() {
  return Execute(
      [](RemoteVoterClient& client) -> Status { return client.Ping(); });
}

}  // namespace avoc::runtime
