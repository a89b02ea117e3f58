// Request/reply messaging over mailboxes.
//
// Every Bridge and EFS service is a simulated process that owns a Mailbox (a
// Channel of byte Envelopes) and serves typed requests.  The wire format is
// produced by util::serde, so payloads are genuine byte strings — nothing is
// smuggled through shared pointers except the mailbox addresses themselves.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/sim/channel.hpp"
#include "src/sim/runtime.hpp"
#include "src/util/serde.hpp"
#include "src/util/status.hpp"

namespace bridge::sim {

class Mailbox;

/// Location of a service: its mailbox plus the node it lives on (the node
/// determines message latency).
///
/// The Get Info reply and parallel-open worker lists carry addresses.  Within
/// the simulation an address is a capability (mailbox pointer + node), so it
/// writes its own wire layout: the pointer as a u64, then the node; on a real
/// network this would be a host/port pair.
struct Address {
  Mailbox* box = nullptr;
  NodeId node = 0;

  [[nodiscard]] bool valid() const noexcept { return box != nullptr; }
  friend bool operator==(const Address& a, const Address& b) noexcept {
    return a.box == b.box;
  }

  void encode(util::Writer& w) const {
    w.u64(reinterpret_cast<std::uintptr_t>(box));
    w.u32(node);
  }
  static Address decode(util::Reader& r) {
    Address addr;
    addr.box = reinterpret_cast<Mailbox*>(static_cast<std::uintptr_t>(r.u64()));
    addr.node = r.u32();
    return addr;
  }
};

/// One message.  `type` identifies the request/reply kind (each protocol
/// defines its own enum); `correlation` matches replies to calls.
///
/// Two observability fields ride along (set by post(), free on the modeled
/// wire): `trace` is the sender's trace context so servers can parent their
/// service spans under the caller's span, and `sent_at` is the virtual send
/// time so receivers can split queue wait from service time.
struct Envelope {
  std::uint32_t type = 0;
  std::uint64_t correlation = 0;
  Address reply_to;
  std::vector<std::byte> payload;
  obs::TraceContext trace;
  SimTime sent_at{0};
};

/// Modeled fixed wire overhead of an envelope (headers, addressing).
inline constexpr std::size_t kEnvelopeOverheadBytes = 24;

class Mailbox : public Channel<Envelope> {
 public:
  using Channel<Envelope>::Channel;
  [[nodiscard]] Address address() noexcept { return Address{this, node()}; }
};

/// Deliver `env` to `dst`, modeling latency and accounting traffic.  The
/// sender's trace context and the virtual send time are stamped on the
/// envelope here, so every RPC boundary propagates them for free.
inline void post(const Context& ctx, const Address& dst, Envelope env) {
  std::size_t bytes = env.payload.size() + kEnvelopeOverheadBytes;
  SimTime latency =
      ctx.runtime().topology().message_latency(ctx.node(), dst.node, bytes);
  ctx.runtime().account_message(ctx.node(), dst.node, bytes);
  env.sent_at = ctx.now();
  obs::Tracer& tracer = ctx.runtime().tracer();
  if (tracer.enabled()) env.trace = tracer.current_context(ctx.pid());
  // Request attribution rides on every envelope regardless of tracing: the
  // receiver adopts the id so its queue/service time lands on the right
  // ledger row.  Free on the modeled wire (kEnvelopeOverheadBytes is fixed).
  env.trace.request_id = ctx.runtime().stages().active_request(ctx.pid());
  dst.box->send(std::move(env), latency);
}

/// Reply payloads carry a status prefix followed by the response body.
inline std::vector<std::byte> make_reply_payload(
    const util::Status& status, std::span<const std::byte> body = {}) {
  util::Writer w(body.size() + 16);
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
  w.raw(body);
  return std::move(w).take();
}

/// Split a reply payload back into status + body bytes.
inline util::Result<std::vector<std::byte>> parse_reply_payload(
    std::span<const std::byte> payload) {
  util::Reader r(payload);
  auto code = static_cast<util::ErrorCode>(r.u8());
  std::string message = r.str();
  if (code != util::ErrorCode::kOk) {
    return util::Status(code, std::move(message));
  }
  auto rest = r.raw(r.remaining());
  return std::vector<std::byte>(rest.begin(), rest.end());
}

/// Server-side helper: send a status+body reply for `request`.
inline void send_reply(const Context& ctx, const Envelope& request,
                       const util::Status& status,
                       std::span<const std::byte> body = {}) {
  if (!status.is_ok()) {
    // Error replies are rare enough to account per occurrence: the USE
    // report's "errors" column and the flight recorder both read them.
    ctx.runtime()
        .metrics()
        .counter("rpc.n" + std::to_string(ctx.node()) + ".error_replies")
        .add(1);
    ctx.runtime().flight().record(ctx.now().us(), ctx.node(), "rpc.error",
                                  status.to_string());
  }
  Envelope reply;
  reply.type = request.type;
  reply.correlation = request.correlation;
  reply.payload = make_reply_payload(status, body);
  post(ctx, request.reply_to, std::move(reply));
}

/// Client-side call helper.  Each client process stacks one of these; it owns
/// the reply mailbox for the lifetime of the process.
class RpcClient {
 public:
  explicit RpcClient(Context& ctx)
      : ctx_(ctx),
        reply_box_(ctx.runtime().scheduler(), ctx.node()),
        wait_us_(&ctx.runtime().metrics().histogram(
            "rpc.n" + std::to_string(ctx.node()) + ".wait_us")) {}

  /// Issue `type(request_bytes)` to `service` and block for the reply.
  /// Returns the reply body, or the error status the server sent.
  util::Result<std::vector<std::byte>> call(const Address& service,
                                            std::uint32_t type,
                                            std::span<const std::byte> request) {
    // Root span for the round trip: if the caller has no span open this
    // starts a fresh trace, and the callee's spans parent under it.
    ScopedSpan span(ctx_, "rpc.call");
    std::uint64_t corr = next_correlation_++;
    Envelope env;
    env.type = type;
    env.correlation = corr;
    env.reply_to = reply_box_.address();
    env.payload.assign(request.begin(), request.end());
    post(ctx_, service, std::move(env));
    return wait_reply(corr);
  }

  /// Fire-and-forget request carrying this client's reply address (the
  /// callee may reply later; pair with wait_reply).
  std::uint64_t call_async(const Address& service, std::uint32_t type,
                           std::span<const std::byte> request) {
    std::uint64_t corr = next_correlation_++;
    Envelope env;
    env.type = type;
    env.correlation = corr;
    env.reply_to = reply_box_.address();
    env.payload.assign(request.begin(), request.end());
    post(ctx_, service, std::move(env));
    return corr;
  }

  /// Block for the reply to a specific call_async correlation id.  Replies
  /// to other outstanding calls that arrive first are stashed, not dropped.
  util::Result<std::vector<std::byte>> wait_reply(std::uint64_t correlation) {
    for (auto it = stash_.begin(); it != stash_.end(); ++it) {
      if (it->correlation == correlation) {
        Envelope reply = std::move(*it);
        stash_.erase(it);
        return parse_reply_payload(reply.payload);
      }
    }
    // Blocked time per node: a bridge server's reply waits measure how long
    // it spent blocked on its LFS calls, which the report subtracts from its
    // service time to get the server's own (exclusive) busy share.
    std::int64_t wait_start_us = ctx_.now().us();
    while (true) {
      Envelope reply = reply_box_.recv();
      if (reply.correlation != correlation) {
        stash_.push_back(std::move(reply));
        continue;
      }
      wait_us_->record(
          static_cast<std::uint64_t>(ctx_.now().us() - wait_start_us));
      return parse_reply_payload(reply.payload);
    }
  }

  [[nodiscard]] Address reply_address() noexcept { return reply_box_.address(); }
  [[nodiscard]] Context& context() const noexcept { return ctx_; }

 private:
  Context& ctx_;
  Mailbox reply_box_;
  obs::Histogram* wait_us_;
  std::vector<Envelope> stash_;
  std::uint64_t next_correlation_ = 1;
};

/// Completion helper for a fan-out of async calls: issue N `call_async`,
/// then collect the replies — which may arrive in any order — without
/// hand-rolling correlation bookkeeping at every call site.
///
/// Replies are surfaced in ISSUE order regardless of arrival order (the
/// underlying wait_reply stashes early arrivals).  wait_each() is the one
/// drain loop: it always drains every outstanding reply, so an error in one
/// call never leaves stray replies queued against the client for a later
/// operation to trip over.
class AsyncBatch {
 public:
  using Reply = util::Result<std::vector<std::byte>>;

  explicit AsyncBatch(RpcClient& rpc) : rpc_(&rpc) {}

  /// Issue one call; returns its index within the batch.
  std::size_t call(const Address& service, std::uint32_t type,
                   std::span<const std::byte> request) {
    correlations_.push_back(rpc_->call_async(service, type, request));
    return correlations_.size() - 1;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return correlations_.size();
  }

  /// Drain every reply in issue order, handing call i's result to
  /// `on_reply(i, reply)` as soon as it is in, so per-reply work overlaps
  /// the wait for later replies.  `on_reply` returns the status it makes of
  /// the reply; a util::StatusError it throws counts as that status.  The
  /// drain continues past any error, and the first error is returned.
  template <typename OnReply>
  util::Status wait_each(OnReply&& on_reply) {
    // One span covering the whole reassembly wait: the gap between the
    // fan-out and the slowest constituent's reply.
    ScopedSpan span(rpc_->context(), "rpc.batch_wait");
    std::vector<std::uint64_t> correlations = std::move(correlations_);
    correlations_.clear();
    util::Status first = util::ok_status();
    for (std::size_t i = 0; i < correlations.size(); ++i) {
      util::Status status = util::ok_status();
      try {
        status = on_reply(i, rpc_->wait_reply(correlations[i]));
      } catch (const util::StatusError& e) {
        status = e.status();
      }
      if (!status.is_ok() && first.is_ok()) first = std::move(status);
    }
    return first;
  }

  /// Block until every reply has arrived; element i is call i's result.
  std::vector<Reply> wait_all() {
    std::vector<Reply> results;
    results.reserve(correlations_.size());
    // Each error stays in its own element of `results`.
    (void)wait_each([&](std::size_t, Reply reply) {
      results.push_back(std::move(reply));
      return util::ok_status();
    });
    return results;
  }

  /// Drain every reply and report the first error (ok if all succeeded).
  /// For callers that only need success/failure, not the payloads.
  util::Status wait_all_ok() {
    return wait_each(
        [](std::size_t, const Reply& reply) { return reply.status(); });
  }

 private:
  RpcClient* rpc_;
  std::vector<std::uint64_t> correlations_;
};

}  // namespace bridge::sim
