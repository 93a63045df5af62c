#include "timed_nf.hpp"

#include "nf/registry.hpp"

namespace wallbench {

using speedybox::core::SpeedyBoxContext;
using speedybox::net::Packet;
using speedybox::net::PacketBatch;

TimedNf::TimedNf(std::unique_ptr<speedybox::nf::NetworkFunction> inner,
                 std::string kind, SpanLog* spans)
    : NetworkFunction(inner->name()),
      inner_(std::move(inner)),
      kind_(std::move(kind)),
      spans_(spans) {
  if (spans_ != nullptr) span_name_ = spans_->intern("nf." + kind_);
}

void TimedNf::process(Packet& packet, SpeedyBoxContext* ctx) {
  const std::int64_t start = now_ns();
  inner_->process(packet, ctx);
  const std::int64_t end = now_ns();
  ++calls_;
  busy_ns_ += static_cast<std::uint64_t>(end - start);
  if (packet.dropped()) ++drops_;
  if (spans_ != nullptr) spans_->child(span_name_, start, end);
}

void TimedNf::process_batch(PacketBatch& batch,
                            std::span<SpeedyBoxContext* const> ctxs) {
  const std::size_t live = batch.valid_count();
  const std::int64_t start = now_ns();
  inner_->process_batch(batch, ctxs);
  const std::int64_t end = now_ns();
  calls_ += live;
  busy_ns_ += static_cast<std::uint64_t>(end - start);
  drops_ += live - batch.valid_count();
  if (spans_ != nullptr) spans_->child(span_name_, start, end);
}

std::unique_ptr<speedybox::nf::NetworkFunction> TimedNf::clone() const {
  return std::make_unique<TimedNf>(inner_->clone_checked(), kind_, nullptr);
}

std::unique_ptr<speedybox::runtime::ServiceChain> build_timed_chain(
    const speedybox::plan::ChainSpec& spec, SpanLog* spans) {
  spec.validate();
  const auto& registry = speedybox::nf::Registry::instance();
  auto chain = std::make_unique<speedybox::runtime::ServiceChain>(spec.name);
  int index = 0;
  for (const speedybox::nf::NfSpec& nf_spec : spec.nfs) {
    const std::string label = nf_spec.kind + "-" + std::to_string(index++);
    chain->adopt_nf(std::make_unique<TimedNf>(registry.make(nf_spec, label),
                                              nf_spec.kind, spans));
  }
  return chain;
}

}  // namespace wallbench
