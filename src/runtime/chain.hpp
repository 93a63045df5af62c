// ServiceChain: the wiring of a SpeedyBox deployment — an ordered set of
// NFs, the Global MAT (one record per flow, holding what each NF recorded
// and the consolidated rule), and the Packet Classifier. This is the
// object users of the library build and hand to a ChainRunner.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/global_mat.hpp"
#include "nf/network_function.hpp"

namespace speedybox::runtime {

class ServiceChain {
 public:
  explicit ServiceChain(std::string name = "chain")
      : name_(std::move(name)) {}

  /// Append an NF (non-owning: NFs usually live in the caller so their
  /// state can be inspected after a run). Its chain position is the index
  /// its recordings carry in every flow record.
  void add_nf(nf::NetworkFunction* nf);

  /// Convenience for owning use: the chain keeps the NF alive.
  template <typename Nf, typename... Args>
  Nf& emplace_nf(Args&&... args) {
    auto owned = std::make_unique<Nf>(std::forward<Args>(args)...);
    Nf& ref = *owned;
    owned_.push_back(std::move(owned));
    add_nf(&ref);
    return ref;
  }

  /// Owning append of an already-built NF — e.g. one wrapped in a
  /// runtime::FaultInjector after construction.
  nf::NetworkFunction& adopt_nf(std::unique_ptr<nf::NetworkFunction> nf) {
    nf::NetworkFunction& ref = *nf;
    owned_.push_back(std::move(nf));
    add_nf(&ref);
    return ref;
  }

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return nfs_.size(); }
  /// NF names in chain order (labels telemetry's per-NF metrics under).
  std::vector<std::string> nf_names() const;
  nf::NetworkFunction& nf(std::size_t index) { return *nfs_[index]; }
  const nf::NetworkFunction& nf(std::size_t index) const {
    return *nfs_[index];
  }

  core::GlobalMat& global_mat() noexcept { return global_mat_; }
  const core::GlobalMat& global_mat() const noexcept { return global_mat_; }
  core::PacketClassifier& classifier() noexcept { return classifier_; }

  /// Aggregated flow-table telemetry for the whole deployment unit: the
  /// classifier's table, the Global MAT's record array, and every NF's
  /// per-flow state table (flow_state_stats). Feeds the shard's
  /// flow_table_* metrics.
  core::FlowTableStats flow_table_stats() const {
    core::FlowTableStats stats = classifier_.table_stats();
    stats.merge_from(global_mat_.record_stats());
    for (const nf::NetworkFunction* nf : nfs_) {
      stats.merge_from(nf->flow_state_stats());
    }
    return stats;
  }

  /// Replicate the chain for a sharded deployment: every NF is clone()d
  /// (configuration copied, per-flow state fresh) and owned by the new
  /// chain, which gets its own classifier and Global MAT. Throws
  /// std::logic_error if any NF does not support clone().
  std::unique_ptr<ServiceChain> clone(const std::string& name_suffix) const;

 private:
  std::string name_;
  std::vector<nf::NetworkFunction*> nfs_;
  std::vector<std::unique_ptr<nf::NetworkFunction>> owned_;
  core::GlobalMat global_mat_;
  core::PacketClassifier classifier_;
};

}  // namespace speedybox::runtime
