#include "runtime/chain.hpp"

#include <stdexcept>

namespace speedybox::runtime {

void ServiceChain::add_nf(nf::NetworkFunction* nf) { nfs_.push_back(nf); }

std::vector<std::string> ServiceChain::nf_names() const {
  std::vector<std::string> names;
  names.reserve(nfs_.size());
  for (const nf::NetworkFunction* nf : nfs_) names.push_back(nf->name());
  return names;
}

std::unique_ptr<ServiceChain> ServiceChain::clone(
    const std::string& name_suffix) const {
  auto replica = std::make_unique<ServiceChain>(name_ + name_suffix);
  for (const nf::NetworkFunction* nf : nfs_) {
    // clone_checked throws std::logic_error naming the NF when clone() is
    // unimplemented — replication fails loudly at setup, never at runtime.
    std::unique_ptr<nf::NetworkFunction> cloned = nf->clone_checked();
    nf::NetworkFunction& ref = *cloned;
    replica->owned_.push_back(std::move(cloned));
    replica->add_nf(&ref);
  }
  return replica;
}

}  // namespace speedybox::runtime
