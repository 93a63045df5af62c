#include "runtime/chain.hpp"

#include <gtest/gtest.h>

#include "nf/ip_filter.hpp"
#include "nf/monitor.hpp"
#include "test_helpers.hpp"

namespace speedybox::runtime {
namespace {

TEST(ServiceChain, AddNfAppendsInChainOrder) {
  nf::Monitor monitor;
  nf::IpFilter filter{{}};
  ServiceChain chain;
  chain.add_nf(&monitor);
  chain.add_nf(&filter);

  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(&chain.nf(0), &monitor);
  EXPECT_EQ(&chain.nf(1), &filter);
  EXPECT_EQ(chain.nf_names(),
            (std::vector<std::string>{"monitor", "ipfilter"}));
}

TEST(ServiceChain, EmplaceNfOwnsInstance) {
  ServiceChain chain;
  auto& monitor = chain.emplace_nf<nf::Monitor>("owned-monitor");
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_EQ(&chain.nf(0), &monitor);
  EXPECT_EQ(chain.nf(0).name(), "owned-monitor");
}

TEST(ServiceChain, NameAccessor) {
  ServiceChain chain{"my-chain"};
  EXPECT_EQ(chain.name(), "my-chain");
}

}  // namespace
}  // namespace speedybox::runtime
