#include "io/ingest_executor.hpp"

namespace speedybox::io {

void IngestExecutor::submit(std::vector<net::Packet>&& batch) {
  if (gate_) {
    // Host-boundary admission: shed packets compact out of the batch here,
    // so `submitted_` (and everything downstream) counts only the
    // survivors that actually reached the executor.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (gate_(batch[i])) {
        if (kept != i) batch[kept] = std::move(batch[i]);
        ++kept;
      } else {
        ++gate_shed_;
      }
    }
    batch.resize(kept);
  }
  submitted_ += batch.size();
  executor_.submit(batch, capture_outputs_);
}

}  // namespace speedybox::io
