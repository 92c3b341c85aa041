// The traced run's lower-layer replay: a seeded sample of the workload's own
// product keys is read again at each layer below the client API, so every
// layer's self cost is measured on the same data.
#pragma once

#include <vector>

#include "deploy.hpp"

namespace perfbench {

/// One sampled event of the workload's dataset.
struct SampleEvent {
    hep::nova::EventRecord rec;
    std::string container;  // event container key (the placement key)
    std::string key;        // full product key of its slices product
    std::string bytes;      // the product bytes the generator implies
};

/// `n` events of dataset `ds` picked by `seed`, with their product keys and bytes.
std::vector<SampleEvent> sample_events(const hep::hepnos::DataSet& ds,
                                       const hep::nova::Generator& gen, std::size_t n,
                                       std::uint64_t seed);

/// Replay `sample` through yokan (get_view, get_multi, list_keys, packed
/// put_multi), the lsm backend directly, the serializer and the cut, and
/// the margo echo probe; fills the yokan.*, lsm.get_us, serial.*, nova.*
/// and margo.* layer metrics not already set.
void replay_layers(RunResult& r, const hep::hepnos::DataStore& store, Deployment& dep,
                   const std::vector<SampleEvent>& sample);

/// Block-cache and read-path ratios from lsm counter deltas.
void lsm_read_ratios(RunResult& r, const LsmTotals& before, const LsmTotals& after);

}  // namespace perfbench
