// The canonical metric lists. BENCHMARK.json names exactly these; every run
// reports all of them (a layer a workload bypasses reports 0, see README.md).
#pragma once

#include <stdexcept>
#include <utility>

#include "bench.hpp"

namespace perfbench {

inline const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics() {
    static const std::vector<std::pair<const char*, const char*>> kList = {
        {"throughput_per_s", "1/s"},  {"throughput_alt_per_s", "1/s"},
        {"latency_us", "us"},         {"latency_tail_us", "us"},
        {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    };
    return kList;
}

inline const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
    static const std::vector<std::pair<const char*, const char*>> kList = {
        {"rpc.msgs_per_kslice", "count"},
        {"rpc.bytes_per_slice", "B"},
        {"rpc.msgs_per_op", "count"},
        {"rpc.bytes_per_op", "B"},
        {"rpc.threads", "count"},
        {"rpc.connections", "count"},
        {"margo.echo_rtt_p50_us", "us"},
        {"margo.echo_rtt_p99_us", "us"},
        {"qos.queue_wait_p99_us.interactive", "us"},
        {"qos.queue_wait_p99_us.batch", "us"},
        {"qos.queue_wait_p99_us.bulk", "us"},
        {"qos.exec_p99_us", "us"},
        {"qos.shed_ratio", "ratio"},
        {"yokan.get_p50_us", "us"},
        {"yokan.get_multi_us_per_key", "us"},
        {"yokan.list_keys_us_per_key", "us"},
        {"yokan.put_packed_us_per_item", "us"},
        {"lsm.get_us", "us"},
        {"lsm.block_cache_hit_ratio", "ratio"},
        {"lsm.disk_bytes_per_get", "B"},
        {"lsm.decompressions_per_get", "count"},
        {"lsm.flushes", "count"},
        {"lsm.compactions", "count"},
        {"lsm.write_stall_ms", "ms"},
        {"lsm.write_slowdowns", "count"},
        {"lsm.l0_files_max", "count"},
        {"lsm.write_amp", "ratio"},
        {"lsm.space_amp", "ratio"},
        {"serial.deserialize_ns_per_slice", "ns"},
        {"serial.serialize_ns_per_slice", "ns"},
        {"nova.cut_ns_per_slice", "ns"},
        {"hepnos.pep_wait_share", "ratio"},
        {"hepnos.pep_process_share", "ratio"},
        {"hepnos.write_batch_flush_p50_us", "us"},
        {"hepnos.publish_ms", "ms"},
        {"cache.hit_ratio", "ratio"},
        {"cache.renewals_per_read", "ratio"},
        {"cache.stale_drops_per_read", "ratio"},
        {"cache.evictions", "count"},
        {"query.bytes_scanned_per_returned", "ratio"},
        {"query.rows_examined_per_s", "1/s"},
        {"query.pages_prefetched_ratio", "ratio"},
        {"columnar.chunks_per_kevent", "count"},
        {"columnar.shred_ns_per_event", "ns"},
        {"replica.ships_per_write", "ratio"},
        {"replica.max_lag", "count"},
        {"replica.ship_failures", "count"},
        {"htf.read_us_per_event", "us"},
        {"bench.trace_overhead_ratio", "ratio"},
        {"bench.gen_lag_p99_us", "us"},
        {"bench.busy_threads", "count"},
    };
    return kList;
}

/// Fill every listed layer metric the workload did not measure with 0 and
/// reject names that are not listed, so the output always matches the list.
inline void complete_layers(RunResult& r, bool trace) {
    std::map<std::string, Metric> out;
    for (const auto& [name, unit] : layer_metrics()) {
        auto it = r.layer.find(name);
        out[name] = {it == r.layer.end() ? 0.0 : it->second.value, unit};
    }
    for (const auto& [name, m] : r.layer) {
        if (!out.count(name)) throw std::logic_error("unlisted layer metric " + name);
    }
    r.layer = std::move(out);
    for (const auto& [name, unit] : end_to_end_metrics()) {
        if (!trace && !r.end_to_end.count(name)) throw std::logic_error("missing metric " + std::string(name));
        r.end_to_end[name].unit = unit;
    }
}

}  // namespace perfbench
