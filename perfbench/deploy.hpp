// Booting and inspecting the real stack for one workload: bedrock service
// processes in this process, their lsm databases, and the hepnos client.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bedrock/service.hpp"
#include "bench.hpp"
#include "hepnos/hepnos.hpp"
#include "nova/generator.hpp"
#include "yokan/lsm/lsm_db.hpp"

namespace perfbench {

/// One workload's deployment: `servers` bedrock processes built from the
/// workload's "deployment" section, each on the fabric `fabric_for(i)`.
struct Deployment {
    std::vector<std::unique_ptr<hep::bedrock::ServiceProcess>> servers;
    hep::json::Value connection;
    std::string base_dir;

    /// Boot from `cfg` (a workloads.json "deployment" section); lsm
    /// directories go under `base_dir`, which must not exist yet unless
    /// `reopen` is set.
    static Deployment boot(const hep::json::Value& cfg, const std::string& base_dir,
                           const std::function<hep::rpc::Fabric&(std::size_t)>& fabric_for,
                           bool reopen = false);

    void shutdown();

    /// Every lsm database of `role` ("" = all roles), with its provider.
    struct Db {
        hep::yokan::Provider* provider;
        std::string name;
        std::string role;
        hep::yokan::lsm::LsmDb* lsm;
    };
    [[nodiscard]] std::vector<Db> dbs(const std::string& role = "") const;

    /// Flush every database (memtables sealed and written to L0).
    void flush_all() const;
};

/// Sums of the lsm counters over a set of databases.
struct LsmTotals {
    std::uint64_t gets = 0, puts = 0;
    std::uint64_t flushes = 0, compactions = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0, decompressions = 0;
    std::uint64_t disk_bytes = 0, stall_micros = 0, slowdowns = 0;
    std::uint64_t l0_files_max = 0;
};
LsmTotals lsm_totals(const std::vector<Deployment::Db>& dbs);

/// Register the no-op echo RPC the margo probe times, on every server.
void define_echo(Deployment& d);
/// Time `n` echo round trips from `client` to server 0 (ns samples).
Histogram echo_rtt(hep::margo::Engine& client, const Deployment& d, std::size_t n);

/// The generator of a workload's dataset, derived from the run seed.
hep::nova::Generator make_generator(const hep::json::Value& data_cfg, std::uint64_t seed);

/// Serialized product bytes of an event, as the loader stores them.
std::string product_bytes(const hep::nova::EventRecord& rec);

/// FNV-1a over a byte string, folded into `h`.
std::uint64_t fnv(std::uint64_t h, std::string_view bytes);

}  // namespace perfbench
