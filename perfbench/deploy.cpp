#include "deploy.hpp"

#include "serial/archive.hpp"

namespace perfbench {

using hep::json::Value;

Deployment Deployment::boot(const Value& cfg, const std::string& base_dir,
                            const std::function<hep::rpc::Fabric&(std::size_t)>& fabric_for,
                            bool reopen) {
    if (!reopen) {
        check(!std::filesystem::exists(base_dir), "deployment dir already exists: " + base_dir);
    }
    std::filesystem::create_directories(base_dir);
    Deployment d;
    d.base_dir = base_dir;
    const auto nservers = static_cast<std::size_t>(cfg_num(cfg, "servers"));
    const Value& lsm_knobs = cfg_obj(cfg, "lsm");
    std::vector<Value> descriptors;
    for (std::size_t s = 0; s < nservers; ++s) {
        Value sc = Value::make_object();
        Value extra = cfg_obj(cfg, "server");  // copy: object() is non-const
        for (const auto& [k, v] : extra.object()) sc[k] = v;
        sc["address"] = "bench-server-" + std::to_string(s);
        sc["margo"]["rpc_xstreams"] = static_cast<std::int64_t>(cfg_num(cfg, "rpc_xstreams"));
        Value dbs = Value::make_array();
        for (const char* role : {"datasets", "runs", "subruns", "events", "products"}) {
            const auto n = static_cast<std::int64_t>(cfg_num(cfg_obj(cfg, "dbs"), role));
            for (std::int64_t k = 0; k < n; ++k) {
                Value db = Value::make_object();
                const std::string name =
                    std::string(role) + "-" + std::to_string(s) + "-" + std::to_string(k);
                db["name"] = name;
                db["role"] = role;
                db["type"] = "lsm";
                db["path"] = "s" + std::to_string(s) + "/" + name;
                Value knobs = lsm_knobs;
                for (const auto& [k2, v] : knobs.object()) db[k2] = v;
                dbs.push_back(std::move(db));
            }
        }
        Value provider = Value::make_object();
        provider["type"] = "yokan";
        provider["provider_id"] = 1;
        provider["config"]["databases"] = std::move(dbs);
        sc["providers"].push_back(std::move(provider));
        auto svc = hep::bedrock::ServiceProcess::create(fabric_for(s), sc, base_dir);
        if (!svc.ok()) throw std::runtime_error("boot: " + svc.status().to_string());
        descriptors.push_back((*svc)->descriptor());
        d.servers.push_back(std::move(svc.value()));
    }
    d.connection = hep::bedrock::merge_descriptors(descriptors);
    return d;
}

void Deployment::shutdown() {
    for (auto& s : servers) s->shutdown();
    servers.clear();
}

std::vector<Deployment::Db> Deployment::dbs(const std::string& role) const {
    std::vector<Db> out;
    for (const auto& s : servers) {
        for (const auto& desc : s->databases()) {
            if (!role.empty() && desc.role != role) continue;
            auto* p = s->find_provider(desc.provider_id);
            if (!p) continue;
            auto* lsm = dynamic_cast<hep::yokan::lsm::LsmDb*>(p->find_database(desc.name));
            if (lsm) out.push_back({p, desc.name, desc.role, lsm});
        }
    }
    return out;
}

void Deployment::flush_all() const {
    for (const auto& db : dbs()) {
        auto st = db.lsm->flush();
        if (!st.ok()) throw std::runtime_error("flush " + db.name + ": " + st.to_string());
    }
}

LsmTotals lsm_totals(const std::vector<Deployment::Db>& dbs) {
    LsmTotals t;
    for (const auto& db : dbs) {
        const auto b = db.lsm->stats();
        const auto s = db.lsm->lsm_stats();
        t.gets += b.gets;
        t.puts += b.puts;
        t.flushes += s.flushes;
        t.compactions += s.compactions;
        t.cache_hits += s.cache_hits;
        t.cache_misses += s.cache_misses;
        t.decompressions += s.cache_decompressions;
        t.disk_bytes += s.cache_disk_bytes_read;
        t.stall_micros += s.write_stall_micros;
        t.slowdowns += s.write_slowdowns;
        if (!s.files_per_level.empty()) {
            t.l0_files_max = std::max<std::uint64_t>(t.l0_files_max, s.files_per_level[0]);
        }
    }
    return t;
}

namespace {
constexpr hep::rpc::ProviderId kEchoProvider = 77;
}

void define_echo(Deployment& d) {
    for (auto& s : d.servers) {
        s->engine().define<std::string, std::string>(
            "perfbench_echo", kEchoProvider,
            [](const std::string& req) -> hep::Result<std::string> { return req; });
    }
}

Histogram echo_rtt(hep::margo::Engine& client, const Deployment& d, std::size_t n) {
    Histogram h;
    const std::string to = d.servers.front()->address();
    const std::string payload(16, 'e');
    for (std::size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        auto r = client.forward<std::string, std::string>(to, "perfbench_echo", kEchoProvider,
                                                          payload);
        const auto t1 = Clock::now();
        check(r.ok() && *r == payload, "echo RPC failed");
        h.record(ns_between(t0, t1));
    }
    return h;
}

hep::nova::Generator make_generator(const Value& data_cfg, std::uint64_t seed) {
    hep::nova::DatasetConfig c;
    c.seed = seed;
    c.num_files = static_cast<std::uint64_t>(cfg_num(data_cfg, "files"));
    c.events_per_file = static_cast<std::uint64_t>(cfg_num(data_cfg, "events_per_file"));
    return hep::nova::Generator(c);
}

std::string product_bytes(const hep::nova::EventRecord& rec) {
    return hep::serial::to_string(rec.slices);
}

std::uint64_t fnv(std::uint64_t h, std::string_view bytes) {
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

}  // namespace perfbench
