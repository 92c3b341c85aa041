// Workload `ingest`: the HDF2HEPnOS step. Set-up writes HTF files from the
// seeded generator; each measured iteration loads them with
// dataloader::ingest_files into a fresh lsm deployment inside one
// begin_ingest/publish epoch, then flushes every database (settle). After
// each iteration the servers stop, the same directories are reopened and the
// stored data is checked against the generator.
#include <atomic>
#include <filesystem>
#include <thread>

#include "columnar/writer.hpp"
#include "dataloader/loader.hpp"
#include "deploy.hpp"
#include "replay.hpp"
#include "rpc/network.hpp"

namespace perfbench {

using namespace hep;
using hep::json::Value;

namespace {

constexpr const char* kDataset = "nova/ingest";
constexpr int kRanks = 2;                  // loader (and read-back) ranks
constexpr std::int64_t kLoadBatch = 4096;  // events per loader batch
// The dataset comes in kVariants versions, each from its own generator seed
// derived from the run seed; iterations cycle through them. The bytes left
// in the memtables at publish (what settle has to flush) depend on the exact
// dataset size, so a median over variants measures the flush path rather
// than one dataset's remainder.
constexpr std::uint64_t kVariants = 4;

struct Expected {
    std::uint64_t events = 0, slices = 0, checksum = 0, product_bytes = 0;
};

/// Order-independent checksum: the sum of per-event hashes of
/// (run, subrun, event, product bytes).
std::uint64_t event_hash(std::uint64_t run, std::uint64_t subrun, std::uint64_t event,
                         std::string_view bytes) {
    std::uint64_t h = 1469598103934665603ull;
    const std::uint64_t ids[3] = {run, subrun, event};
    h = fnv(h, std::string_view(reinterpret_cast<const char*>(ids), sizeof(ids)));
    return fnv(h, bytes);
}

Expected expected_of(const nova::Generator& gen) {
    Expected e;
    for (std::uint64_t f = 0; f < gen.config().num_files; ++f) {
        for (const auto& rec : gen.make_file_events(f)) {
            const auto bytes = product_bytes(rec);
            ++e.events;
            e.slices += rec.slices.size();
            e.product_bytes += bytes.size();
            e.checksum += event_hash(rec.run, rec.subrun, rec.event, bytes);
        }
    }
    return e;
}

/// Read the whole dataset back with a PEP pass and fold it as expected_of().
Expected read_back(const hepnos::DataStore& store, int ranks) {
    Expected got;
    std::mutex mu;
    mpisim::run_ranks(ranks, [&](mpisim::Comm& comm) {
        hepnos::DataSet ds = store[kDataset];
        hepnos::ParallelEventProcessor pep(store, comm, {});
        pep.prefetch<std::vector<nova::Slice>>(nova::kSliceLabel);
        Expected local;
        pep.process(ds, [&](const hepnos::Event& ev, const hepnos::ProductCache& cache) {
            std::vector<nova::Slice> s;
            if (!cache.load(ev, nova::kSliceLabel, s) && !ev.load(nova::kSliceLabel, s)) return;
            const auto bytes = serial::to_string(s);
            ++local.events;
            local.slices += s.size();
            local.checksum +=
                event_hash(ev.run_number(), ev.subrun_number(), ev.number(), bytes);
        });
        std::lock_guard<std::mutex> lock(mu);
        got.events += local.events;
        got.slices += local.slices;
        got.checksum += local.checksum;
    });
    return got;
}

}  // namespace

RunResult run_ingest(const RunOptions& opt) {
    RunResult r;
    Tracer tr(opt.trace);
    const Value& data = cfg_obj(opt.cfg, "data");
    const Value& deployment = cfg_obj(opt.cfg, "deployment");

    struct Variant {
        nova::Generator gen;
        std::vector<std::string> files;
        Expected want;
    };
    std::vector<Variant> variants;
    for (std::uint64_t v = 0; v < kVariants; ++v) {
        variants.push_back({make_generator(data, opt.seed * 1000003ull + v), {}, {}});
    }

    // Set-up, repeated: HTF files and reference figures for every variant,
    // plus a booted deployment.
    std::vector<double> setup;
    int boots = 0;
    std::unique_ptr<rpc::Network> net;
    Deployment dep;
    auto boot = [&] {
        net = std::make_unique<rpc::Network>();
        dep = Deployment::boot(deployment, opt.work_dir + "/ingest-" + std::to_string(boots++),
                               [&](std::size_t) -> rpc::Fabric& { return *net; });
    };
    auto teardown = [&](bool remove) {
        dep.shutdown();
        net.reset();
        if (remove) std::filesystem::remove_all(dep.base_dir);
    };
    for (int k = 0; k < kSetupRepeats; ++k) {
        const std::string dir = opt.work_dir + "/htf-" + std::to_string(k);
        if (k > 0) {
            teardown(true);
            std::filesystem::remove_all(opt.work_dir + "/htf-" + std::to_string(k - 1));
        }
        const auto t0 = Clock::now();
        for (std::uint64_t v = 0; v < kVariants; ++v) {
            auto& var = variants[v];
            const std::string vdir = dir + "/v" + std::to_string(v);
            std::filesystem::create_directories(vdir);
            var.files.clear();
            for (std::uint64_t f = 0; f < var.gen.config().num_files; ++f) {
                var.files.push_back(vdir + "/file-" + std::to_string(f) + ".htf");
                auto st = var.gen.write_htf_file(f, var.files.back());
                if (!st.ok()) throw std::runtime_error("write_htf_file: " + st.to_string());
            }
            var.want = expected_of(var.gen);
        }
        boot();
        setup.push_back(seconds_since(t0));
    }
    r.end_to_end["setup_s"] = {median(setup), "s"};
    r.named["setup_s"] = r.end_to_end["setup_s"];
    r.info["events_variant0"] = variants[0].want.events;
    r.info["slices_variant0"] = variants[0].want.slices;
    r.info["product_bytes_variant0"] = variants[0].want.product_bytes;

    std::vector<double> rate, rate_settled, wall_us, publish_us, settle_us, stall_ms, flushes,
        compactions, slowdowns, write_amp, space_amp, rate_traced;
    std::uint64_t l0_max = 0;
    Census census;
    const auto t_run = Clock::now();
    Tracer off(false);
    const double traced_from = opt.trace ? opt.seconds / 2 : 1e30;
    for (int it = 0;; ++it) {
        Tracer& t = seconds_since(t_run) >= traced_from ? tr : off;
        const auto& [gen, files, want] = variants[static_cast<std::size_t>(it) % kVariants];
        if (it > 0) boot();
        auto store = hepnos::DataStore::connect(*net, dep.connection);
        const auto products = dep.dbs("products");
        const auto lsm0 = lsm_totals(products);
        const auto wchar0 = io_wchar();

        // L0 depth sampled while the ingest runs.
        std::atomic<bool> sampling{true};
        std::thread sampler([&] {
            while (sampling.load()) {
                l0_max = std::max(l0_max, lsm_totals(products).l0_files_max);
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        });
        Span iter(t, "ingest.iteration");
        const auto t0 = Clock::now();
        auto epoch = store.begin_ingest();
        if (!epoch.ok()) throw std::runtime_error("begin_ingest: " + epoch.status().to_string());
        dataloader::LoaderStats loaded;
        {
            Span s(t, "dataloader.ingest_files", iter.id());
            mpisim::run_ranks(kRanks, [&](mpisim::Comm& comm) {
                auto st = dataloader::ingest_files(store, comm, files, kDataset, kLoadBatch);
                if (comm.rank() == 0) loaded = st;
            });
        }
        const auto t_pub = Clock::now();
        {
            Span s(t, "hepnos.publish", iter.id());
            auto st = store.publish(*epoch);
            if (!st.ok()) throw std::runtime_error("publish: " + st.to_string());
        }
        const auto t_ack = Clock::now();
        dep.flush_all();
        const auto t_settled = Clock::now();
        sampling = false;
        sampler.join();
        const auto lsm1 = lsm_totals(products);
        const double user = static_cast<double>(want.product_bytes);
        write_amp.push_back(static_cast<double>(io_wchar() - wchar0) / user);
        space_amp.push_back(static_cast<double>(dir_bytes(dep.base_dir)) / user);

        ++r.attempted;
        check(loaded.events_stored == want.events && loaded.slices_stored == want.slices,
              "loader reported different event/slice counts");
        const double secs = std::chrono::duration<double>(t_ack - t0).count();
        (&t == &tr ? rate_traced : rate).push_back(static_cast<double>(want.slices) / secs);
        rate_settled.push_back(static_cast<double>(want.slices) /
                               std::chrono::duration<double>(t_settled - t0).count());
        publish_us.push_back(static_cast<double>(ns_between(t_pub, t_ack)) / 1000.0);
        wall_us.push_back(secs * 1e6);
        settle_us.push_back(static_cast<double>(ns_between(t_ack, t_settled)) / 1000.0);
        stall_ms.push_back(static_cast<double>(lsm1.stall_micros - lsm0.stall_micros) / 1000.0);
        flushes.push_back(static_cast<double>(lsm1.flushes - lsm0.flushes) /
                          static_cast<double>(products.size()));
        compactions.push_back(static_cast<double>(lsm1.compactions - lsm0.compactions) /
                              static_cast<double>(products.size()));
        slowdowns.push_back(static_cast<double>(lsm1.slowdowns - lsm0.slowdowns));

        // Output check (untimed): acknowledged data survives a restart.
        store = hepnos::DataStore();
        teardown(false);
        net = std::make_unique<rpc::Network>();
        dep = Deployment::boot(deployment, dep.base_dir,
                               [&](std::size_t) -> rpc::Fabric& { return *net; },
                               /*reopen=*/true);
        store = hepnos::DataStore::connect(*net, dep.connection);
        const Expected got = read_back(store, kRanks);
        check(got.events == want.events, "after restart: event count differs");
        check(got.slices == want.slices, "after restart: slice count differs");
        check(got.checksum == want.checksum, "after restart: product checksum differs");
        // Decided once, so the traced run's replay always follows the last
        // measured iteration.
        const bool last = it + 1 >= 3 && seconds_since(t_run) >= opt.seconds;
        if (last && opt.trace) {
            hepnos::DataSet ds = store[kDataset];
            auto sample = sample_events(ds, gen, 512, opt.seed);
            // htf: parse the set-up files again.
            const auto h0 = Clock::now();
            std::uint64_t parsed = 0;
            for (const auto& f : files) {
                Span s(tr, "htf.read_htf_file");
                auto ev = nova::Generator::read_htf_file(f);
                check(ev.ok(), "read_htf_file failed");
                parsed += ev->size();
            }
            r.put("htf.read_us_per_event",
                  static_cast<double>(ns_between(h0, Clock::now())) / 1000.0 /
                      static_cast<double>(parsed),
                  "us");
            // columnar: shred the sample through a standalone column writer.
            auto counters = std::make_shared<columnar::WriterCounters>();
            auto opts = store.impl()->columnar_options();
            opts.enabled = true;
            columnar::ColumnWriter writer(opts, columnar::SchemaRegistry::with_builtins(),
                                          counters,
                                          [](const yokan::DatabaseHandle&, std::string,
                                             hep::Buffer) {});
            const auto s0 = Clock::now();
            {
                Span s(tr, "columnar.shred");
                for (const auto& e : sample) {
                    writer.observe(store.impl()->locate(hepnos::Role::kProducts, e.container),
                                   e.key, hep::Buffer::adopt(std::string(e.bytes)));
                }
                writer.flush();
            }
            const auto shredded = counters->events_shredded.load();
            r.put("columnar.shred_ns_per_event",
                  shredded ? static_cast<double>(ns_between(s0, Clock::now())) /
                                 static_cast<double>(shredded)
                           : 0.0,
                  "ns");
            r.info["columnar_shredded_events"] = shredded;
            replay_layers(r, store, dep, sample);
        }
        store = hepnos::DataStore();
        teardown(true);
        if (last) break;
    }
    census.stop(r, opt.nproc);

    r.e2e("throughput_per_s", "ingest_slices_per_s", median(rate), "1/s");
    r.e2e("throughput_alt_per_s", "ingest_settled_slices_per_s", median(rate_settled), "1/s");
    r.e2e("latency_us", "ingest_wall_us", median(wall_us), "us");
    r.named["ingest_publish_us"] = {median(publish_us), "us"};
    r.e2e("latency_tail_us", "ingest_settle_us", median(settle_us), "us");
    r.named["ingest_settle_s"] = {median(settle_us) / 1e6, "s"};
    r.info["iterations"] = static_cast<std::uint64_t>(publish_us.size());

    r.put("lsm.flushes", median(flushes), "count");
    r.put("lsm.compactions", median(compactions), "count");
    r.put("lsm.write_stall_ms", median(stall_ms), "ms");
    r.put("lsm.write_slowdowns", median(slowdowns), "count");
    r.put("lsm.l0_files_max", static_cast<double>(l0_max), "count");
    r.put("lsm.write_amp", median(write_amp), "ratio");
    r.put("lsm.space_amp", median(space_amp), "ratio");
    r.put("hepnos.publish_ms", median(publish_us) / 1000.0, "ms");
    if (opt.trace && !rate_traced.empty()) {
        r.put("bench.trace_overhead_ratio", median(rate) / median(rate_traced) - 1.0, "ratio");
        tr.write(opt.work_dir + "/spans.jsonl");
    }
    return r;
}

}  // namespace perfbench
