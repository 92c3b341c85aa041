// hepnos_perfbench: boots the real HEPnOS stack in this process, runs one
// named workload for a fixed time and prints its metrics.
//
//   hepnos_perfbench --workload select|ingest|serve --seed N --seconds S
//                    --trace 0|1 --config workloads.json --work-dir DIR
//                    [--commit SHA] [--source-hash HASH]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. A failed output check exits 2 and prints no result.
#include <unistd.h>

#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "layers.hpp"

using namespace perfbench;
using hep::json::Value;

namespace {

std::string cpu_model() {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto p = line.find(':');
            return p == std::string::npos ? line : line.substr(p + 2);
        }
    }
    return "unknown";
}

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#else
#ifdef __OPTIMIZE__
    const std::string bt = HEP_BENCH_BUILD_TYPE;
    return bt == "Release" || bt == "RelWithDebInfo";
#else
    return false;
#endif
#endif
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions opt;
    std::string config_path, commit = "unknown", source_hash = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") opt.workload = v;
        else if (k == "--seed") opt.seed = std::stoull(v);
        else if (k == "--seconds") opt.seconds = std::stod(v);
        else if (k == "--trace") opt.trace = v == "1";
        else if (k == "--config") config_path = v;
        else if (k == "--work-dir") opt.work_dir = v;
        else if (k == "--commit") commit = v;
        else if (k == "--source-hash") source_hash = v;
        else {
            std::cerr << "unknown option " << k << "\n";
            return 64;
        }
    }
    if (!optimized_build()) {
        std::cerr << "refusing to report from a " << HEP_BENCH_BUILD_TYPE
                  << " / unoptimized / sanitizer build\n";
        return 3;
    }
    auto cfg = hep::json::parse_file(config_path);
    if (!cfg.ok()) {
        std::cerr << "cannot read " << config_path << ": " << cfg.status().to_string() << "\n";
        return 64;
    }
    opt.cfg = (*cfg)[opt.workload];
    if (!opt.cfg.is_object() || opt.work_dir.empty()) {
        std::cerr << "unknown workload '" << opt.workload << "' or no --work-dir\n";
        return 64;
    }
    RunResult r;
    try {
        opt.nproc = static_cast<unsigned>(cfg_num(*cfg, "nproc"));
        if (opt.workload == "select") r = run_select(opt);
        else if (opt.workload == "ingest") r = run_ingest(opt);
        else if (opt.workload == "serve") r = run_serve(opt);
    } catch (const CheckFailed& e) {
        std::cerr << "OUTPUT CHECK FAILED: " << e.what() << "\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "benchmark error: " << e.what() << "\n";
        return 1;
    }
    if (!opt.trace) {
        // VmHWM at exit, unless the workload took its figure earlier.
        const Metric at_exit{peak_rss_mb(), "MB"};
        r.named["peak_rss_at_exit_mb"] = at_exit;
        r.end_to_end.try_emplace("peak_rss_mb", at_exit);
    }
    complete_layers(r, opt.trace);

    Value prov = Value::make_object();
    prov["workload"] = opt.workload;
    prov["seed"] = opt.seed;
    prov["seconds"] = opt.seconds;
    prov["trace"] = opt.trace;
    prov["nproc"] = static_cast<std::uint64_t>(opt.nproc);
    prov["online_cpus"] = static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
    prov["cpu_model"] = cpu_model();
    prov["compiler"] = HEP_BENCH_COMPILER;
    prov["build_type"] = HEP_BENCH_BUILD_TYPE;
    prov["git_commit"] = commit;
    prov["source_hash"] = source_hash;

    Value full = Value::make_object();
    full["provenance"] = prov;
    full["valid"] = r.valid;
    full["info"] = r.info;
    Value named = Value::make_object();
    for (const auto& [k, m] : r.named) {
        named[k]["value"] = m.value;
        named[k]["unit"] = m.unit;
        std::cout << "metric " << k << " " << fmt(m.value) << " " << m.unit << "\n";
    }
    full["named"] = named;
    Value layer = Value::make_object();
    for (const auto& [k, m] : r.layer) {
        layer[k]["value"] = m.value;
        layer[k]["unit"] = m.unit;
        if (opt.trace) std::cout << "layer " << k << " " << fmt(m.value) << " " << m.unit << "\n";
    }
    full["layer"] = layer;
    std::cout << "provenance " << prov.dump() << "\n";
    std::cout << "valid " << (r.valid ? "true" : "false") << "\n";
    if (!r.valid) {
        std::cerr << "RUN INVALID: " << r.info["invalid_reason"].as_string() << "\n";
    }
    std::cout << "info " << r.info.dump() << "\n";
    {
        std::ofstream f(opt.work_dir + "/result.json");
        f << full.dump(2) << "\n";
    }

    Value out = Value::make_object();
    out["correct"] = true;  // a failed output check exits before this point
    out["attempted"] = std::max<std::uint64_t>(r.attempted, 1);
    out["failed"] = r.failed;
    Value metrics = Value::make_object();
    for (const auto& [k, m] : opt.trace ? r.layer : r.end_to_end) {
        metrics[k]["value"] = m.value;
        metrics[k]["unit"] = m.unit;
    }
    out["metrics"] = metrics;
    std::cout << out.dump() << std::endl;
    return 0;
}
